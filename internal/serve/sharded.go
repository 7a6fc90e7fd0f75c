// Sharded scale-out serving: one logical database hash-partitioned across N
// engines, every query answered byte-identically to the unsharded server.
// A ShardedServer owns one serve.Server per shard (scatter targets, each
// with its own plan cache over its shard's slice) plus a coordinator Server
// over the global catalog (degenerate queries and fallbacks). The first
// execution of a query runs cold and unsharded on the coordinator engine;
// mal.CompileSharded then derives per-shard fragments and a merge fragment
// from the finished session's IR, and every later execution scatters the
// shard fragments, gathers the frontier values back into exact global row
// order, and runs the merge fragment on the coordinator engine. Queries the
// compiler cannot decompose (join-heavy shapes, dimension-only plans) come
// back degenerate and are simply delegated to the coordinator — correctness
// never depends on decomposability.
//
// The sharded path runs with plan fusion forced off: fused float pipelines
// are only numerically close (not bitwise equal) to their unfused
// expansion, and byte-identity across shard counts is the contract here.
//
// Live ingest rides the same copy-on-append snapshots as the storage layer
// (bat.AppendDelta): a warm scatter keeps reading the data its plan was
// compiled against, so appends never tear an in-flight query. Ingest applies
// the mutation under the write side of ingestMu and, before releasing it,
// publishes one new catalog version (mal.Catalog) naming the tables it
// changed. The coordinator, every shard server and the compiled-plan table
// read that one version: only work over the changed tables goes stale, so
// only queries that read them recompile; everything else stays warm.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mal"
	"repro/internal/ops"
)

// ShardedServer scatter-gathers queries across per-shard servers.
type ShardedServer struct {
	cat      *mal.ShardCatalog
	coord    *Server
	shards   []*Server
	coordOps ops.Operators
	passes   mal.Passes

	// vers is the catalog version every server here reads and Ingest
	// publishes to.
	vers *mal.Catalog

	// ingestMu serialises catalog mutation (Ingest's apply and publish)
	// against cold compiles and against plan closures that resolve columns
	// live (Table.Col): a compile holds the read side across reading the
	// version, its unsharded run and CompileSharded, so the version it
	// records, the base BATs it resolved and the catalog views the compiler
	// snapshots are one generation. Warm executions don't take it — their
	// snapshots are immutable.
	ingestMu sync.RWMutex

	// cmu guards the compiled-plan table and the compile single-flight
	// registry. Plans never build or execute under it (see internal/lint
	// lockorder): compiles register here, build outside, and re-enter only to
	// store.
	cmu       sync.Mutex
	entries   map[string]*shardEntry
	compiling map[string]*compileCall

	scattered    atomic.Int64 // warm scatter-gather executions served
	degenerated  atomic.Int64 // executions delegated for a degenerate plan
	coldCompiles atomic.Int64 // cold unsharded runs that compiled a plan
	fallbacks    atomic.Int64 // scatter failures answered by the coordinator
	recompiles   atomic.Int64 // compiled plans dropped because a table they read changed
}

// shardEntry is one resident compiled plan, the catalog version it was
// compiled at, and the tables whose versions decide whether it is current.
type shardEntry struct {
	sp     *mal.ShardPlan
	ver    *mal.CatalogVersion
	tables []string
	// key is what the plan's scatters are cached, single-flighted and batched
	// under on the shard servers: the query name plus the version it was
	// compiled at ("Q3@17"). One name compiles at most once per version, so
	// a scatter can only ever replay a template built from this very plan's
	// fragments, never a previous plan's template stitched to this plan's row
	// maps by Gather.
	key string
}

// compileCall single-flights a query's cold compile: concurrent first
// executions wait for the registered builder instead of each running the
// query cold.
type compileCall struct {
	done chan struct{}
}

// NewSharded creates a sharded server: one scatter target per shard engine
// (which must line up with cat's shard order), and a coordinator over the
// global catalog on coordEngine. All servers share opt, with the pass
// configuration's fusion forced off (see the package comment).
func NewSharded(coordEngine ops.Operators, shardEngines []ops.Operators, cat *mal.ShardCatalog, opt Options) *ShardedServer {
	if cat == nil || cat.NShards != len(shardEngines) {
		panic(fmt.Sprintf("serve: catalog has %d shards, %d shard engines given",
			catShards(cat), len(shardEngines)))
	}
	passes := mal.DefaultPasses()
	if opt.Passes != nil {
		passes = *opt.Passes
	}
	passes.Fusion = false
	opt.Passes = &passes
	vers := &mal.Catalog{}
	ss := &ShardedServer{
		cat:       cat,
		vers:      vers,
		coord:     newBalanced([]ops.Operators{coordEngine}, opt, vers),
		coordOps:  coordEngine,
		passes:    passes,
		entries:   map[string]*shardEntry{},
		compiling: map[string]*compileCall{},
	}
	for _, o := range shardEngines {
		ss.shards = append(ss.shards, newBalanced([]ops.Operators{o}, opt, vers))
	}
	return ss
}

func catShards(cat *mal.ShardCatalog) int {
	if cat == nil {
		return 0
	}
	return cat.NShards
}

// NShards returns the shard count.
func (ss *ShardedServer) NShards() int { return len(ss.shards) }

// Coordinator returns the coordinator server (stats and cache inspection).
func (ss *ShardedServer) Coordinator() *Server { return ss.coord }

// Shard returns shard i's server (stats and cache inspection).
func (ss *ShardedServer) Shard(i int) *Server { return ss.shards[i] }

// ShardStats are the sharded layer's own counters (the per-server QueryStats
// live on Coordinator and the Shard servers).
type ShardStats struct {
	// Scattered counts warm scatter-gather executions; Degenerate executions
	// delegated to the coordinator because the plan does not decompose;
	// ColdCompiles first executions that ran unsharded and compiled a plan;
	// Fallbacks scatter attempts answered by the coordinator after a shard,
	// gather or merge failure; Recompiles compiled plans dropped because a
	// table they read changed.
	Scattered, Degenerate, ColdCompiles, Fallbacks, Recompiles int64
}

// Stats returns the sharded layer's counters.
func (ss *ShardedServer) Stats() ShardStats {
	return ShardStats{
		Scattered:    ss.scattered.Load(),
		Degenerate:   ss.degenerated.Load(),
		ColdCompiles: ss.coldCompiles.Load(),
		Fallbacks:    ss.fallbacks.Load(),
		Recompiles:   ss.recompiles.Load(),
	}
}

// Execute is ExecuteCtx without a caller deadline.
func (ss *ShardedServer) Execute(name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	return ss.ExecuteCtx(context.Background(), name, params, plan)
}

// ExecuteCtx runs the named query. The first execution (and the first after
// an ingest changed a table the compiled plan reads) runs cold: unsharded on
// the coordinator engine, compiling the shard plan as a side effect — its
// result is the answer. Warm executions scatter across the shard servers
// (each an admission-controlled, plan-cached serve.Server), gather, and merge
// on the coordinator engine. plan must read the global catalog's tables: it
// is what cold runs and degenerate delegations execute.
func (ss *ShardedServer) ExecuteCtx(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ss.cmu.Lock()
		if ent := ss.entryLocked(name); ent != nil {
			ss.cmu.Unlock()
			return ss.runCompiled(ctx, name, params, plan, ent)
		}
		if cc := ss.compiling[name]; cc != nil {
			ss.cmu.Unlock()
			select {
			case <-cc.done:
				continue // entry resident now, or the builder failed and we take over
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		cc := &compileCall{done: make(chan struct{})}
		ss.compiling[name] = cc
		ss.cmu.Unlock()
		return ss.compileCold(name, params, plan, cc)
	}
}

// entryLocked returns the resident compiled plan for name, dropping it (and
// reporting nil) if a table it reads changed since it was compiled. cmu held.
func (ss *ShardedServer) entryLocked(name string) *shardEntry {
	ent := ss.entries[name]
	if ent == nil || ss.vers.Current().Same(ent.ver, ent.tables) {
		return ent
	}
	delete(ss.entries, name)
	ss.recompiles.Add(1)
	return nil
}

// compileCold runs the query unsharded on the coordinator engine and compiles
// the shard plan from the finished session. The read side of ingestMu spans
// reading the catalog version, the run and the compiler, so the plan is
// recorded at the version of the data it read. The cold result is returned
// to the caller; the compiled plan (decomposed or degenerate —
// CompileSharded never fails) is stored for the next execution.
func (ss *ShardedServer) compileCold(name string, params mal.Params, plan func(*mal.Session) *mal.Result, cc *compileCall) (*mal.Result, error) {
	defer func() {
		ss.cmu.Lock()
		delete(ss.compiling, name)
		ss.cmu.Unlock()
		close(cc.done)
	}()
	ss.ingestMu.RLock()
	ver := ss.vers.Current()
	s := mal.NewSession(ss.coordOps)
	s.SetPasses(ss.passes)
	s.SetParams(params)
	res, err := mal.RunQuery(s, plan)
	if err != nil {
		ss.ingestMu.RUnlock()
		return nil, err
	}
	sp := mal.CompileSharded(name, s, ss.cat)
	ss.ingestMu.RUnlock()
	ent := &shardEntry{sp: sp, ver: ver, tables: sp.Tables(), key: fmt.Sprintf("%s@%d", name, ver.Seq())}
	ss.cmu.Lock()
	ss.entries[name] = ent
	ss.cmu.Unlock()
	ss.coldCompiles.Add(1)
	return res, nil
}

// runCompiled executes a compiled plan: delegation for degenerate plans,
// scatter-gather-merge otherwise. A scatter that fails for any reason other
// than the caller's own context falls back to the coordinator — a shard
// hiccup degrades to unsharded latency, not to an error.
func (ss *ShardedServer) runCompiled(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result, ent *shardEntry) (*mal.Result, error) {
	if ent.sp.Degenerate() {
		ss.degenerated.Add(1)
		return ss.coord.ExecuteCtx(ctx, name, params, ss.guarded(plan))
	}
	res, err := ss.scatter(ctx, name, params, ent)
	if err == nil {
		ss.scattered.Add(1)
		return res, nil
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	ss.fallbacks.Add(1)
	return ss.coord.ExecuteCtx(ctx, name, params, ss.guarded(plan))
}

// scatter runs the shard fragments concurrently through the shard servers
// (admission control and per-shard plan caching apply per shard), gathers
// the frontier into global row order, and runs the merge fragment. The shard
// servers account the executions under name and key everything else by the
// plan's own key.
func (ss *ShardedServer) scatter(ctx context.Context, name string, params mal.Params, ent *shardEntry) (*mal.Result, error) {
	sp := ent.sp
	n := sp.NShards()
	results := make([]*mal.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = ss.shards[i].executeKeyed(ctx, name, ent.key, params, sp.PlanFor(i))
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	gathered, err := sp.Gather(results)
	if err != nil {
		return nil, err
	}
	return sp.Merge(ss.coordOps, params, gathered)
}

// guarded wraps an unsharded plan closure with the ingest read lock: the
// closure resolves base columns live (Table.Col), so a concurrent append
// must not swap the column set mid-build — each build reads one generation.
func (ss *ShardedServer) guarded(plan func(*mal.Session) *mal.Result) func(*mal.Session) *mal.Result {
	return func(s *mal.Session) *mal.Result {
		ss.ingestMu.RLock()
		defer ss.ingestMu.RUnlock()
		return plan(s)
	}
}

// Ingest applies a catalog mutation (typically bat.AppendDelta calls against
// the global and shard tables) and publishes one catalog version in which the
// named tables changed. The write lock excludes cold compiles and live plan
// closures while the mutation runs — in-flight warm executions are
// unaffected, they read compile-time snapshots — and the publish inside it
// retires exactly the compiled plans and templates that read the mutated
// tables, and starts fresh flights and batch groups. Queries executing
// concurrently with Ingest see either the old or the new generation, never
// a mix; queries arriving after Ingest returns see the new rows.
func (ss *ShardedServer) Ingest(tables []string, apply func()) {
	ss.ingestMu.Lock()
	apply()
	ss.vers.Publish(tables)
	ss.ingestMu.Unlock()
}
