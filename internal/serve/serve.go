// Package serve is the concurrent query-serving layer over the MAL
// execution stack: the piece that turns the benchmark harness into the
// server the paper assumes Ocelot lives inside (§3.1 — MonetDB serves many
// client sessions against one engine). A Server multiplexes N client plan
// executions onto one *or more* shared operator configurations: each request
// gets its own MAL session (sessions are single-threaded; engines are shared
// and thread-safe), admission is capped so a traffic burst queues instead of
// oversubscribing the devices, and completed plans are cached as rewritten
// templates (mal.PlanCache) so repeated queries skip the plan build and the
// whole rewriter pass pipeline, re-binding only their parameters.
//
// Under load the server also shares work across requests (disable with
// Options.NoCoalesce):
//
//   - Single-flight: requests for the same query with the same parameter
//     values that arrive while an identical execution is in flight do not
//     execute at all — they wait for the in-flight leader and share its
//     result. The coalescing key includes the pass configuration and the
//     catalog version (mal.Catalog), so a request that arrives after an
//     ingest published new data never shares a result computed before it.
//   - Batching: same-query requests with *different* parameters that find
//     all execution slots busy can ride in a running leader's admission
//     slot instead of queueing: the leader, after its own execution, drains
//     the queued riders through its plan cache — each replay re-binds the
//     rider's own parameters — so one admission slot amortises one plan
//     walk across many parameterisations. Groups are keyed by catalog
//     version too.
//
// With several engines (NewBalanced) the server balances sessions across
// them by in-flight load: each admitted request runs on the engine currently
// executing the fewest plans, ties broken round-robin. Every engine keeps
// its own plan cache — the mal.PlanCache contract scopes a cache to one
// engine over one database.
//
// Every cache, flight and batch group reads one catalog version: a server
// built by New or NewBalanced has a catalog that never changes, and the
// servers of a ShardedServer share the one its Ingest publishes to.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cl"
	"repro/internal/mal"
	"repro/internal/ops"
)

// ErrOverloaded is returned when admission control rejects a request: the
// number of waiting requests exceeds Options.MaxQueued.
var ErrOverloaded = errors.New("serve: server overloaded, request rejected by admission control")

// Options configure a Server.
type Options struct {
	// MaxConcurrent caps how many plans execute simultaneously across the
	// shared engines (the admission cap); <=0 selects 4 per engine.
	MaxConcurrent int
	// MaxQueued caps how many requests may wait for an execution slot
	// beyond the cap before new arrivals are rejected with ErrOverloaded;
	// <=0 selects 16x MaxConcurrent.
	MaxQueued int
	// Passes is the rewriter pass configuration for every plan; the zero
	// value selects mal.DefaultPasses.
	Passes *mal.Passes
	// NoCache disables the rewritten-plan caches: every request builds and
	// rewrites its plan from scratch (ablation and tests). Implies
	// NoCoalesce: without templates there is nothing to share or re-bind.
	NoCache bool
	// NoCoalesce disables request coalescing — single-flighting identical
	// in-flight queries and batching same-query riders into a leader's
	// admission slot — so every request executes independently (ablation,
	// and tests that assert exact execution counts).
	NoCoalesce bool
	// MaxBatch caps how many queued riders one leader may drain through its
	// admission slot (and how many may queue behind one group); <=0
	// selects 16.
	MaxBatch int
}

// QueryStats aggregate the executions of one named query.
type QueryStats struct {
	// Runs counts completed executions (successful or failed); Errors the
	// failed ones; CacheHits the executions served from a cached template.
	Runs, Errors, CacheHits int64
	// Rejected counts requests admission control turned away with
	// ErrOverloaded; they never executed and are not part of Runs or the
	// latency aggregates.
	Rejected int64
	// Dropped counts requests whose caller's context expired or was
	// cancelled before execution started — while waiting for a slot, or
	// already queued when the slot finally freed. Like Rejected they never
	// executed and are not part of Runs.
	Dropped int64
	// Retries counts executions re-run after a device was lost mid-plan:
	// the retry routes around the dead device, so one lost card costs one
	// replay, not a failed request.
	Retries int64
	// Shared counts requests served by single-flight coalescing: they are
	// part of Runs but never executed a plan — they waited for an identical
	// in-flight execution and share its result.
	Shared int64
	// Batched counts requests served as batch riders: part of Runs, executed
	// as template replays inside another request's admission slot.
	Batched int64
	// Rows is the total result rows returned.
	Rows int64
	// Total and Max aggregate end-to-end request latency (admission wait
	// included).
	Total, Max time.Duration
}

// engineSlot is one balanced execution target: an engine, its plan cache,
// and its load counters.
type engineSlot struct {
	o        ops.Operators
	cache    *mal.PlanCache
	inflight atomic.Int64 // plans executing right now
	served   atomic.Int64 // completed executions (observability)
}

// Server dispatches concurrent plan executions onto shared operator
// configurations.
type Server struct {
	slots  []*engineSlot
	passes mal.Passes

	// vers is the catalog the plan caches, flights and batch groups read.
	vers *mal.Catalog

	sem     chan struct{}
	maxQ    int64
	waiting atomic.Int64
	rr      atomic.Int64 // round-robin tie-breaker for equal loads

	// Request coalescing (see the package comment).
	coalesce bool
	maxBatch int
	fmu      sync.Mutex
	flights  map[string]*flight
	groups   map[string]*batchGroup
	// Observability for deterministic tests: how many followers are
	// currently waiting on a flight / riders queued in a batch group.
	sharedWaiting atomic.Int64
	batchWaiting  atomic.Int64

	mu    sync.Mutex
	stats map[string]*QueryStats
}

// flight is one in-flight execution identical requests wait on. The leader
// fills res/err, removes the flight from the map and closes done (the
// happens-before edge followers read through). A leader that never gets to
// publish — dropped, rejected, or panicked — abandons instead: followers
// observe abandoned and retry from admission, so a cancelled leader cannot
// strand them.
type flight struct {
	done      chan struct{}
	res       *mal.Result
	err       error
	abandoned bool
}

// batchGroup queues same-query riders behind a running leader's admission
// slot. closed means the leader finished draining: late arrivals must not
// append (no one would ever serve them).
type batchGroup struct {
	mu     sync.Mutex
	closed bool
	items  []*batchItem
}

// batchItem is one queued rider. ch is buffered so the leader can always
// complete its send even when the rider already gave up on its context.
type batchItem struct {
	params mal.Params
	ctx    context.Context
	plan   func(*mal.Session) *mal.Result
	ch     chan batchDone
}

// batchDone is the leader's answer to a rider. served=false means the
// leader closed the group without executing this rider (drain cap reached,
// or the rider's context was already dead): the rider retries through
// normal admission.
type batchDone struct {
	res    *mal.Result
	err    error
	hit    bool
	served bool
}

// New creates a server over one shared configuration. The engine must be
// safe for concurrent sessions (all shipped configurations are); the
// server's plan cache is scoped to this engine and the data its plans read,
// per the mal.PlanCache contract.
func New(o ops.Operators, opt Options) *Server {
	return NewBalanced([]ops.Operators{o}, opt)
}

// NewBalanced creates a server balancing sessions across several engines.
// The engines should be interchangeable — same module, same base data —
// since any request may land on any of them; typically they are separate
// instances of one configuration (e.g. per-NUMA-domain hybrid engines).
// Each engine gets its own plan cache.
func NewBalanced(os []ops.Operators, opt Options) *Server {
	return newBalanced(os, opt, &mal.Catalog{})
}

// newBalanced is NewBalanced over the catalog vers.
func newBalanced(os []ops.Operators, opt Options, vers *mal.Catalog) *Server {
	if len(os) == 0 {
		panic("serve: NewBalanced needs at least one engine")
	}
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 4 * len(os)
	}
	if opt.MaxQueued <= 0 {
		opt.MaxQueued = 16 * opt.MaxConcurrent
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 16
	}
	passes := mal.DefaultPasses()
	if opt.Passes != nil {
		passes = *opt.Passes
	}
	sv := &Server{
		passes:   passes,
		vers:     vers,
		sem:      make(chan struct{}, opt.MaxConcurrent),
		maxQ:     int64(opt.MaxQueued),
		coalesce: !opt.NoCoalesce && !opt.NoCache,
		maxBatch: opt.MaxBatch,
		flights:  map[string]*flight{},
		groups:   map[string]*batchGroup{},
		stats:    map[string]*QueryStats{},
	}
	for _, o := range os {
		slot := &engineSlot{o: o}
		if !opt.NoCache {
			slot.cache = mal.NewPlanCacheFor(vers)
		}
		sv.slots = append(sv.slots, slot)
	}
	return sv
}

// Operators returns the first shared configuration (the only one for a
// single-engine server).
func (sv *Server) Operators() ops.Operators { return sv.slots[0].o }

// Engines returns every balanced configuration in slot order.
func (sv *Server) Engines() []ops.Operators {
	out := make([]ops.Operators, len(sv.slots))
	for i, s := range sv.slots {
		out[i] = s.o
	}
	return out
}

// EngineLoads returns, per engine, how many executions it has completed
// (successful or failed, like QueryStats.Runs) — the balance the dispatcher
// achieved.
func (sv *Server) EngineLoads() []int64 {
	out := make([]int64, len(sv.slots))
	for i, s := range sv.slots {
		out[i] = s.served.Load()
	}
	return out
}

// pick returns the engine slot with the fewest in-flight plans, breaking
// ties round-robin so equal-load engines share work instead of the first
// one absorbing every burst.
func (sv *Server) pick() *engineSlot {
	if len(sv.slots) == 1 {
		return sv.slots[0]
	}
	start := int((sv.rr.Add(1) - 1) % int64(len(sv.slots)))
	best := sv.slots[start]
	bestLoad := best.inflight.Load()
	for i := 1; i < len(sv.slots); i++ {
		s := sv.slots[(start+i)%len(sv.slots)]
		if l := s.inflight.Load(); l < bestLoad {
			best, bestLoad = s, l
		}
	}
	return best
}

// Execute runs the named plan with the given parameter bindings, blocking
// until an execution slot is free. Admission control rejects the request
// with ErrOverloaded when too many requests are already waiting. Execute is
// safe to call from any number of goroutines.
func (sv *Server) Execute(name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	return sv.ExecuteCtx(context.Background(), name, params, plan)
}

// ExecuteCtx is Execute with a caller deadline: a request whose context
// expires or is cancelled while it waits for an execution slot — or that is
// already queued when its slot finally frees — is dropped *before* any plan
// work starts and reports the context's own error
// (context.DeadlineExceeded or context.Canceled), distinct from the
// admission-control ErrOverloaded. A plan already executing is never
// interrupted: sessions are not preemptible, so the deadline gates
// admission and dequeue, which under load is where requests spend their
// wait anyway.
//
// With coalescing enabled a request may be served without executing: by
// the result of an identical in-flight execution (single-flight), or as a
// template replay inside another request's admission slot (batching). An
// attempt whose leader or batch group dissolves underneath it retries from
// the top; the context gates every retry.
func (sv *Server) ExecuteCtx(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	return sv.executeKeyed(ctx, name, name, params, plan)
}

// executeKeyed is ExecuteCtx with the plan's identity split from its name:
// statistics aggregate under name, while the template cache, single-flight
// and batch groups are keyed by key. A caller that issues different plans
// under one query name (the sharded server: one ShardPlan per compile) passes
// a key per plan, so no plan is ever answered from another plan's template.
func (sv *Server) executeKeyed(ctx context.Context, name, key string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	start := time.Now()
	for {
		res, err, retry := sv.attempt(ctx, start, name, key, params, plan)
		if !retry {
			return res, err
		}
	}
}

// attempt is one pass through coalescing, admission and execution. retry
// means the request was neither served nor terminally refused (its flight
// leader abandoned, or its batch group closed unserved): the caller loops.
func (sv *Server) attempt(ctx context.Context, start time.Time, name, key string, params mal.Params, plan func(*mal.Session) *mal.Result) (_ *mal.Result, _ error, retry bool) {
	if err := ctx.Err(); err != nil {
		sv.drop(name)
		return nil, err, false
	}

	// Single-flight: identical request already executing → wait for it;
	// none → register as leader so duplicates arriving from here on wait
	// for us. The deferred abandon covers every exit that does not publish
	// (reject, drop, panic), so followers can never be stranded.
	var fl *flight
	var fkey string
	if sv.coalesce {
		fkey = sv.flightKey(key, params)
		sv.fmu.Lock()
		if other := sv.flights[fkey]; other != nil {
			sv.fmu.Unlock()
			return sv.followFlight(ctx, start, name, other)
		}
		fl = &flight{done: make(chan struct{})}
		sv.flights[fkey] = fl
		sv.fmu.Unlock()
		defer func() {
			if fl != nil {
				sv.abandonFlight(fkey, fl)
			}
		}()
	}

	select {
	case sv.sem <- struct{}{}: // free execution slot: admitted immediately
	default:
		// All slots busy. Before queueing, try to ride in an open batch
		// group: a same-query leader will replay its template with our
		// parameters from inside its own slot.
		if sv.coalesce {
			if it, ok := sv.joinBatch(ctx, key, params, plan); ok {
				select {
				case d := <-it.ch:
					sv.batchWaiting.Add(-1)
					if !d.served {
						return nil, nil, true
					}
					sv.noteFull(name, start, d.res, d.hit, d.err, false, true)
					if fl != nil {
						sv.publishFlight(fkey, fl, d.res, d.err)
						fl = nil
					}
					return d.res, d.err, false
				case <-ctx.Done():
					sv.batchWaiting.Add(-1)
					sv.drop(name)
					return nil, ctx.Err(), false
				}
			}
		}
		// Join the bounded wait queue.
		if sv.waiting.Add(1) > sv.maxQ {
			sv.waiting.Add(-1)
			sv.reject(name)
			return nil, ErrOverloaded, false
		}
		select {
		case sv.sem <- struct{}{}:
		case <-ctx.Done():
			sv.waiting.Add(-1)
			sv.drop(name)
			return nil, ctx.Err(), false
		}
		sv.waiting.Add(-1)
	}
	defer func() { <-sv.sem }()
	// Dequeue gate: the slot may have freed long after the caller gave up.
	if err := ctx.Err(); err != nil {
		sv.drop(name)
		return nil, err, false
	}

	slot := sv.pick()
	// Open a batch group before executing, so same-query arrivals that find
	// the slots busy during our run can queue behind this slot.
	var g *batchGroup
	var gkey string
	if sv.coalesce {
		g, gkey = sv.openGroup(key)
	}
	res, hit, err := sv.runWithRetry(slot, name, key, params, plan)
	sv.noteFull(name, start, res, hit, err, false, false)
	if fl != nil {
		// Publish before draining riders: followers should unblock the
		// moment the shared result exists, not after unrelated replays.
		sv.publishFlight(fkey, fl, res, err)
		fl = nil
	}
	if g != nil {
		sv.drainGroup(slot, g, gkey, name, key)
	}
	return res, err, false
}

// flightKey identifies executions that may share a result: same query, same
// rewriter passes, same catalog version, same parameter values.
func (sv *Server) flightKey(key string, params mal.Params) string {
	var sb strings.Builder
	sb.WriteString(key)
	sb.WriteByte('|')
	sb.WriteString(sv.passes.Key())
	fmt.Fprintf(&sb, "|v%d", sv.vers.Current().Seq())
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatFloat(params[k], 'g', -1, 64))
	}
	return sb.String()
}

// followFlight waits for an identical in-flight execution and shares its
// result. An abandoned flight (its leader never published) retries.
func (sv *Server) followFlight(ctx context.Context, start time.Time, name string, fl *flight) (*mal.Result, error, bool) {
	sv.sharedWaiting.Add(1)
	defer sv.sharedWaiting.Add(-1)
	select {
	case <-fl.done:
		if fl.abandoned {
			return nil, nil, true
		}
		sv.noteFull(name, start, fl.res, false, fl.err, true, false)
		return fl.res, fl.err, false
	case <-ctx.Done():
		sv.drop(name)
		return nil, ctx.Err(), false
	}
}

// publishFlight hands the leader's result to every follower: fill the
// result, unhook the flight so new arrivals start fresh, then release the
// followers.
func (sv *Server) publishFlight(key string, fl *flight, res *mal.Result, err error) {
	fl.res, fl.err = res, err
	sv.fmu.Lock()
	delete(sv.flights, key)
	sv.fmu.Unlock()
	close(fl.done)
}

// abandonFlight releases followers without a result; they retry admission.
func (sv *Server) abandonFlight(key string, fl *flight) {
	fl.abandoned = true
	sv.fmu.Lock()
	delete(sv.flights, key)
	sv.fmu.Unlock()
	close(fl.done)
}

// batchKey identifies the open group a rider may join: same query, same
// catalog version (parameters differ — that is the point).
func (sv *Server) batchKey(key string) string {
	return key + "|v" + strconv.FormatInt(sv.vers.Current().Seq(), 10)
}

// openGroup opens a batch group owned by this request's admission slot.
// When another leader's group for the same query is already open, no new
// group is opened (nil): only the creator drains and closes a group.
func (sv *Server) openGroup(key string) (*batchGroup, string) {
	gkey := sv.batchKey(key)
	sv.fmu.Lock()
	defer sv.fmu.Unlock()
	if sv.groups[gkey] != nil {
		return nil, ""
	}
	g := &batchGroup{}
	sv.groups[gkey] = g
	return g, gkey
}

// joinBatch appends the request to an open same-query group, if one exists
// and still has room. The returned item's channel delivers the verdict.
func (sv *Server) joinBatch(ctx context.Context, key string, params mal.Params, plan func(*mal.Session) *mal.Result) (*batchItem, bool) {
	sv.fmu.Lock()
	g := sv.groups[sv.batchKey(key)]
	sv.fmu.Unlock()
	if g == nil {
		return nil, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed || len(g.items) >= sv.maxBatch {
		return nil, false
	}
	it := &batchItem{params: params, ctx: ctx, plan: plan, ch: make(chan batchDone, 1)}
	g.items = append(g.items, it)
	sv.batchWaiting.Add(1)
	return it, true
}

// drainGroup serves queued riders from the leader's admission slot, one
// template replay each, until the group runs dry or the drain cap is hit;
// then it closes the group and flushes any leftovers unserved (they retake
// normal admission). Riders whose context already expired are flushed, not
// executed.
func (sv *Server) drainGroup(slot *engineSlot, g *batchGroup, gkey, name, key string) {
	drained := 0
	for {
		g.mu.Lock()
		if drained >= sv.maxBatch || len(g.items) == 0 {
			g.closed = true
			rest := g.items
			g.items = nil
			g.mu.Unlock()
			sv.fmu.Lock()
			delete(sv.groups, gkey)
			sv.fmu.Unlock()
			for _, it := range rest {
				it.ch <- batchDone{}
			}
			return
		}
		it := g.items[0]
		g.items = g.items[1:]
		g.mu.Unlock()
		drained++
		if it.ctx.Err() != nil {
			it.ch <- batchDone{}
			continue
		}
		res, hit, err := sv.runWithRetry(slot, name, key, it.params, it.plan)
		it.ch <- batchDone{res: res, err: err, hit: hit, served: true}
	}
}

// runOn executes the plan on the given engine slot, its template cached
// under key.
func (sv *Server) runOn(slot *engineSlot, key string, params mal.Params, plan func(*mal.Session) *mal.Result) (res *mal.Result, hit bool, err error) {
	slot.inflight.Add(1)
	defer slot.inflight.Add(-1)
	if slot.cache != nil {
		res, hit, err = slot.cache.Run(slot.o, key, params, sv.passes, plan)
	} else {
		s := mal.NewSession(slot.o)
		s.SetPasses(sv.passes)
		s.SetParams(params)
		res, err = mal.RunQuery(s, plan)
	}
	slot.served.Add(1)
	return res, hit, err
}

// runWithRetry is runOn plus the device-loss replay: a device that died
// mid-plan took the plan's intermediates with it, but it is latched dead,
// so one replay routes around it (hybrid pick/placement skip dead devices;
// base data lives on the host).
func (sv *Server) runWithRetry(slot *engineSlot, name, key string, params mal.Params, plan func(*mal.Session) *mal.Result) (res *mal.Result, hit bool, err error) {
	res, hit, err = sv.runOn(slot, key, params, plan)
	if err != nil && errors.Is(err, cl.ErrDeviceLost) {
		sv.mu.Lock()
		sv.statLocked(name).Retries++
		sv.mu.Unlock()
		res, hit, err = sv.runOn(slot, key, params, plan)
	}
	return res, hit, err
}

// statLocked returns (creating if needed) the named stats; sv.mu held.
func (sv *Server) statLocked(name string) *QueryStats {
	st := sv.stats[name]
	if st == nil {
		st = &QueryStats{}
		sv.stats[name] = st
	}
	return st
}

func (sv *Server) reject(name string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.statLocked(name).Rejected++
}

func (sv *Server) drop(name string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.statLocked(name).Dropped++
}

// noteFull records a completed request: every request ends in exactly one
// of Rejected, Dropped or Runs, with shared/batched marking the coalesced
// service paths inside Runs.
func (sv *Server) noteFull(name string, start time.Time, res *mal.Result, hit bool, err error, shared, batched bool) {
	took := time.Since(start)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	st := sv.statLocked(name)
	st.Runs++
	if err != nil {
		st.Errors++
	}
	if hit {
		st.CacheHits++
	}
	if shared {
		st.Shared++
	}
	if batched {
		st.Batched++
	}
	if res != nil {
		st.Rows += int64(res.Rows())
	}
	st.Total += took
	if took > st.Max {
		st.Max = took
	}
}

// CacheStats returns plan-cache hits, misses and resident templates summed
// across the engines (zeros when the caches are disabled).
func (sv *Server) CacheStats() (hits, misses int64, size int) {
	for _, s := range sv.slots {
		if s.cache == nil {
			continue
		}
		h, m, n := s.cache.Stats()
		hits += h
		misses += m
		size += n
	}
	return hits, misses, size
}

// Stats returns a copy of the per-query statistics.
func (sv *Server) Stats() map[string]QueryStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make(map[string]QueryStats, len(sv.stats))
	for name, st := range sv.stats {
		out[name] = *st
	}
	return out
}

// String renders the per-query statistics as an aligned table.
func (sv *Server) String() string {
	stats := sv.Stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %6s %6s %6s %6s %6s %6s %6s %6s %10s %12s %12s\n",
		"query", "runs", "errs", "rej", "drop", "retry", "hits", "shr", "bat", "rows", "avg", "max")
	for _, n := range names {
		st := stats[n]
		avg := time.Duration(0)
		if st.Runs > 0 {
			avg = st.Total / time.Duration(st.Runs)
		}
		fmt.Fprintf(&sb, "%-24s %6d %6d %6d %6d %6d %6d %6d %6d %10d %12v %12v\n",
			n, st.Runs, st.Errors, st.Rejected, st.Dropped, st.Retries, st.CacheHits, st.Shared, st.Batched, st.Rows,
			avg.Round(time.Microsecond), st.Max.Round(time.Microsecond))
	}
	hits, misses, size := sv.CacheStats()
	fmt.Fprintf(&sb, "plan cache: %d hits, %d misses, %d templates\n", hits, misses, size)
	if len(sv.slots) > 1 {
		fmt.Fprintf(&sb, "engines: %d, served %v\n", len(sv.slots), sv.EngineLoads())
	}
	return sb.String()
}
