package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/mal"
	"repro/internal/monet"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// ingestShards is the number of shards behind the coordinator.
const ingestShards = 2

// ordersAt is the number of orders loaded at ingest generation g.
func (r *rig) ordersAt(g int) int {
	return min(r.prefix+g*r.step, r.full.Orders.Rows())
}

// buildSharded carves the prefix out of the generated instance and puts a
// coordinator and two shard servers over it.
func (r *rig) buildSharded() {
	r.full = r.db
	total := r.full.Orders.Rows()
	r.prefix = int(float64(total) * r.w.prefixShare)
	r.step = int(float64(total) * r.w.ingestShare)
	r.sdb, r.ss = newSharded(r.full, r.prefix, r.w.opts)
	r.db = r.sdb.Global
	r.eng = r.msEng
	r.sut = r.ss
}

func newSharded(full *tpch.DB, prefix int, opts serve.Options) (*tpch.ShardedDB, *serve.ShardedServer) {
	sdb := tpch.ShardDB(tpch.PrefixDB(full, prefix), ingestShards)
	engs := make([]ops.Operators, ingestShards)
	for i := range engs {
		engs[i] = monet.NewSequential()
	}
	return sdb, serve.NewSharded(monet.NewSequential(), engs, sdb.Catalog(), opts)
}

// shardOracles computes every query's answer at every ingest generation,
// each on a fresh session over that generation's own copy of the prefix.
func (r *rig) shardOracles() error {
	for g := 0; g <= r.w.ingests; g++ {
		// Kept: generation g's instance is also the batch ingest g appends
		// from, cut here so that the window spends nothing on cutting it.
		r.batches = append(r.batches, tpch.PrefixDB(r.full, r.ordersAt(g)))
		gen := tpchQueries(r.batches[g])
		for i, q := range gen {
			o, err := newOracle(q.plan, nil)
			if err != nil {
				return fmt.Errorf("oracle %s generation %d: %w", q.name, g, err)
			}
			r.queries[i].want = append(r.queries[i].want, o)
		}
	}
	// The reference reads the complete instance, which no ingest changes.
	r.ref = tpchQueries(r.full)
	for _, q := range r.ref {
		o, err := newOracle(q.plan, nil)
		if err != nil {
			return fmt.Errorf("oracle %s of the reference: %w", q.name, err)
		}
		q.want = []*oracle{o}
	}
	return nil
}

// ingestOnce appends the next generation's rows through ShardedServer.Ingest
// and returns the time of the whole call and of the apply closure inside it.
func ingestOnce(ss *serve.ShardedServer, sdb *tpch.ShardedDB, batch *tpch.DB) (whole, apply time.Duration) {
	t0 := time.Now()
	ss.Ingest(tpch.ShardTables(), func() {
		a0 := time.Now()
		sdb.AppendTail(batch)
		apply = time.Since(a0)
	})
	return time.Since(t0), apply
}

// ingestWindow is what the ingest_mix window measured.
type ingestWindow struct {
	reader, ref *client
	ingestMs    []float64 // per Ingest call
	applyMs     []float64 // inside the apply closure
	rows        []float64 // orders and lineitems appended per call
}

// runIngestMix runs the reader in a closed loop beside a writer that calls
// Ingest at even spacing. A gate quiesces the reader during each Ingest:
// with ingest concurrent, reads at two cores sometimes match no generation
// (ROADMAP's torn read), and a workload on which operations fail measures
// nothing. The torn_share probe of the traced pass opens the gate. A block of
// the MonetDB reference runs before and after, an eighth of the time each.
func runIngestMix(ctx context.Context, r *rig, seed int64, d time.Duration) *ingestWindow {
	w := &ingestWindow{reader: newClient(r.sut, r.tol, seed, r), ref: newRefClient(r, seed+1)}
	block := d / 8
	w.ref.runFor(ctx, block)
	d -= 2 * block
	var gate sync.RWMutex
	stop := make(chan struct{})
	var wg sync.WaitGroup

	cl := w.reader
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			cl.scratch = cl.scratch[:0]
			for _, qi := range cl.rng.Perm(cl.nq) {
				select {
				case <-stop:
					return // an unfinished round is not a round
				default:
				}
				gate.RLock()
				cl.scratch = append(cl.scratch, cl.do(ctx, cl.reqs(qi), qi))
				gate.RUnlock()
			}
			cl.endRound()
		}
	}()

	spacing := d / time.Duration(r.w.ingests+1)
	for g := 1; g <= r.w.ingests; g++ {
		if wait := time.Duration(g)*spacing - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		rowsBefore := r.db.Orders.Rows() + r.db.Lineitem.Rows()
		gate.Lock()
		whole, apply := ingestOnce(r.ss, r.sdb, r.batches[g])
		r.current = g
		gate.Unlock()
		w.ingestMs = append(w.ingestMs, ms(whole))
		w.applyMs = append(w.applyMs, ms(apply))
		w.rows = append(w.rows, float64(r.db.Orders.Rows()+r.db.Lineitem.Rows()-rowsBefore))
	}
	if wait := d - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&after)
	cl.mallocs = after.Mallocs - before.Mallocs
	cl.allocBytes = after.TotalAlloc - before.TotalAlloc
	w.ref.runFor(ctx, block)
	return w
}

// tornShare opens the gate: a fresh sharded server over the prefix, two readers
// running while five ingests land, every answer compared with every
// generation's oracle. It returns the share of reads that match none.
// Informational — the repository knows about the torn read (ROADMAP item 1).
func tornShare(ctx context.Context, r *rig, seed int64) float64 {
	const probes, readers = 5, 2
	sdb, ss := newSharded(r.full, r.prefix, r.w.opts)
	queries := tpchQueries(sdb.Global)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	reads, torn := 0, 0
	for c := 0; c < readers; c++ {
		cl := newClient(ss, r.tol, seed*100+int64(c), r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, qi := range cl.rng.Perm(len(queries)) {
					select {
					case <-stop:
						return
					default:
					}
					res, err := ss.ExecuteCtx(ctx, queries[qi].name, nil, queries[qi].plan)
					matched := false
					for g := 0; err == nil && g <= probes && !matched; g++ {
						matched = cl.ck.quick(res, r.queries[qi].want[g]) == nil
					}
					mu.Lock()
					reads++
					if !matched {
						torn++
					}
					mu.Unlock()
				}
			}
		}()
	}
	for g := 1; g <= probes; g++ {
		time.Sleep(20 * time.Millisecond)
		ingestOnce(ss, sdb, r.batches[g])
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	return ratio(float64(torn), float64(reads))
}

// plainMS serves the same plans unsharded on one MonetDB engine, with the
// sharded path's pass set, for the sharding overhead ratio.
func plainMS(opts serve.Options) *serve.Server {
	passes := mal.DefaultPasses()
	passes.Fusion = false
	opts.Passes = &passes
	return serve.New(monet.NewSequential(), opts)
}
