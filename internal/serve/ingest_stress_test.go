package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/tpch"
)

// yieldingOps is an engine whose every Select first yields the processor, so
// that on one P a request still holds its execution slot and its flight while
// other readers arrive — single-flight and batching then meet as they do on
// many cores.
type yieldingOps struct{ ops.Operators }

func (y yieldingOps) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	runtime.Gosched()
	return y.Operators.Select(col, cand, lo, hi, loIncl, hiIncl)
}

// stressRequest is one kind of request the readers issue: a query bound to
// an instance, with its parameters.
type stressRequest struct {
	name   string
	plan   func(db *tpch.DB) func(*mal.Session) *mal.Result
	params mal.Params
}

// stressRequests lists the 14 TPC-H queries and, under one name, a
// parameterised scan at three bounds.
func stressRequests() []stressRequest {
	var out []stressRequest
	for _, q := range tpch.Queries() {
		q := q
		out = append(out, stressRequest{
			name: fmt.Sprintf("Q%d", q.Num),
			plan: func(db *tpch.DB) func(*mal.Session) *mal.Result {
				return func(s *mal.Session) *mal.Result { return q.Plan(s, db) }
			},
		})
	}
	scan := func(db *tpch.DB) func(*mal.Session) *mal.Result {
		return func(s *mal.Session) *mal.Result {
			hi := s.Param("hi", 24)
			sel := s.Select(db.Lineitem.Col("l_quantity"), nil, 1, hi, true, true)
			rev := s.Project(sel, db.Lineitem.Col("l_extendedprice"))
			return s.Result([]string{"rev"}, s.Aggr(ops.Sum, rev, nil, 0))
		}
	}
	for _, hi := range []float64{10, 24, 40} {
		out = append(out, stressRequest{name: "scan", plan: scan, params: mal.Params{"hi": hi}})
	}
	return out
}

// TestShardedIngestStress drives every feature that keeps state across an
// ingest at once: readers issue all 14 queries and a parameterised scan
// through a ShardedServer, some of them cancelling requests, while a writer
// lands several ingests. Every answer must equal the oracle of a generation
// no older than the last ingest completed before the request started;
// single-flight and batching must have fired on the shard servers; no
// scatter may fall back; and each query compiles cold at most once, plus
// once per ingest that changed a table it reads.
func TestShardedIngestStress(t *testing.T) {
	const ingests, readers = 4, 6
	full := tpch.GenerateSkewed(0.005, 42, 0.5)
	gens := make([]*tpch.DB, ingests+1)
	for g := range gens {
		gens[g] = tpch.PrefixDB(full, full.Orders.Rows()*(6+g)/10)
	}
	reqs := stressRequests()
	refEng := mal.MS.Build(engineOpts())
	oracle := make([][]*mal.Result, len(reqs))
	for i, rq := range reqs {
		for _, db := range gens {
			s := mal.NewSession(refEng)
			s.SetPasses(unfusedPasses())
			s.SetParams(rq.params)
			res, err := mal.RunQuery(s, rq.plan(db))
			if err != nil {
				t.Fatalf("%s oracle: %v", rq.name, err)
			}
			oracle[i] = append(oracle[i], res)
		}
	}
	// Which names read a table the ingests change (from each plan's template).
	touched := map[string]bool{}
	for _, rq := range reqs {
		s := mal.NewSession(refEng)
		s.SetParams(rq.params)
		if _, err := mal.RunQuery(s, rq.plan(gens[0])); err != nil {
			t.Fatal(err)
		}
		for _, tab := range s.Template().Tables() {
			touched[rq.name] = touched[rq.name] || slices.Contains(tpch.ShardTables(), tab)
		}
	}

	sdb := tpch.ShardDB(gens[0], 2)
	shardEngs := []ops.Operators{yieldingOps{mal.MS.Build(engineOpts())}, yieldingOps{mal.MS.Build(engineOpts())}}
	ss := NewSharded(mal.MS.Build(engineOpts()), shardEngs, sdb.Catalog(), Options{MaxConcurrent: 1})
	calls := map[string]*atomic.Int64{}
	served := make([]func(*mal.Session) *mal.Result, len(reqs))
	for i, rq := range reqs {
		if calls[rq.name] == nil {
			calls[rq.name] = &atomic.Int64{}
		}
		n, plan := calls[rq.name], rq.plan(sdb.Global)
		served[i] = func(s *mal.Session) *mal.Result { n.Add(1); return plan(s) }
	}
	coalesced := func() (shared, batched int64) {
		for i := 0; i < ss.NShards(); i++ {
			for _, st := range ss.Shard(i).Stats() {
				shared += st.Shared
				batched += st.Batched
			}
		}
		return shared, batched
	}

	nq := len(reqs) - 3 // the queries; the scan's three bounds follow
	queries := make([]int, nq)
	for i := range queries {
		queries[i] = i
	}
	var completed, reads, cancelled atomic.Int64 // ingests returned; answers checked; requests cancelled
	writerDone := make(chan struct{})
	deadline := time.Now().Add(60 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			// Every reader walks the queries in one order, so identical
			// requests meet, then the scan at all three bounds, starting from
			// its own, so scans with different parameters meet.
			order := append(queries[:nq:nq], nq+r%3, nq+(r+1)%3, nq+(r+2)%3)
			for {
				select {
				case <-writerDone:
					if sh, bt := coalesced(); (sh > 0 && bt > 0) || time.Now().After(deadline) {
						return
					}
				default:
				}
				for _, i := range order {
					ctx, cancel := context.WithCancel(context.Background())
					if r%3 == 2 && rng.Intn(3) == 0 {
						time.AfterFunc(time.Duration(rng.Intn(200))*time.Microsecond, cancel)
					}
					from := int(completed.Load())
					res, err := ss.ExecuteCtx(ctx, reqs[i].name, reqs[i].params, served[i])
					ctxErr := ctx.Err()
					cancel()
					if errors.Is(err, context.Canceled) && ctxErr != nil {
						cancelled.Add(1)
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("%s%v: %w", reqs[i].name, reqs[i].params, err)
						return
					}
					matched := false
					for g := from; g <= ingests && !matched; g++ {
						matched = canonEqual(res, oracle[i][g]) == nil
					}
					if !matched {
						errs <- fmt.Errorf("%s%v started after ingest %d: answer matches no generation since", reqs[i].name, reqs[i].params, from)
						return
					}
					reads.Add(1)
				}
			}
		}(r)
	}
	for g := 1; g <= ingests; g++ {
		for reads.Load() < int64(g*readers*4) && len(errs) == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		ss.Ingest(tpch.ShardTables(), func() { sdb.AppendTail(gens[g]) })
		completed.Store(int64(g))
	}
	close(writerDone)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := ss.Stats()
	if st.Fallbacks != 0 {
		t.Fatalf("%d scatters fell back to the coordinator", st.Fallbacks)
	}
	if sh, bt := coalesced(); sh == 0 || bt == 0 {
		t.Fatalf("shard servers shared %d and batched %d requests: coalescing never met an ingest", sh, bt)
	}
	// A query's plan closure runs for its cold compiles and for the
	// coordinator's template builds (degenerate plans): what the coordinator
	// did not build, the cold path compiled.
	coord := ss.Coordinator().Stats()
	var cold int64
	for name, n := range calls {
		c := coord[name]
		compiles := n.Load() - (c.Runs - c.CacheHits - c.Shared)
		bound := int64(1)
		if touched[name] {
			bound += ingests
		}
		if compiles > bound {
			t.Errorf("%s compiled cold %d times, want at most %d", name, compiles, bound)
		}
		cold += compiles
	}
	if cold != st.ColdCompiles {
		t.Fatalf("accounted %d cold compiles, the server counted %d", cold, st.ColdCompiles)
	}
	sh, bt := coalesced()
	t.Logf("%d answers checked, %d cancelled; shards shared %d, batched %d; %d cold compiles, %d recompiles",
		reads.Load(), cancelled.Load(), sh, bt, st.ColdCompiles, st.Recompiles)
}
