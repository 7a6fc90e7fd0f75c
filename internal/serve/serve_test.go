package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/tpch"
)

// allFive is the four paper configurations plus the §7 hybrid.
func allFive() []mal.Config {
	return []mal.Config{mal.MS, mal.MP, mal.OcelotCPU, mal.OcelotGPU, mal.Hybrid}
}

var (
	dbOnce sync.Once
	db     *tpch.DB
)

func testDB() *tpch.DB {
	dbOnce.Do(func() { db = tpch.Generate(0.005, 42) })
	return db
}

func engineOpts() mal.ConfigOptions {
	return mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20}
}

// canonEqual compares two results byte-for-byte after canonicalisation —
// concurrency on the same engine must not perturb results at all.
func canonEqual(a, b *mal.Result) error {
	ca, cb := a.Canonical(), b.Canonical()
	if len(ca) != len(cb) {
		return fmt.Errorf("row counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if len(ca[i]) != len(cb[i]) {
			return fmt.Errorf("row %d widths differ", i)
		}
		for c := range ca[i] {
			if ca[i][c] != cb[i][c] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, c, ca[i][c], cb[i][c])
			}
		}
	}
	return nil
}

// canonEqualFloatTol is canonEqual with a tiny relative tolerance on F32
// columns only: the Ocelot engines aggregate through atomic float adds
// (§4.1.7), so float reduction order — and the last bits of a sum — vary
// run to run even sequentially. Integer and oid columns must still match
// exactly.
func canonEqualFloatTol(a, b *mal.Result) error {
	ca, cb := a.Canonical(), b.Canonical()
	if len(ca) != len(cb) {
		return fmt.Errorf("row counts differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		for c := range ca[i] {
			x, y := ca[i][c], cb[i][c]
			if x == y {
				continue
			}
			if a.Cols[c].T != bat.F32 {
				return fmt.Errorf("row %d col %d (exact): %v vs %v", i, c, x, y)
			}
			if math.Abs(x-y)/(math.Max(math.Abs(x), math.Abs(y))+1e-9) > 1e-5 {
				return fmt.Errorf("row %d col %d (float): %v vs %v", i, c, x, y)
			}
		}
	}
	return nil
}

// comparatorFor probes whether the engine reproduces a query bit-for-bit
// across sequential runs; deterministic engines must stay byte-identical
// under concurrency, the atomically-aggregating ones get the float-only
// tolerance.
func comparatorFor(det bool) func(a, b *mal.Result) error {
	if det {
		return canonEqual
	}
	return canonEqualFloatTol
}

// TestConcurrentSessionsByteIdenticalToSequential runs >=4 concurrent
// sessions over one shared engine per configuration (MS/MP/CPU/GPU/HYB)
// and asserts every concurrent result is byte-identical to the sequential
// execution of the same query on the same engine — up to the engine's own
// serial reproducibility: configurations whose atomic float aggregation
// already varies bit-wise between two *sequential* runs are held to exact
// integer columns plus a 1e-5 float tolerance instead. This is the
// satellite -race test: CI runs this package under the race detector.
func TestConcurrentSessionsByteIdenticalToSequential(t *testing.T) {
	d := testDB()
	// A workload slice crossing selection, projection, grouping, joins,
	// unions and a multi-fragment plan (Q15's mid-plan scalar).
	nums := []int{1, 6, 12, 15}
	if testing.Short() {
		nums = []int{1, 6}
	}
	for _, cfg := range allFive() {
		eng := cfg.Build(engineOpts())
		// Sequential references on the very engine the server will share,
		// run twice to probe whether this engine is bit-reproducible at all
		// (the atomic float aggregation of §4.1.7 is not, even serially).
		refs := map[int]*mal.Result{}
		deterministic := true
		for _, num := range nums {
			q := tpch.QueryByNum(num)
			run := func() *mal.Result {
				res, err := mal.RunQuery(mal.NewSession(eng), func(s *mal.Session) *mal.Result {
					return q.Plan(s, d)
				})
				if err != nil {
					t.Fatalf("%v Q%d sequential: %v", cfg, num, err)
				}
				return res
			}
			refs[num] = run()
			if canonEqual(run(), refs[num]) != nil {
				deterministic = false
			}
		}
		compare := comparatorFor(deterministic)

		sv := New(eng, Options{MaxConcurrent: 4})
		const clients = 4
		var wg sync.WaitGroup
		errs := make(chan error, clients*len(nums))
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				for i := range nums {
					// Stagger which query each worker starts with so
					// different plans genuinely interleave on the engine.
					q := tpch.QueryByNum(nums[(i+worker)%len(nums)])
					res, err := sv.Execute(fmt.Sprintf("Q%d", q.Num), nil, func(s *mal.Session) *mal.Result {
						return q.Plan(s, d)
					})
					if err != nil {
						errs <- fmt.Errorf("%v Q%d concurrent: %w", cfg, q.Num, err)
						return
					}
					if err := compare(res, refs[q.Num]); err != nil {
						errs <- fmt.Errorf("%v Q%d concurrent differs from sequential: %w", cfg, q.Num, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestServeWorkloadAllConfigsAgree is the acceptance check: all 14 TPC-H
// queries, run concurrently through the serve layer (cached plans, 4
// clients), agree across all five configurations.
func TestServeWorkloadAllConfigsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload across five configurations in -short mode")
	}
	d := testDB()
	queries := tpch.Queries()

	// MS sequential reference.
	refEng := mal.MS.Build(engineOpts())
	refs := map[int]*mal.Result{}
	for _, q := range queries {
		q := q
		res, err := mal.RunQuery(mal.NewSession(refEng), func(s *mal.Session) *mal.Result {
			return q.Plan(s, d)
		})
		if err != nil {
			t.Fatalf("Q%d on MS: %v", q.Num, err)
		}
		refs[q.Num] = res
	}

	for _, cfg := range allFive() {
		// NoCoalesce: this test asserts exact cache-hit accounting over
		// concurrent duplicate requests, which single-flight would fold.
		sv := New(cfg.Build(engineOpts()), Options{MaxConcurrent: 4, NoCoalesce: true})
		type job struct {
			num int
			res *mal.Result
			err error
		}
		out := make(chan job, 2*len(queries))
		var wg sync.WaitGroup
		// Two rounds of all 14 queries across 4 workers: round two is all
		// cache hits, still compared against the reference.
		jobs := make(chan tpch.Query, 2*len(queries))
		for round := 0; round < 2; round++ {
			for _, q := range queries {
				jobs <- q
			}
		}
		close(jobs)
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range jobs {
					q := q
					res, err := sv.Execute(fmt.Sprintf("Q%d", q.Num), nil, func(s *mal.Session) *mal.Result {
						return q.Plan(s, d)
					})
					out <- job{q.Num, res, err}
				}
			}()
		}
		wg.Wait()
		close(out)
		for j := range out {
			if j.err != nil {
				t.Fatalf("%v Q%d through serve: %v", cfg, j.num, j.err)
			}
			if err := j.res.EqualWithin(refs[j.num], 2e-3); err != nil {
				t.Fatalf("%v Q%d disagrees with MS: %v", cfg, j.num, err)
			}
		}
		// Concurrent first requests for the same key single-flight through
		// the cache: the waiters replay the winner's template and count as
		// hits, so timing still moves individual counts around; the bulk of
		// round two must in any case be served from the cache.
		hits, misses, size := sv.CacheStats()
		if size != len(queries) || hits+misses != int64(2*len(queries)) || hits < int64(len(queries))/2 {
			t.Fatalf("%v: cache stats %d hits / %d misses / %d templates, want %d templates and >=%d hits",
				cfg, hits, misses, size, len(queries), len(queries)/2)
		}
	}
}

// TestServeStatsAndCacheHits: per-query stats must count runs, rows and
// cache hits.
func TestServeStatsAndCacheHits(t *testing.T) {
	d := testDB()
	sv := New(mal.MS.Build(engineOpts()), Options{MaxConcurrent: 2})
	q := tpch.QueryByNum(6)
	for i := 0; i < 3; i++ {
		if _, err := sv.Execute("Q6", nil, func(s *mal.Session) *mal.Result {
			return q.Plan(s, d)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := sv.Stats()["Q6"]
	if st.Runs != 3 || st.Errors != 0 || st.CacheHits != 2 || st.Rows != 3 {
		t.Fatalf("stats = %+v, want 3 runs, 2 hits, 3 rows", st)
	}
	if sv.String() == "" {
		t.Fatal("stats rendering empty")
	}
	hits, misses, size := sv.CacheStats()
	if hits != 2 || misses != 1 || size != 1 {
		t.Fatalf("cache stats = %d/%d/%d", hits, misses, size)
	}
}

// TestServeNoCacheRebuilds: with the cache disabled every request builds
// its plan.
func TestServeNoCacheRebuilds(t *testing.T) {
	d := testDB()
	sv := New(mal.MS.Build(engineOpts()), Options{MaxConcurrent: 2, NoCache: true})
	q := tpch.QueryByNum(6)
	for i := 0; i < 2; i++ {
		if _, err := sv.Execute("Q6", nil, func(s *mal.Session) *mal.Result {
			return q.Plan(s, d)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := sv.Stats()["Q6"]; st.CacheHits != 0 || st.Runs != 2 {
		t.Fatalf("stats = %+v, want 2 uncached runs", st)
	}
}

// TestAdmissionCapRejectsOverload: with one execution slot and one queue
// slot, a burst must see rejections with ErrOverloaded while admitted
// requests complete; nothing deadlocks.
func TestAdmissionCapRejectsOverload(t *testing.T) {
	// NoCoalesce: the identical burst requests must each hit admission
	// control instead of folding into one in-flight execution.
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 1, MaxQueued: 1, NoCoalesce: true})
	release := make(chan struct{})
	started := make(chan struct{})
	slow := func(s *mal.Session) *mal.Result {
		close(started)
		<-release
		return s.Result(nil)
	}
	fast := func(s *mal.Session) *mal.Result { return s.Result(nil) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sv.Execute("slow", nil, slow); err != nil {
			t.Errorf("slow query failed: %v", err)
		}
	}()
	<-started // the slot is held

	// One request may wait; the rest of the burst must be rejected.
	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sv.Execute("burst", nil, fast)
			results <- err
		}()
	}
	var rejected int
	deadline := time.After(5 * time.Second)
	for i := 0; i < 3; i++ { // at least 3 of 4 must resolve before release
		select {
		case err := <-results:
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("expected ErrOverloaded, got %v", err)
			}
			rejected++
		case <-deadline:
			t.Fatal("admission control did not reject while the slot was held")
		}
	}
	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if rejected < 3 {
		t.Fatalf("only %d rejections", rejected)
	}
	if st := sv.Stats()["burst"]; st.Rejected < 3 || st.Errors != 0 || st.Runs+st.Rejected != 4 {
		t.Fatalf("burst stats = %+v, want >=3 rejections counted apart from runs/errors", st)
	}
}

// TestAdmissionAcceptsBurstWithinCap: a burst no larger than the execution
// cap on an idle server must be admitted in full even with a tiny wait
// queue — only requests that actually have to wait count against MaxQueued.
func TestAdmissionAcceptsBurstWithinCap(t *testing.T) {
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 4, MaxQueued: 1, NoCoalesce: true})
	gate := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			_, err := sv.Execute("burst", nil, func(s *mal.Session) *mal.Result {
				time.Sleep(10 * time.Millisecond) // keep the slots occupied together
				return s.Result(nil)
			})
			errs <- err
		}()
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("burst within the execution cap was rejected: %v", err)
		}
	}
}

// TestNDeviceHybridConcurrentPlacementAccounting: >=4 concurrent serve
// sessions on one shared hybrid engine (CPU + GPU), under the race
// detector in CI. Afterwards the engine's per-device placement
// accounting must be consistent: every recorded device label belongs to
// the device set, and the per-operator totals equal the pinned compute
// instructions the sequential plan executes times the completed runs —
// concurrency must not lose or double-count a placement.
func TestNDeviceHybridConcurrentPlacementAccounting(t *testing.T) {
	db := testDB()
	o := mal.Hybrid.Build(mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)
	labels := map[string]bool{}
	for _, d := range h.Devices() {
		labels[d.Label] = true
	}
	if len(labels) != 2 {
		t.Fatalf("want a two-device engine, got %v", labels)
	}

	// One sequential run (plan cache off — replays keep the same pinned
	// instruction count, but the count is simplest to read off a fresh
	// session) to learn the per-operator pin totals of Q6.
	q := tpch.QueryByNum(6)
	plan := func(s *mal.Session) *mal.Result { return q.Plan(s, db) }
	s := mal.NewSession(o)
	ref, err := mal.RunQuery(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	perOp := map[string]int{}
	for _, in := range s.Plan() {
		if in.Device != "" {
			perOp[in.PlaceKey()]++
		}
	}
	before := h.Placements()

	const sessions, rounds = 6, 4
	sv := New(o, Options{MaxConcurrent: sessions, NoCache: true})
	var wg sync.WaitGroup
	errs := make(chan error, sessions*rounds)
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := sv.Execute("q6", nil, plan)
				if err != nil {
					errs <- err
					return
				}
				errs <- canonEqual(res, ref)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	after := h.Placements()
	for op, m := range after {
		for dev := range m {
			if !labels[dev] {
				t.Fatalf("placement recorded for unknown device %q (op %s)", dev, op)
			}
		}
	}
	for op, want := range perOp {
		got := 0
		for _, n := range after[op] {
			got += n
		}
		for _, n := range before[op] {
			got -= n
		}
		if got != want*sessions*rounds {
			t.Fatalf("op %s: %d placements across %d runs, want %d per run (%v)",
				op, got, sessions*rounds, want, after[op])
		}
	}
}
