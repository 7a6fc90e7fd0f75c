package mal

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/ops"
)

// epochTables builds two independent named tables for the staleness tests:
// a catalog publish names the tables that changed, and only templates over
// those go stale.
func epochTables() (ta, tb *bat.Table) {
	ta = bat.NewTable("ta")
	ta.Add("k", bat.NewI32("ta_k", []int32{1, 2, 3, 4, 5}))
	ta.Add("v", bat.NewF32("ta_v", []float32{10, 20, 30, 40, 50}))
	tb = bat.NewTable("tb")
	tb.Add("k", bat.NewI32("tb_k", []int32{2, 4, 6, 8}))
	tb.Add("v", bat.NewF32("tb_v", []float32{1, 2, 3, 4}))
	return
}

// sumPlan sums tab's v over k in [2, 100], resolving the columns when the
// plan builds — as a catalog lookup would — so a rebuild after an append
// reads the appended column set while a replay keeps the BATs it captured.
func sumPlan(tab *bat.Table) func(*Session) *Result {
	return func(s *Session) *Result {
		sel := s.Select(tab.Col("k"), nil, 2, 100, true, true)
		vv := s.Project(sel, tab.Col("v"))
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, vv, nil, 0))
	}
}

func sumOf(t *testing.T, res *Result) float32 {
	t.Helper()
	return res.Cols[0].F32s()[0]
}

// TestTemplateTablesCollected: sealing a template must record the distinct
// named base tables the raw plan read.
func TestTemplateTablesCollected(t *testing.T) {
	ta, tb := epochTables()
	o := MS.Build(ConfigOptions{})
	s := NewSession(o)
	plan := func(s *Session) *Result {
		sel := s.Select(ta.Cols["k"], nil, 2, 4, true, true)
		vv := s.Project(sel, ta.Cols["v"])
		w := s.Project(sel, ta.Cols["v"]) // same table twice: no duplicate
		_ = w
		bsel := s.Select(tb.Cols["k"], nil, 0, 100, true, true)
		bv := s.Project(bsel, tb.Cols["v"])
		return s.Result([]string{"a", "b"},
			s.Aggr(ops.Sum, vv, nil, 0), s.Aggr(ops.Sum, bv, nil, 0))
	}
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatal(err)
	}
	tabs := s.Template().Tables()
	if len(tabs) != 2 || tabs[0] != "ta" || tabs[1] != "tb" {
		t.Fatalf("template tables = %v, want [ta tb]", tabs)
	}

	// A plan over anonymous BATs (no catalog tables) records none.
	k, v, g := testData()
	s2 := NewSession(o)
	if _, err := RunQuery(s2, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	if tabs := s2.Template().Tables(); len(tabs) != 0 {
		t.Fatalf("anonymous plan recorded tables %v, want none", tabs)
	}
}

// TestInvalidateTableScopedStaleness: an append the catalog has not yet
// published is invisible to the cache — the captured template keeps
// replaying the old column set — and publishing the appended table retires
// exactly the templates that read it: the next run rebuilds over the new
// rows while templates over other tables stay warm (hit counters prove
// neither rebuilt nor re-missed).
func TestInvalidateTableScopedStaleness(t *testing.T) {
	ta, tb := epochTables()
	o := MS.Build(ConfigOptions{})
	var vers Catalog
	c := NewPlanCacheFor(&vers, nil)
	passes := DefaultPasses()

	builtA, builtB := 0, 0
	planA := func(s *Session) *Result { builtA++; return sumPlan(ta)(s) }
	planB := func(s *Session) *Result { builtB++; return sumPlan(tb)(s) }

	for name, plan := range map[string]func(*Session) *Result{"qa": planA, "qb": planB} {
		if _, hit, err := c.Run(o, name, nil, passes, plan); err != nil || hit {
			t.Fatalf("%s warmup: hit=%v err=%v", name, hit, err)
		}
		if _, hit, err := c.Run(o, name, nil, passes, plan); err != nil || !hit {
			t.Fatalf("%s re-run: hit=%v err=%v", name, hit, err)
		}
	}
	if builtA != 1 || builtB != 1 {
		t.Fatalf("builds = %d/%d, want 1/1", builtA, builtB)
	}

	delta := bat.NewTable("ta")
	delta.Add("k", bat.NewI32("ta_k", []int32{6}))
	delta.Add("v", bat.NewF32("ta_v", []float32{60}))
	ta.AppendDelta(delta)
	res, hit, err := c.Run(o, "qa", nil, passes, planA)
	if err != nil || !hit || sumOf(t, res) != 140 {
		t.Fatalf("qa before the publish: hit=%v err=%v (want the captured template's 140)", hit, err)
	}

	vers.Publish([]string{"ta"})
	// qa is stale: the next run must rebuild, over the appended rows. qb must
	// still hit.
	res, hit, err = c.Run(o, "qa", nil, passes, planA)
	if err != nil || hit {
		t.Fatalf("qa after the publish: hit=%v err=%v", hit, err)
	}
	if builtA != 2 || sumOf(t, res) != 200 {
		t.Fatalf("qa rebuilt %d times with sum %v, want 2 and 200", builtA, sumOf(t, res))
	}
	if _, hit, err := c.Run(o, "qb", nil, passes, planB); err != nil || !hit {
		t.Fatalf("qb after ta's publish: hit=%v err=%v (must stay warm)", hit, err)
	}
	if builtB != 1 {
		t.Fatalf("qb rebuilt (%d builds): staleness not table-scoped", builtB)
	}
	if hits, misses, size := c.Stats(); hits != 4 || misses != 3 || size != 2 {
		t.Fatalf("cache %d hits / %d misses / %d resident, want 4/3/2", hits, misses, size)
	}

	// The rebuilt qa is warm again at the new version.
	if _, hit, err := c.Run(o, "qa", nil, passes, planA); err != nil || !hit {
		t.Fatalf("qa re-warm: hit=%v err=%v", hit, err)
	}
}

// TestInvalidateTableDuringBuild: a publish that lands while a template is
// building leaves the stored template stale — it is recorded at the version
// its build registered at, so it can never serve a post-publish lookup. Nor
// may a call that arrives after the publish and waits on that build replay
// it: the waiter rebuilds instead.
func TestInvalidateTableDuringBuild(t *testing.T) {
	ta, _ := epochTables()
	o := MS.Build(ConfigOptions{})
	var vers Catalog
	c := NewPlanCacheFor(&vers, nil)
	passes := DefaultPasses()

	built := 0
	plan := func(s *Session) *Result {
		built++
		if built == 1 {
			vers.Publish([]string{"ta"}) // an ingest races the first build
		}
		return sumPlan(ta)(s)
	}
	if _, hit, err := c.Run(o, "qa", nil, passes, plan); err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	// The template was stored, but at the pre-publish version: it must not
	// replay now.
	if _, hit, err := c.Run(o, "qa", nil, passes, plan); err != nil || hit {
		t.Fatalf("post-publish run: hit=%v err=%v (stale template replayed)", hit, err)
	}
	if built != 2 {
		t.Fatalf("builds = %d, want 2", built)
	}
	if _, hit, err := c.Run(o, "qa", nil, passes, plan); err != nil || !hit {
		t.Fatalf("third run: hit=%v err=%v", hit, err)
	}

	// A waiter that arrives after a publish, on a build registered before it.
	release := make(chan struct{})
	blocked := 0
	slow := func(s *Session) *Result {
		blocked++
		if blocked == 1 {
			<-release
		}
		return sumPlan(ta)(s)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Run(o, "qb", nil, passes, slow)
		done <- err
	}()
	building := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.building[cacheKey("qb", o, passes)] != nil
	}
	for !building() {
		runtime.Gosched()
	}
	vers.Publish([]string{"ta"})
	waited := make(chan bool, 1)
	go func() {
		_, hit, err := c.Run(o, "qb", nil, passes, slow)
		if err != nil {
			t.Error(err)
		}
		waited <- hit
	}()
	for c.Coalesced() == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if hit := <-waited; hit || blocked != 2 {
		t.Fatalf("waiter after the publish: hit=%v, builds %d (want a rebuild, not the pre-publish template)", hit, blocked)
	}
}

// TestGuardedBuildRecordsTheVersionItRead: a cache with a guard reads the
// version a build records under the guard, together with the data. A
// publish that lands while the build waits for the guard — after its miss
// registered, before the plan resolved its columns — therefore leaves a
// current template: the build read the published rows, and the next run
// replays it instead of building again.
func TestGuardedBuildRecordsTheVersionItRead(t *testing.T) {
	ta, _ := epochTables()
	o := MS.Build(ConfigOptions{})
	var vers Catalog
	var ingest sync.RWMutex
	c := NewPlanCacheFor(&vers, ingest.RLocker())
	passes := DefaultPasses()
	built := 0
	plan := func(s *Session) *Result { built++; return sumPlan(ta)(s) }

	ingest.Lock() // an ingest is under way
	sums := make(chan float32, 1)
	go func() {
		res, _, err := c.Run(o, "qa", nil, passes, plan)
		if err != nil {
			t.Error(err)
			sums <- 0
			return
		}
		sums <- res.Cols[0].F32s()[0]
	}()
	for {
		c.mu.Lock()
		registered := c.building[cacheKey("qa", o, passes)] != nil
		c.mu.Unlock()
		if registered {
			break
		}
		runtime.Gosched()
	}
	delta := bat.NewTable("ta")
	delta.Add("k", bat.NewI32("ta_k", []int32{6}))
	delta.Add("v", bat.NewF32("ta_v", []float32{60}))
	ta.AppendDelta(delta)
	vers.Publish([]string{"ta"})
	ingest.Unlock()
	if sum := <-sums; sum != 200 {
		t.Fatalf("the build read sum %v, want the appended rows' 200", sum)
	}
	if _, hit, err := c.Run(o, "qa", nil, passes, plan); err != nil || !hit || built != 1 {
		t.Fatalf("after the build: hit=%v err=%v, %d builds (want a replay of the one build)", hit, err, built)
	}
}

// TestInvalidateTableUntouchedCache: publishing a table no resident
// template reads must not disturb anything.
func TestInvalidateTableUntouchedCache(t *testing.T) {
	ta, _ := epochTables()
	o := MS.Build(ConfigOptions{})
	var vers Catalog
	c := NewPlanCacheFor(&vers, nil)
	passes := DefaultPasses()
	if _, hit, err := c.Run(o, "qa", nil, passes, sumPlan(ta)); err != nil || hit {
		t.Fatalf("warmup: hit=%v err=%v", hit, err)
	}
	vers.Publish([]string{"unrelated"})
	if _, hit, err := c.Run(o, "qa", nil, passes, sumPlan(ta)); err != nil || !hit {
		t.Fatalf("after an unrelated publish: hit=%v err=%v", hit, err)
	}
	if _, misses, size := c.Stats(); misses != 1 || size != 1 {
		t.Fatalf("cache %d misses / %d resident after an unrelated publish, want 1/1", misses, size)
	}
}
