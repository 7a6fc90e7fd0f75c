package mal

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/ops"
)

// allFiveConfigs is the four paper configurations plus the §7 hybrid.
func allFiveConfigs() []Config { return []Config{MS, MP, OcelotCPU, OcelotGPU, Hybrid} }

// TestPlanCacheHitSkipsRebuild: the second run of a named query must come
// from the cache — no plan build, no rewriter pass — and agree with the
// first.
func TestPlanCacheHitSkipsRebuild(t *testing.T) {
	k, v, g := testData()
	o := MS.Build(ConfigOptions{})
	c := NewPlanCache()
	passes := DefaultPasses()

	built := 0
	plan := func(s *Session) *Result {
		built++
		return miniPlan(k, v, g)(s)
	}
	first, hit, err := c.Run(o, "mini", nil, passes, plan)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	second, hit, err := c.Run(o, "mini", nil, passes, plan)
	if err != nil || !hit {
		t.Fatalf("second run: hit=%v err=%v", hit, err)
	}
	if built != 1 {
		t.Fatalf("plan function ran %d times, want 1 (cache hit must skip the build)", built)
	}
	if err := second.EqualWithin(first, 0); err != nil {
		t.Fatalf("cached result differs: %v", err)
	}
	if hits, misses, size := c.Stats(); hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache stats = %d/%d/%d, want 1/1/1", hits, misses, size)
	}
}

// TestTemplateReplayAgreesAcrossConfigurations: replaying a sealed template
// must reproduce the building run's result on every configuration,
// including a multi-fragment plan with a mid-plan scalar extraction.
func TestTemplateReplayAgreesAcrossConfigurations(t *testing.T) {
	k, v, g := testData()
	multiFrag := func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		vv := s.Project(sel, v)
		gg := s.Project(sel, g)
		grp, n := s.Group(gg, nil, 0)
		if total := s.ScalarF(s.Aggr(ops.Sum, vv, nil, 0)); total != 220 { // flush boundary
			t.Errorf("mid-plan scalar = %v, want 220", total)
		}
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, vv, grp, n))
	}
	for _, cfg := range allFiveConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20})
		for name, plan := range map[string]func(*Session) *Result{
			"mini": miniPlan(k, v, g), "multifrag": multiFrag,
		} {
			s := NewSession(o)
			ref, err := RunQuery(s, plan)
			if err != nil {
				t.Fatalf("%v %s build: %v", cfg, name, err)
			}
			tpl := s.Template()
			if tpl.Instructions() == 0 {
				t.Fatalf("%v %s: empty template", cfg, name)
			}
			if name == "multifrag" && tpl.Fragments() < 2 {
				t.Fatalf("%v: multi-fragment plan recorded %d fragments", cfg, tpl.Fragments())
			}
			for i := 0; i < 3; i++ {
				got, err := tpl.Run(o, nil)
				if err != nil {
					t.Fatalf("%v %s replay %d: %v", cfg, name, i, err)
				}
				if err := got.EqualWithin(ref, 0); err != nil {
					t.Fatalf("%v %s replay %d differs: %v", cfg, name, i, err)
				}
			}
		}
	}
}

// TestParamRebindFloat: a cached template must re-bind Param-declared
// selection bounds and arithmetic constants per execution, matching a
// fresh build with the same values.
func TestParamRebindFloat(t *testing.T) {
	k, v, _ := testData()
	plan := func(s *Session) *Result {
		hi := s.Param("hi", 4)
		scale := s.Param("scale", 1)
		sel := s.Select(k, nil, 2, hi, true, true)
		vv := s.Project(sel, v)
		scaled := s.BinopConst(ops.Mul, vv, scale, false)
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, scaled, nil, 0))
	}
	o := MS.Build(ConfigOptions{})
	c := NewPlanCache()

	res, hit, err := c.Run(o, "q", nil, DefaultPasses(), plan)
	if err != nil || hit {
		t.Fatalf("capture: hit=%v err=%v", hit, err)
	}
	// k in 2..4 → v 20,30,40,60,70 = 220.
	if got := res.Canonical()[0][0]; got != 220 {
		t.Fatalf("capture sum = %v, want 220", got)
	}

	res, hit, err = c.Run(o, "q", Params{"hi": 3, "scale": 2}, DefaultPasses(), plan)
	if err != nil || !hit {
		t.Fatalf("rebind: hit=%v err=%v", hit, err)
	}
	// k in 2..3 → v 20,30,60,70 = 180, scaled ×2 = 360.
	if got := res.Canonical()[0][0]; got != 360 {
		t.Fatalf("rebound sum = %v, want 360", got)
	}

	// Unbound params keep their capture-time values.
	res, _, err = c.Run(o, "q", Params{"scale": 10}, DefaultPasses(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Canonical()[0][0]; got != 2200 {
		t.Fatalf("partially rebound sum = %v, want 2200", got)
	}
}

// TestForeignNaNScalarFails: a NaN scalar that is not a Param sentinel
// (here a plain math.NaN, as arithmetic that loses the sentinel payload
// would produce) must abort the plan with guidance instead of silently
// baking NaN into the instruction.
func TestForeignNaNScalarFails(t *testing.T) {
	k, _, _ := testData()
	s := NewSession(MS.Build(ConfigOptions{}))
	_, err := RunQuery(s, func(s *Session) *Result {
		s.Select(k, nil, 2, math.NaN(), true, true)
		return s.Result(nil)
	})
	if err == nil || !strings.Contains(err.Error(), "unmodified") {
		t.Fatalf("foreign NaN scalar must abort with guidance, got %v", err)
	}
}

// TestCSEKeepsDistinctParamsApart: two instructions whose scalars coincide
// at capture but bind different parameter names must not CSE-merge —
// re-binding one would silently change the other.
func TestCSEKeepsDistinctParamsApart(t *testing.T) {
	k, v, _ := testData()
	plan := func(s *Session) *Result {
		a := s.Param("a", 4)
		b := s.Param("b", 4)
		s1 := s.Select(k, nil, 2, a, true, true)
		s2 := s.Select(k, nil, 2, b, true, true)
		x := s.Aggr(ops.Sum, s.Project(s1, v), nil, 0)
		y := s.Aggr(ops.Sum, s.Project(s2, v), nil, 0)
		return s.Result([]string{"x", "y"}, x, y)
	}
	o := MS.Build(ConfigOptions{})
	c := NewPlanCache()
	if _, _, err := c.Run(o, "q", nil, DefaultPasses(), plan); err != nil {
		t.Fatal(err)
	}
	res, hit, err := c.Run(o, "q", Params{"a": 3}, DefaultPasses(), plan)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	can := res.Canonical()
	// a=3: v 20,30,60,70 = 180; b stays 4: 220.
	if can[0][0] != 180 || can[0][1] != 220 {
		t.Fatalf("params merged by CSE: got %v, want [180 220]", can[0])
	}
}

// TestConcurrentReplaysShareTemplate: many goroutines replaying one sealed
// template on one shared engine must all observe the reference result (run
// under -race in CI).
func TestConcurrentReplaysShareTemplate(t *testing.T) {
	k, v, g := testData()
	for _, cfg := range []Config{OcelotCPU, Hybrid} {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20})
		s := NewSession(o)
		ref, err := RunQuery(s, miniPlan(k, v, g))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		tpl := s.Template()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := tpl.Run(o, nil)
				if err != nil {
					errs <- err
					return
				}
				errs <- got.EqualWithin(ref, 0)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("%v concurrent replay: %v", cfg, err)
			}
		}
	}
}

// TestUnknownResultColumnTypeAborts: a result column with a tail type the
// result accessors cannot read must surface as a RunQuery error (through
// the abort machinery), not as a raw panic from Canonical later.
func TestUnknownResultColumnTypeAborts(t *testing.T) {
	weird := col("weird", []int32{1, 2, 3})
	weird.T = bat.Type(99)
	s := NewSession(MS.Build(ConfigOptions{}))
	_, err := RunQuery(s, func(s *Session) *Result {
		return s.Result([]string{"w"}, weird)
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported result type") {
		t.Fatalf("unknown column type must abort as an error, got %v", err)
	}
}

// BenchmarkPlanCacheColdVsHit compares building+rewriting+executing a plan
// from scratch against replaying its cached template (the rebind-and-run
// path); the delta is the host-side overhead the cache removes.
func BenchmarkPlanCacheColdVsHit(b *testing.B) {
	k, v, g := testData()
	o := MS.Build(ConfigOptions{})
	plan := miniPlan(k, v, g)

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunQuery(NewSession(o), plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := NewSession(o)
		if _, err := RunQuery(s, plan); err != nil {
			b.Fatal(err)
		}
		tpl := s.Template()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tpl.Run(o, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestUnknownParamNameRejected: binding a name the plan never declared must
// error on both the miss and the hit path instead of silently running with
// capture-time constants.
func TestUnknownParamNameRejected(t *testing.T) {
	k, v, _ := testData()
	plan := func(s *Session) *Result {
		hi := s.Param("hi", 4)
		sel := s.Select(k, nil, 2, hi, true, true)
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, s.Project(sel, v), nil, 0))
	}
	o := MS.Build(ConfigOptions{})
	c := NewPlanCache()
	if _, _, err := c.Run(o, "q", Params{"high": 3}, DefaultPasses(), plan); err == nil ||
		!strings.Contains(err.Error(), `"high"`) {
		t.Fatalf("miss path accepted undeclared parameter: %v", err)
	}
	if _, hit, err := c.Run(o, "q", Params{"hi": 3}, DefaultPasses(), plan); err != nil || !hit {
		t.Fatalf("declared parameter must replay: hit=%v err=%v", hit, err)
	}
	if _, _, err := c.Run(o, "q", Params{"high": 3}, DefaultPasses(), plan); err == nil ||
		!strings.Contains(err.Error(), `"high"`) {
		t.Fatalf("hit path accepted undeclared parameter: %v", err)
	}
}

// TestPlanCacheSingleFlightMissStorm: N concurrent cold requests for the
// same key must run the plan function exactly once; the waiters replay the
// winner's template (counted as hits) and all agree.
func TestPlanCacheSingleFlightMissStorm(t *testing.T) {
	const waiters = 7
	k, v, g := testData()
	o := OcelotCPU.Build(ConfigOptions{Threads: 2})
	c := NewPlanCache()
	passes := DefaultPasses()

	var builds atomic.Int64
	plan := func(s *Session) *Result {
		builds.Add(1)
		// Hold the build open until every follower has registered on the
		// in-flight entry, so none of them can race past to a plain hit.
		for start := time.Now(); c.Coalesced() < waiters; {
			if time.Since(start) > 30*time.Second {
				t.Error("followers never queued behind the build")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return miniPlan(k, v, g)(s)
	}

	var wg sync.WaitGroup
	results := make(chan *Result, waiters+1)
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := c.Run(o, "storm", nil, passes, plan)
			results <- res
			errs <- err
		}()
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("plan function ran %d times under the miss storm, want 1", n)
	}
	var ref *Result
	for res := range results {
		if ref == nil {
			ref = res
			continue
		}
		if err := res.EqualWithin(ref, 0); err != nil {
			t.Fatalf("coalesced results disagree: %v", err)
		}
	}
	hits, misses, size := c.Stats()
	if misses != 1 || hits != waiters || size != 1 {
		t.Fatalf("cache stats %d hits / %d misses / %d templates, want %d/1/1",
			hits, misses, size, waiters)
	}
	if c.Coalesced() != waiters {
		t.Fatalf("coalesced = %d, want %d", c.Coalesced(), waiters)
	}
}
