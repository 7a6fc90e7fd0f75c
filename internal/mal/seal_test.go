package mal

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/ops"
)

// bigTestData builds columns large enough that the hybrid placement pass
// actually weighs devices against each other (tiny inputs pin everything to
// the CPU and the seal-time re-placement has nothing to move).
func bigTestData(n int) (k *bat.BAT, v *bat.BAT, g *bat.BAT) {
	ks, vs, gs := mem.AllocI32(n), mem.AllocF32(n), mem.AllocI32(n)
	for i := 0; i < n; i++ {
		ks[i] = int32(i % 1000)
		vs[i] = float32(i%97) * 0.5
		gs[i] = int32(i % 8)
	}
	return bat.NewI32("k", ks), bat.NewF32("v", vs), bat.NewI32("g", gs)
}

// pinsOf collects the placement pin of every compute instruction by ID.
func pinsOf(frags []fragment) map[int]string {
	pins := map[int]string{}
	for _, f := range frags {
		for _, in := range f.instrs {
			if in.computes() {
				pins[in.ID] = in.Device
			}
		}
	}
	return pins
}

// CheckSeal runs plan cold on the hybrid engine o, seals it and checks the
// seal contract: the sealed pins are what place returns when handed the cold
// run's actual cardinalities, and the cold result, the first replay and the
// tenth replay agree with each other and with ref (Ocelot-CPU's answer)
// within tol. It reports whether sealing moved a pin off the estimate-only
// placement. Exported for seal_queries_test.go, which lives in package
// mal_test so that it may import the TPC-H queries.
func CheckSeal(t *testing.T, what string, o ops.Operators, plan func(*Session) *Result, ref *Result, tol float64) (moved bool) {
	t.Helper()
	s := NewSession(o)
	cold, err := RunQuery(s, plan)
	if err != nil {
		t.Fatalf("%s: cold run: %v", what, err)
	}
	estimated := pinsOf(s.tpl.frags)
	observed := map[int]string{}
	s.place(s.Plan(), syncArgs(s.Plan()), func(in *PInstr, label string) { observed[in.ID] = label })

	tpl := s.Template()
	if tpl.sealErr != nil {
		t.Fatalf("%s: seal: %v", what, tpl.sealErr)
	}
	sealed := pinsOf(tpl.frags)
	if !reflect.DeepEqual(sealed, observed) {
		t.Fatalf("%s: sealed pins %v, place with observed sizes chose %v", what, sealed, observed)
	}

	agree := func(leg string, res *Result) {
		t.Helper()
		for _, want := range []*Result{cold, ref} {
			if err := res.EqualWithin(want, tol); err != nil {
				t.Fatalf("%s: %s (tolerance %g): %v", what, leg, tol, err)
			}
		}
	}
	agree("cold run against Ocelot-CPU", cold)
	for replay := 1; replay <= 10; replay++ {
		res, err := tpl.Run(o, nil)
		if err != nil {
			t.Fatalf("%s: replay %d: %v", what, replay, err)
		}
		if replay == 1 || replay == 10 {
			agree(fmt.Sprintf("replay %d", replay), res)
		}
	}
	return !reflect.DeepEqual(sealed, estimated)
}

// CheckConstantEstimates is the fixed-constant regression gate of PR 9: over
// columns without statistics, before anything was observed, every selection
// of the plan is priced at the historical /3 guess per filter — so plans
// without statistics pin as they always did. It returns how many selections
// it checked.
func CheckConstantEstimates(t *testing.T, what string, o ops.Operators, plan func(*Session) *Result) (checked int) {
	t.Helper()
	s := NewSession(o)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	// A replay session over the same IR has produced nothing yet, so its
	// estimator prices from the model alone.
	fresh, err := s.Template().newExec(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := fresh.newEstimator()
	for _, f := range s.tpl.frags {
		for _, in := range f.instrs {
			var want float64
			switch {
			case in.Kind == OpSelect && in.Args[1] == nil && !s.tpl.isPH[in.Args[0]]:
				want = float64(in.Args[0].Len()) / 3
			case in.Kind == OpFused && len(in.Fuse.Filters) > 0 && !in.Fuse.HasAgg && !s.tpl.isPH[in.Fuse.Filters[0].Col]:
				want = float64(in.Fuse.Filters[0].Col.Len())
				for range in.Fuse.Filters {
					want /= 3
				}
			default:
				continue
			}
			if got, _ := e.model(in); got[0] != want {
				t.Fatalf("%s: %s over a stats-free column estimated at %v rows, the constant model says %v", what, in.OpName(), got[0], want)
			}
			checked++
		}
	}
	return checked
}

// CheckFragmentGraphs seals plan on o and checks, fragment by fragment, that
// the stored edges and lanes are what a fresh derivation from the sealed
// instructions yields, and that the verifier's lane rule reads the stored
// graph: a hand-corrupted edge must fail it.
func CheckFragmentGraphs(t *testing.T, what string, o ops.Operators, plan func(*Session) *Result) {
	t.Helper()
	s := NewSession(o)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	tpl := s.Template()
	for fi, f := range tpl.frags {
		if fresh := s.planGraph(f.instrs); !reflect.DeepEqual(f, fresh) {
			t.Fatalf("%s frag %d: stored graph\n%+v\ndiffers from a fresh derivation\n%+v", what, fi, f, fresh)
		}
	}
	check, err := tpl.newExec(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.verifyTemplate(); err != nil {
		t.Fatalf("%s: sealed template fails verification: %v", what, err)
	}
	last := tpl.frags[len(tpl.frags)-1]
	kept := last.deps[0]
	last.deps[0] = []int{len(last.instrs) - 1} // instruction 0 waits for the last one
	ve, _ := check.verifyTemplate().(*VerifyError)
	last.deps[0] = kept
	wantRule(t, ve, "lane-acyclic")
}

// TestEstimatesUnchangedWithoutStatsOrFeedback is the fixed-constant gate on
// the package's own toy plan (seal_queries_test.go runs it over the TPC-H
// queries).
func TestEstimatesUnchangedWithoutStatsOrFeedback(t *testing.T) {
	k, v, g := bigTestData(1 << 16)
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20, GPUs: 2})
	if CheckConstantEstimates(t, "miniPlan", o, miniPlan(k, v, g)) == 0 {
		t.Fatal("the toy plan has no selection over a base column; the gate lost its teeth")
	}
}

// TestStatsSteerSelectEstimate: with statistics on the selected column, the
// placement estimate of a selective filter must track the statistics'
// selectivity instead of the /3 constant.
func TestStatsSteerSelectEstimate(t *testing.T) {
	k, v, g := bigTestData(1 << 16)
	if k.Stats = bat.ComputeStats(k, bat.StatsBins); k.Stats == nil {
		t.Fatal("ComputeStats returned nil for an I32 column")
	}
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20, GPUs: 2})
	s := NewSession(o)
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Template().newExec(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	constant := float64(k.Len()) / 3
	for _, in := range s.tpl.frags[0].instrs {
		if in.Kind != OpSelect && in.Kind != OpFused {
			continue
		}
		// miniPlan selects k in [2,4]: 3 of 1000 distinct values.
		if got, _ := fresh.newEstimator().model(in); got[0] >= constant/10 {
			t.Fatalf("stats-informed %s estimate %v did not move off the /3 constant %v", in.OpName(), got[0], constant)
		}
		return
	}
	t.Fatal("no select instruction in the template")
}

// TestWarmFeedbackReplaysQuiet is the steady-state contract: what the cold
// run observed is adopted when the template is sealed, so no replay — not
// even the first — places, re-plans or verifies anything (that none moves a
// pin is TestSealedTemplateIsImmutable's).
func TestWarmFeedbackReplaysQuiet(t *testing.T) {
	k, v, g := bigTestData(1 << 18)
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20, GPUs: 2})
	s := NewSession(o)
	ref, err := RunQuery(s, miniPlan(k, v, g))
	if err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	verifies := VerifyRuns()
	for i := 0; i < 5; i++ {
		res, sess, err := tpl.RunOn(o, nil)
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if sess.Replans() != 0 {
			t.Fatalf("replay %d re-planned %d times", i, sess.Replans())
		}
		if err := res.EqualWithin(ref, 0); err != nil {
			t.Fatalf("replay %d diverged: %v", i, err)
		}
	}
	if d := VerifyRuns() - verifies; d != 0 {
		t.Fatalf("replays of a verified build ran the verifier %d times, want 0", d)
	}
}

// snapshot renders everything of a template that replays read and nothing
// may write: every pin, every stored edge, every lane.
func snapshot(tpl *Template) string {
	var sb strings.Builder
	for _, f := range tpl.frags {
		fmt.Fprintln(&sb, f.deps, f.laneOf, f.lanes)
		for _, in := range f.instrs {
			sb.WriteString(in.Device + ",")
		}
	}
	return sb.String()
}

// TestSealedTemplateIsImmutable: eight goroutines replay one multi-lane
// hybrid template with different parameters while a ninth keeps reading
// every pin, edge and lane. What it reads never changes, and under -race any
// write to the shared plan is a report.
func TestSealedTemplateIsImmutable(t *testing.T) {
	const clients, replays = 8, 50
	k, v, g := bigTestData(1 << 12)
	plan := func(s *Session) *Result {
		sel := s.Select(k, nil, 2, s.Param("hi", 400), true, true)
		vv, gg := s.Project(sel, v), s.Project(sel, g)
		grp, n := s.Group(gg, nil, 0)
		return s.Result([]string{"g", "sum"}, s.Aggr(ops.Min, gg, grp, n), s.Aggr(ops.Sum, vv, grp, n))
	}
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
	s := NewSession(o)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	if pinAlternating(s, "GPU0", "GPU1") < 2 {
		t.Fatal("plan too small to span two lanes")
	}
	want := snapshot(tpl)

	// One serial reference per parameter value the clients will bind.
	refs := make([]*Result, clients)
	for c := range refs {
		ser, err := tpl.newExec(o, Params{"hi": float64(100 * (c + 1))})
		if err != nil {
			t.Fatal(err)
		}
		ser.SetParallel(false)
		if refs[c], err = ser.runTemplate(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var reader, wg sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			if snapshot(tpl) != want {
				t.Error("a sealed template changed while it was being replayed")
				return
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	lanes := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < replays; i++ {
				res, sess, err := tpl.RunOn(o, Params{"hi": float64(100 * (c + 1))})
				if err != nil {
					t.Errorf("client %d replay %d: %v", c, i, err)
					return
				}
				if err := res.EqualWithin(refs[c], 0); err != nil {
					t.Errorf("client %d replay %d differs from its serial reference: %v", c, i, err)
					return
				}
				lanes[c] += sess.ParallelFragments()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	for c, n := range lanes {
		if n == 0 {
			t.Fatalf("client %d never ran a fragment on two lanes; the stored graph went unused", c)
		}
	}
}

// TestOneLaneRunsInline: serial is the one-lane case of the one instruction
// loop, not a second executor — a replay on a single-device engine, and a
// replay of a multi-lane hybrid template with the scheduler off, start no
// goroutine and report a critical path equal to the summed dispatch time.
func TestOneLaneRunsInline(t *testing.T) {
	k, v, g := testData()
	for _, cfg := range []Config{OcelotCPU, Hybrid} {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
		s := NewSession(o)
		if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
			t.Fatal(err)
		}
		tpl := s.Template()
		if cfg == Hybrid && pinAlternating(s, "GPU0", "GPU1") < 2 {
			t.Fatal("plan too small to span two lanes")
		}
		replay := func() *Session {
			sess, err := tpl.newExec(o, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess.SetParallel(cfg != Hybrid) // the hybrid template has two lanes and is told not to use them
			if _, err := sess.runTemplate(); err != nil {
				t.Fatal(err)
			}
			return sess
		}
		replay()                         // warm-up: every pool worker the devices will ever start is parked after this
		before := runtime.NumGoroutine() // earlier tests' goroutines may still exit; none may appear
		for i := 0; i < 20; i++ {
			sess := replay()
			if sess.ParallelFragments() != 0 {
				t.Fatalf("%v: inline replay counted %d parallel fragments", cfg, sess.ParallelFragments())
			}
			if cp, sum := sess.CriticalPath(), sess.OpTime(); cp != sum {
				t.Fatalf("%v: inline critical path %v != summed dispatch %v", cfg, cp, sum)
			}
		}
		if after := goroutinesSettle(before, 5*time.Second); after > before {
			t.Fatalf("%v: %d goroutines before 20 inline replays, still %d after five seconds", cfg, before, after)
		}
	}
}

// goroutinesSettle waits, for at most bound, until no more than want
// goroutines run, and returns the last count it saw. A count taken at one
// instant can sit above where the process settles with nothing wrong: a pool
// worker retires after two idle seconds and a later launch starts one again,
// and a command run off the pool exits just after its event completes. An
// execution that started a goroutine of its own keeps the count up.
func goroutinesSettle(want int, bound time.Duration) int {
	deadline := time.Now().Add(bound)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
