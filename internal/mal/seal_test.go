package mal

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

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
func pinsOf(frags [][]*PInstr) map[int]string {
	pins := map[int]string{}
	for _, f := range frags {
		for _, in := range f {
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

// CheckConstantEstimates is the fixed-constant gate: before anything was
// observed, every selection of the plan over a base column is priced at the
// /3 guess per filter, whatever the column's values. It returns how many
// selections it checked.
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
		for _, in := range f {
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
				t.Fatalf("%s: cold %s over a base column estimated at %v rows, the constant model says %v", what, in.OpName(), got[0], want)
			}
			checked++
		}
	}
	return checked
}

// TestColdEstimatesAreTheConstantModel is the fixed-constant gate on the
// package's own toy plan (seal_queries_test.go runs it over the TPC-H
// queries).
func TestColdEstimatesAreTheConstantModel(t *testing.T) {
	k, v, g := bigTestData(1 << 16)
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20})
	if CheckConstantEstimates(t, "miniPlan", o, miniPlan(k, v, g)) == 0 {
		t.Fatal("the toy plan has no selection over a base column; the gate lost its teeth")
	}
}

// TestWarmFeedbackReplaysQuiet is the steady-state contract: what the cold
// run observed is adopted when the template is sealed, so no replay — not
// even the first — places or re-plans anything (that none moves a pin is
// TestSealedTemplateIsImmutable's).
func TestWarmFeedbackReplaysQuiet(t *testing.T) {
	k, v, g := bigTestData(1 << 18)
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20})
	s := NewSession(o)
	ref, err := RunQuery(s, miniPlan(k, v, g))
	if err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
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
}

// pinAlternating pins the template's compute instructions round-robin
// across the given device labels, so a replay moves values between the
// devices regardless of what the placement pass chose. Pins only route
// placement — any assignment is legal — which is why a test may rewrite them
// (before the first replay: a template that is being executed is immutable).
func pinAlternating(tpl *Template, labels ...string) {
	pinned := 0
	for _, frag := range tpl.frags {
		for _, in := range frag {
			if in.computes() {
				in.Device = labels[pinned%len(labels)]
				pinned++
			}
		}
	}
}

// snapshot renders everything of a template that replays read and nothing
// may write: every pin.
func snapshot(tpl *Template) string {
	var sb strings.Builder
	for _, f := range tpl.frags {
		for _, in := range f {
			sb.WriteString(in.Device + ",")
		}
	}
	return sb.String()
}

// TestSealedTemplateIsImmutable: eight goroutines replay one hybrid template
// pinned across both devices, with different parameters, while a ninth keeps
// reading every pin. What it reads never changes, and under -race any write
// to the shared plan is a report.
func TestSealedTemplateIsImmutable(t *testing.T) {
	const clients, replays = 8, 50
	k, v, g := bigTestData(1 << 12)
	plan := func(s *Session) *Result {
		sel := s.Select(k, nil, 2, s.Param("hi", 400), true, true)
		vv, gg := s.Project(sel, v), s.Project(sel, g)
		grp, n := s.Group(gg, nil, 0)
		return s.Result([]string{"g", "sum"}, s.Aggr(ops.Min, gg, grp, n), s.Aggr(ops.Sum, vv, grp, n))
	}
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20})
	s := NewSession(o)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	pinAlternating(tpl, "CPU", "GPU")
	want := snapshot(tpl)

	// One reference per parameter value the clients will bind.
	refs := make([]*Result, clients)
	for c := range refs {
		var err error
		if refs[c], err = tpl.Run(o, Params{"hi": float64(100 * (c + 1))}); err != nil {
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
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < replays; i++ {
				res, err := tpl.Run(o, Params{"hi": float64(100 * (c + 1))})
				if err != nil {
					t.Errorf("client %d replay %d: %v", c, i, err)
					return
				}
				if err := res.EqualWithin(refs[c], 0); err != nil {
					t.Errorf("client %d replay %d differs from its reference: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
}
