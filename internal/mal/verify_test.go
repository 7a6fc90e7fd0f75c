// Negative-path verifier tests: hand-built broken plans, each of which the
// verifier must reject with the expected rule name; plus the regression
// test that a verifier failure surfaced through RunQuery carries structured
// pass/fragment/instruction context, and the verify-once-per-template
// contract the bench figures assert.
package mal

import (
	"errors"
	"testing"

	"repro/internal/bat"
	"repro/internal/ops"
)

// vtInstr hand-builds a plan instruction the way Session.add would, without
// going through the fluent API (these tests construct deliberately illegal
// fragments the API cannot express).
func vtInstr(s *Session, kind OpKind, args []*bat.BAT, nret int) *PInstr {
	in := &PInstr{ID: s.nextID, Kind: kind, Module: s.module, Args: args, NgrpRef: -1, NSlot: -1}
	s.nextID++
	for i := 0; i < nret; i++ {
		in.Rets = append(in.Rets, s.newPlaceholder())
	}
	return in
}

func vtRelease(s *Session, b *bat.BAT) *PInstr {
	in := &PInstr{ID: s.nextID, Kind: OpRelease, Module: s.module, Args: []*bat.BAT{b}}
	s.nextID++
	return in
}

func vtSession(t *testing.T, cfg Config) *Session {
	t.Helper()
	s := NewSession(cfg.Build(ConfigOptions{}))
	s.verify = true
	return s
}

func wantRule(t *testing.T, e *VerifyError, rule string) {
	t.Helper()
	if e == nil {
		t.Fatalf("verifier accepted a broken plan, want rule %q", rule)
	}
	if e.Rule != rule {
		t.Fatalf("verifier rejected with rule %q, want %q (error: %v)", e.Rule, rule, e)
	}
}

func TestVerifyRejectsUseAfterRelease(t *testing.T) {
	s := vtSession(t, MS)
	base := bat.NewI32("base", make([]int32, 8))
	sel := vtInstr(s, OpSelect, []*bat.BAT{base, nil}, 1)
	rel := vtRelease(s, sel.Rets[0])
	use := vtInstr(s, OpProject, []*bat.BAT{sel.Rets[0], base}, 1)
	e := s.checkFragment("test", fragment{instrs: []*PInstr{sel, rel, use}}, nil, vAll, false)
	wantRule(t, e, "use-after-release")
	if e.Instr != 2 || e.Op != "leftfetchjoin" {
		t.Fatalf("violation should name the reading instruction, got instr %d (%s)", e.Instr, e.Op)
	}
}

func TestVerifyRejectsDoubleRelease(t *testing.T) {
	s := vtSession(t, MS)
	base := bat.NewI32("base", make([]int32, 8))
	sel := vtInstr(s, OpSelect, []*bat.BAT{base, nil}, 1)
	e := s.checkFragment("test",
		fragment{instrs: []*PInstr{sel, vtRelease(s, sel.Rets[0]), vtRelease(s, sel.Rets[0])}}, nil, vAll, false)
	wantRule(t, e, "double-release")
}

func TestVerifyRejectsMissingSyncAtHostBoundary(t *testing.T) {
	s := vtSession(t, MS)
	base := bat.NewI32("base", make([]int32, 8))
	agg := vtInstr(s, OpAggr, []*bat.BAT{base, nil}, 1)
	agg.Agg = ops.Sum
	// agg.Rets[0] crosses the host boundary (a ScalarF would read it), but
	// no Sync instruction exists in the fragment.
	e := s.checkFragment("test", fragment{instrs: []*PInstr{agg}}, []*bat.BAT{agg.Rets[0]}, vAll, false)
	wantRule(t, e, "sync-before-host-boundary")
	if e.Instr != -1 {
		t.Fatalf("missing sync is a fragment-level violation, got instr %d", e.Instr)
	}
}

func TestVerifyRejectsUnresolvablePin(t *testing.T) {
	// A pin naming a device label the hybrid engine does not have.
	s := vtSession(t, Hybrid)
	base := bat.NewI32("base", make([]int32, 8))
	sel := vtInstr(s, OpSelect, []*bat.BAT{base, nil}, 1)
	sel.Device = "GPU9"
	wantRule(t, s.checkFragment("test", fragment{instrs: []*PInstr{sel}}, nil, vAll, false), "pin-resolvable")

	// Any pin at all on a non-hybrid engine.
	s2 := vtSession(t, MS)
	sel2 := vtInstr(s2, OpSelect, []*bat.BAT{base, nil}, 1)
	sel2.Device = "GPU"
	wantRule(t, s2.checkFragment("test", fragment{instrs: []*PInstr{sel2}}, nil, vAll, false), "pin-resolvable")
}

func TestVerifyRejectsCyclicLaneGraph(t *testing.T) {
	mk := func(dev string) *PInstr {
		return &PInstr{Kind: OpSelect, Device: dev, NgrpRef: -1, NSlot: -1}
	}
	// A forward dependency edge — the cycle the backward-only construction
	// of planGraph makes impossible, hand-built here.
	f := fragment{
		instrs: []*PInstr{mk(""), mk("")},
		deps:   [][]int{{1}, nil},
		laneOf: []string{"", ""},
		lanes:  [][]int{{0, 1}},
	}
	wantRule(t, verifyLaneGraph(f), "lane-acyclic")

	// A node scheduled on a lane other than its pin.
	f = fragment{instrs: []*PInstr{mk("GPU")}, deps: [][]int{nil}, laneOf: []string{"CPU"}, lanes: [][]int{{0}}}
	wantRule(t, verifyLaneGraph(f), "lane-pin-disjoint")

	// A node missing from the lane partition.
	f = fragment{instrs: []*PInstr{mk(""), mk("")}, deps: [][]int{nil, nil}, laneOf: []string{"", ""}, lanes: [][]int{{0}}}
	wantRule(t, verifyLaneGraph(f), "lane-partition")
}

func TestVerifyRejectsMissingRelease(t *testing.T) {
	s := vtSession(t, MS)
	base := bat.NewI32("base", make([]int32, 8))
	sel := vtInstr(s, OpSelect, []*bat.BAT{base, nil}, 1)
	// Final fragment with early release on: the intermediate must be
	// released or be an output; it is neither.
	e := s.checkFragment("release-insert", fragment{instrs: []*PInstr{sel}}, nil, vAll, true)
	wantRule(t, e, "missing-release")
}

func TestVerifyErrorCarriesPassFragmentInstruction(t *testing.T) {
	// A broken plan through the *real* pipeline: RunQuery must surface a
	// structured VerifyError naming the pass, fragment, instruction and
	// rule — the "pass X broke rule Y at instruction Z" contract.
	o := MS.Build(ConfigOptions{})
	base := bat.NewI32("base", make([]int32, 8))
	s := NewSession(o)
	s.SetVerify(true)
	_, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(base, nil, 0, 4, true, true)
		s.Aggr(ops.Sum, sel, nil, -9) // bogus group-count handle
		return s.Result(nil)
	})
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want a *VerifyError, got %T: %v", err, err)
	}
	if ve.Pass != "bind" {
		t.Errorf("pass = %q, want %q (the first stage that can see the bogus handle)", ve.Pass, "bind")
	}
	if ve.Rule != "group-count-handle" {
		t.Errorf("rule = %q, want %q", ve.Rule, "group-count-handle")
	}
	if ve.Frag != 0 || ve.Instr < 0 || ve.Op != "sum" {
		t.Errorf("context = frag %d instr %d op %q, want frag 0, a real instruction index, op sum", ve.Frag, ve.Instr, ve.Op)
	}
}

func TestVerifyOncePerTemplate(t *testing.T) {
	o := OcelotCPU.Build(ConfigOptions{})
	base := bat.NewI32("base", make([]int32, 64))
	plan := func(s *Session) *Result {
		hi := s.Param("hi", 40)
		sel := s.Select(base, nil, 0, hi, true, true)
		return s.Result([]string{"n"}, s.Aggr(ops.Count, sel, nil, 0))
	}

	// A verifying build pre-verifies the sealed template: N replays add
	// zero verifier runs (the property the par/fus bench figures assert).
	s := NewSession(o)
	s.SetVerify(true)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	v0 := VerifyRuns()
	for i := 0; i < 5; i++ {
		if _, err := tpl.Run(o, Params{"hi": float64(10 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := VerifyRuns() - v0; d != 0 {
		t.Fatalf("replays of a seal-verified template ran the verifier %d times, want 0", d)
	}

	// A template sealed by a non-verifying build is verified exactly once,
	// on the first verified replay; the verdict is cached for the rest.
	s2 := NewSession(o)
	s2.SetVerify(false)
	if _, err := RunQuery(s2, plan); err != nil {
		t.Fatal(err)
	}
	tpl2 := s2.Template()
	v1 := VerifyRuns()
	for i := 0; i < 5; i++ {
		if _, err := tpl2.Run(o, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d := VerifyRuns() - v1; d != 1 {
		t.Fatalf("replays of an unverified template ran the verifier %d times, want exactly 1", d)
	}
}

// vtGroupRegion hand-builds the instructions of a two-link grouped region —
// group(k1), group(k2) refining it, a sum and a count over the ids — and runs
// the fusion pass over them, which must collapse all four into one region.
// It returns the session, the rewritten batch, the region and its members.
func vtGroupRegion(t *testing.T) (s *Session, batch []*PInstr, region *PInstr, g1, g2, sum, cnt *PInstr) {
	t.Helper()
	s = vtSession(t, OcelotCPU)
	k1 := bat.NewI32("k1", []int32{0, 1, 0, 1})
	k2 := bat.NewI32("k2", []int32{2, 2, 3, 3})
	v := bat.NewF32("v", []float32{1, 2, 3, 4})
	group := func(col *bat.BAT, prev *PInstr) *PInstr {
		var ids *bat.BAT
		if prev != nil {
			ids = prev.Rets[0]
		}
		g := vtInstr(s, OpGroup, []*bat.BAT{col, ids}, 1)
		g.NSlot = len(s.slots)
		s.slots = append(s.slots, -1)
		if prev != nil {
			g.NgrpRef = prev.NSlot
		}
		return g
	}
	g1 = group(k1, nil)
	g2 = group(k2, g1)
	sum = vtInstr(s, OpAggr, []*bat.BAT{v, g2.Rets[0]}, 1)
	sum.Agg, sum.NgrpRef = ops.Sum, g2.NSlot
	cnt = vtInstr(s, OpAggr, []*bat.BAT{nil, g2.Rets[0]}, 1)
	cnt.Agg, cnt.NgrpRef = ops.Count, g2.NSlot
	batch = s.fusePass([]*PInstr{g1, g2, sum, cnt}, []*bat.BAT{sum.Rets[0], cnt.Rets[0]})
	if len(batch) != 1 || batch[0].Kind != OpFused || len(batch[0].Fuse.Keys) != 2 {
		t.Fatalf("the fusion pass left %d instructions, want one grouped region", len(batch))
	}
	return s, batch, batch[0], g1, g2, sum, cnt
}

// TestVerifyRejectsEscapingGroupRegion: the verifier re-proves a grouped
// region's legality. The pass's own region passes; ids that escape to a
// projection (Q21's shape, where per-group counts are projected back to the
// rows), a link's ids read inside the region by anything but the next link,
// and a link's group count read outside the region must each be rejected.
func TestVerifyRejectsEscapingGroupRegion(t *testing.T) {
	s, batch, _, _, g2, _, _ := vtGroupRegion(t)
	check := func(batch []*PInstr) *VerifyError {
		return s.checkFragment("test", fragment{instrs: batch}, nil, vFuse, false)
	}
	if e := check(batch); e != nil {
		t.Fatalf("the fusion pass's region was rejected: %v", e)
	}

	base := bat.NewF32("w", []float32{5, 6, 7, 8})
	escape := vtInstr(s, OpProject, []*bat.BAT{g2.Rets[0], base}, 1)
	wantRule(t, check(append(batch, escape)), "fused-interior-escape")

	s, batch, _, g1, _, sum, _ := vtGroupRegion(t)
	sum.Args[1] = g1.Rets[0] // the sum reads the first link's ids
	wantRule(t, check(batch), "fused-group-chain")

	s, batch, _, g1, _, _, _ = vtGroupRegion(t)
	outside := vtInstr(s, OpAggr, []*bat.BAT{nil, base}, 1)
	outside.Agg, outside.NgrpRef = ops.Count, g1.NSlot
	wantRule(t, check(append(batch, outside)), "fused-interior-escape")
}
