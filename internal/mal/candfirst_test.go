// Plan-shape tests of the candidate-first pass (candfirst.go): R1 and R2 on
// toy plans, the cases the pass must leave alone, and which of the 14 TPC-H
// plans it rewrites. This file is in package mal_test because tpch imports
// mal.
package mal_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/mem"
	"repro/internal/ops"
	"repro/internal/tpch"
)

func cfCol(name string, vals ...int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

// cfData is an 8-row fact table (key k, foreign key fk into a 4-row middle
// table) and the middle table's foreign key mfk into a 4-row dimension
// with values dv.
func cfData() (k, fk, mfk, dv *bat.BAT) {
	return cfCol("k", 1, 2, 3, 4, 5, 6, 7, 8), cfCol("fk", 0, 1, 2, 3, 0, 1, 2, 3),
		cfCol("mfk", 3, 2, 1, 0), cfCol("dv", 10, 20, 30, 40)
}

// cfShape is an executed plan, read through the rewriter's aliases.
type cfShape struct {
	s   *mal.Session
	res [][]float64
}

// cfRun runs a plan on MS, whose executed plan is unfused, and checks its
// answer against the same plan with DCE, and so the pass, switched off.
func cfRun(t *testing.T, plan func(*mal.Session) *mal.Result) cfShape {
	t.Helper()
	run := func(dce bool) (*mal.Session, [][]float64) {
		s := mal.NewSession(mal.MS.Build(mal.ConfigOptions{}))
		p := mal.DefaultPasses()
		p.DCE = dce
		s.SetPasses(p)
		res, err := mal.RunQuery(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		return s, res.Canonical()
	}
	// The rewritten run goes last: the plan closures keep its placeholders.
	_, want := run(false)
	s, got := run(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rewritten plan answers %v, the plan as built %v", got, want)
	}
	return cfShape{s, got}
}

// project returns the executed Project of col at positions pos, or nil.
func (p cfShape) project(pos, col *bat.BAT) *mal.PInstr {
	for _, in := range p.s.Plan() {
		if in.Kind == mal.OpProject && p.s.Canon(in.Args[0]) == p.s.Canon(pos) && p.s.Canon(in.Args[1]) == p.s.Canon(col) {
			return in
		}
	}
	return nil
}

// producer returns the executed instruction that produced v, or nil.
func (p cfShape) producer(v *bat.BAT) *mal.PInstr {
	for _, in := range p.s.Plan() {
		if len(in.Rets) > 0 && in.Kind != mal.OpSync && in.Rets[0] == p.s.Canon(v) {
			return in
		}
	}
	return nil
}

// TestCandidateFirstR1: Project(sel, Project(fk, mfk)) becomes
// Project(Project(sel, fk), mfk), and the full-length chain is gone.
func TestCandidateFirstR1(t *testing.T) {
	k, fk, mfk, dv := cfData()
	var sel *bat.BAT
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		sel = s.Select(k, nil, 3, 6, true, true)
		out := s.Project(sel, s.Project(fk, mfk))
		return s.Result([]string{"v"}, s.Project(out, dv))
	})
	if p.project(fk, mfk) != nil {
		t.Fatal("the full-length chain Project(fk, mfk) still runs")
	}
	inner := p.project(sel, fk)
	if inner == nil || p.project(inner.Rets[0], mfk) == nil {
		t.Fatal("no Project(Project(sel, fk), mfk) in the rewritten plan")
	}
	if fmt.Sprint(p.res) != "[[10] [20] [30] [40]]" {
		t.Fatalf("answer %v", p.res)
	}
}

// TestCandidateFirstR2: a selection over a two-gather chain under a
// first-level candidate selects over the chain gathered under the
// candidate, with no candidate, and maps its positions back through it.
func TestCandidateFirstR2(t *testing.T) {
	k, fk, mfk, dv := cfData()
	var sel, pick *bat.BAT
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		sel = s.Select(k, nil, 3, 6, true, true)
		pick = s.Select(s.Project(s.Project(fk, mfk), dv), sel, 25, 45, true, true)
		return s.Result([]string{"k"}, s.Project(pick, k))
	})
	if p.project(fk, mfk) != nil {
		t.Fatal("the full-length chain Project(fk, mfk) still runs")
	}
	back := p.producer(pick)
	if back == nil || back.Kind != mal.OpProject || p.s.Canon(back.Args[1]) != p.s.Canon(sel) {
		t.Fatal("the selection's result is not a map-back through its candidate")
	}
	inner := p.producer(back.Args[0])
	if inner == nil || inner.Kind != mal.OpSelect || inner.Args[1] != nil {
		t.Fatal("the map-back does not read a selection without candidate")
	}
	v := inner.Args[0] // Project(Project(Project(sel, fk), mfk), dv)
	for _, col := range []*bat.BAT{dv, mfk, fk} {
		g := p.producer(v)
		if g == nil || g.Kind != mal.OpProject || p.s.Canon(g.Args[1]) != col {
			t.Fatalf("the inner selection does not read the chain gathered under the candidate (at %s)", col.Name)
		}
		v = g.Args[0]
	}
	if p.s.Canon(v) != p.s.Canon(sel) {
		t.Fatal("the chain the inner selection reads is not gathered under the candidate")
	}
	if fmt.Sprint(p.res) != "[[5] [6]]" {
		t.Fatalf("answer %v", p.res)
	}
}

// TestCandidateFirstMapBackReadsGatheredChain: a chain read through R2's
// map-back is read from the chain already gathered under the candidate
// (Q5's natf), not gathered a second time.
func TestCandidateFirstMapBackReadsGatheredChain(t *testing.T) {
	k, fk, mfk, dv := cfData()
	var out *bat.BAT
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		sel := s.Select(k, nil, 3, 6, true, true)
		chain := s.Project(s.Project(fk, mfk), dv)
		out = s.Project(s.Select(chain, sel, 25, 45, true, true), chain)
		return s.Result([]string{"v"}, out)
	})
	read := p.producer(out)
	inner := p.producer(read.Args[0])
	if inner == nil || inner.Kind != mal.OpSelect || inner.Args[1] != nil || p.s.Canon(read.Args[1]) != p.s.Canon(inner.Args[0]) {
		t.Fatal("the map-back's reader does not read the chain gathered under the candidate")
	}
	if fmt.Sprint(p.res) != "[[30] [40]]" {
		t.Fatalf("answer %v", p.res)
	}
}

// TestCandidateFirstRefinementMovesOneGather: under a refinement (a
// selection that had a candidate) a one-gather chain moves.
func TestCandidateFirstRefinementMovesOneGather(t *testing.T) {
	k, fk, mfk, _ := cfData()
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		ref := s.Select(k, s.Select(k, nil, 2, 8, true, true), 3, 6, true, true)
		pick := s.Select(s.Project(fk, mfk), ref, 1, 2, true, true)
		return s.Result([]string{"k"}, s.Project(pick, k))
	})
	if p.project(fk, mfk) != nil {
		t.Fatal("the one-gather chain under a refinement stays full-length")
	}
}

// TestCandidateFirstOneGatherUnderFirstLevelStays: a one-gather chain
// under a first-level selection is left alone (the Q3 guard).
func TestCandidateFirstOneGatherUnderFirstLevelStays(t *testing.T) {
	k, fk, mfk, _ := cfData()
	var sel, pick *bat.BAT
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		sel = s.Select(k, nil, 3, 6, true, true)
		pick = s.Select(s.Project(fk, mfk), sel, 1, 2, true, true)
		return s.Result([]string{"k"}, s.Project(pick, k))
	})
	chain := p.project(fk, mfk)
	in := p.producer(pick)
	if chain == nil || in == nil || in.Kind != mal.OpSelect || p.s.Canon(in.Args[1]) != p.s.Canon(sel) {
		t.Fatal("the one-gather chain under a first-level selection was rewritten")
	}
}

// TestCandidateFirstUnrestrictedConsumerKeepsChain: a chain one consumer
// reads in full stays whole, and its candidate-restricted reader too.
func TestCandidateFirstUnrestrictedConsumerKeepsChain(t *testing.T) {
	k, fk, mfk, _ := cfData()
	var sel, chain *bat.BAT
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		sel = s.Select(k, nil, 3, 6, true, true)
		chain = s.Project(fk, mfk)
		return s.Result([]string{"part", "all"},
			s.Aggr(ops.Sum, s.Project(sel, chain), nil, 0), s.Aggr(ops.Sum, chain, nil, 0))
	})
	if p.project(fk, mfk) == nil || p.project(sel, chain) == nil || p.project(sel, fk) != nil {
		t.Fatal("a chain with an unrestricted consumer was moved")
	}
}

// TestCandidateFirstNonCandidateLeftOperand: Project(g, Project(mfk, dv))
// over group ids (Q17's Project(g, threshold)) is not reassociated.
func TestCandidateFirstNonCandidateLeftOperand(t *testing.T) {
	_, fk, mfk, dv := cfData()
	p := cfRun(t, func(s *mal.Session) *mal.Result {
		g, _ := s.Group(fk, nil, 0)
		return s.Result([]string{"v"}, s.Project(g, s.Project(mfk, dv)))
	})
	if p.project(mfk, dv) == nil {
		t.Fatal("a Project over group ids was reassociated")
	}
}

// TestCandidateFirstTPCHPlans: which of the 14 plans the pass rewrites —
// those with a chain read only under candidate lists. A plan changed when
// it executes an instruction the fluent API did not build.
func TestCandidateFirstTPCHPlans(t *testing.T) {
	changes := []int{5, 7, 8, 10, 12, 17, 19, 21}
	db := tpch.Generate(0.01, 42)
	for _, q := range tpch.Queries() {
		s := mal.NewSession(mal.MS.Build(mal.ConfigOptions{}))
		if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) }); err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		built, made := map[*mal.PInstr]bool{}, 0
		for _, in := range s.Built() {
			built[in] = true
		}
		for _, in := range s.Plan() {
			if in.Kind != mal.OpSync && in.Kind != mal.OpRelease && !built[in] {
				made++
			}
		}
		if want := slices.Contains(changes, q.Num); (made > 0) != want {
			t.Errorf("Q%d: the pass made %d instructions, want a change %v", q.Num, made, want)
		}
	}
}
