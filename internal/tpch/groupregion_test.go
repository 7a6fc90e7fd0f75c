package tpch

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/ops"
)

// chainedOnly is Ocelot-CPU refusing every grouped region, so the executor
// runs the region's members: the chained groupings and aggregates.
type chainedOnly struct{ *core.Engine }

func (c chainedOnly) Fused(op *ops.FusedOp) ([]*bat.BAT, error) {
	if len(op.Keys) > 0 {
		return nil, ops.ErrFusedUnsupported
	}
	return c.Engine.Fused(op)
}

// runCounted runs query q on a fresh Ocelot-CPU engine (refusing grouped
// regions when chained is set) and returns the result, the executed plan and
// the kernel launches the run took.
func runCounted(t *testing.T, db *DB, q int, chained bool) (*mal.Result, []*mal.PInstr, int64) {
	t.Helper()
	e := mal.OcelotCPU.Build(mal.ConfigOptions{Threads: 2}).(*core.Engine)
	var o ops.Operators = e
	if chained {
		o = chainedOnly{e}
	}
	s := mal.NewSession(o)
	res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return QueryByNum(q).Plan(s, db) })
	if err != nil {
		t.Fatalf("Q%d: %v", q, err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return res, s.Plan(), e.Device().KernelLaunches()
}

// groupedRegions counts the grouped regions and the unfused group
// instructions of an executed plan.
func groupedRegions(plan []*mal.PInstr) (regions, groups int) {
	for _, in := range plan {
		switch {
		case in.Kind == mal.OpFused && len(in.Fuse.Keys) > 0:
			regions++
		case in.Kind == mal.OpGroup:
			groups++
		}
	}
	return regions, groups
}

// TestGroupedRegionPlans pins where the grouped region fires on the workload.
// Q1's rewritten plan holds exactly one grouped region — both groupings and
// all ten aggregates — and no group instruction; at SF 0.1 the query takes at
// most 45 kernel launches (80 with the chained path). Q3's region is refused
// at run time (its order keys span far more codes than the rule admits) and
// takes exactly the launches of its chained members. Every result equals the
// chained path's byte for byte.
func TestGroupedRegionPlans(t *testing.T) {
	dbs := []*DB{testDB(t)}
	if !testing.Short() {
		dbs = append(dbs, Generate(0.1, 42))
	}
	for _, db := range dbs {
		res, plan, launches := runCounted(t, db, 1, false)
		ref, _, chainLaunches := runCounted(t, db, 1, true)
		if err := res.EqualWithin(ref, 0); err != nil {
			t.Fatalf("SF %g Q1: the grouped region differs from its members: %v", db.SF, err)
		}
		if regions, groups := groupedRegions(plan); regions != 1 || groups != 0 {
			t.Fatalf("SF %g Q1: %d grouped regions and %d group instructions, want 1 and 0", db.SF, regions, groups)
		}
		if db.SF == 0.1 && launches > 45 {
			t.Fatalf("SF 0.1 Q1: %d kernel launches, want at most 45 (chained: %d)", launches, chainLaunches)
		}
		t.Logf("SF %g Q1: %d launches, chained %d", db.SF, launches, chainLaunches)

		res, plan, launches = runCounted(t, db, 3, false)
		ref, _, chainLaunches = runCounted(t, db, 3, true)
		if err := res.EqualWithin(ref, 0); err != nil {
			t.Fatalf("SF %g Q3: the refused region differs from its members: %v", db.SF, err)
		}
		if regions, _ := groupedRegions(plan); regions != 1 || launches != chainLaunches {
			t.Fatalf("SF %g Q3: %d grouped regions taking %d launches, want 1 taking its members' %d", db.SF, regions, launches, chainLaunches)
		}
	}
}
