package mal

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mem"
	"repro/internal/ops"
)

func countKind(plan []*PInstr, kind OpKind) int {
	n := 0
	for _, in := range plan {
		if in.Kind == kind {
			n++
		}
	}
	return n
}

// TestCSEMergesDuplicateExpressions: projecting the same (cand, col) pair
// twice — the repeated Project pattern Q1/Q3/Q10 build through the revenue
// helper — must execute only one leftfetchjoin.
func TestCSEMergesDuplicateExpressions(t *testing.T) {
	k, v, _ := testData()
	s := NewSession(MS.Build(ConfigOptions{}))
	res, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		a := s.Project(sel, v)
		b := s.Project(sel, v) // identical expression
		sum := s.Binop(ops.Add, a, b)
		return s.Result([]string{"sum"}, sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(s.Plan(), OpProject); n != 1 {
		t.Fatalf("CSE left %d leftfetchjoins, want 1", n)
	}
	// v rows at k in 2..4: 20, 30, 40, 60, 70 → doubled.
	want := map[float64]bool{40: true, 60: true, 80: true, 120: true, 140: true}
	for _, row := range res.Canonical() {
		if !want[row[0]] {
			t.Fatalf("CSE changed semantics: row %v", row)
		}
	}
}

// TestCSEDistinguishesParameters: equal operands with different scalar
// parameters must not merge.
func TestCSEDistinguishesParameters(t *testing.T) {
	k, _, _ := testData()
	s := NewSession(MS.Build(ConfigOptions{}))
	var n1, n2 int
	_, err := RunQuery(s, func(s *Session) *Result {
		a := s.Sync(s.Select(k, nil, 2, 4, true, true))
		b := s.Sync(s.Select(k, nil, 2, 4, true, false))
		n1, n2 = a.Len(), b.Len()
		return s.Result(nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	// k = [1,2,3,4,5,2,3]: 2..4 inclusive hits 5 rows, half-open 4.
	if n1 != 5 || n2 != 4 {
		t.Fatalf("selections merged despite differing bounds: %d vs %d", n1, n2)
	}
}

// TestDCEDropsDeadInstructions: work whose result never reaches a plan
// output must not execute; with the pass disabled it must.
func TestDCEDropsDeadInstructions(t *testing.T) {
	k, v, g := testData()
	build := func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		vv := s.Project(sel, v)
		s.Binop(ops.Mul, vv, vv) // dead: result unused
		gg := s.Project(sel, g)
		grp, n := s.Group(gg, nil, 0)
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, vv, grp, n))
	}
	s := NewSession(MS.Build(ConfigOptions{}))
	if _, err := RunQuery(s, build); err != nil {
		t.Fatal(err)
	}
	if n := countKind(s.Plan(), OpBinop); n != 0 {
		t.Fatalf("dead binop executed %d times", n)
	}

	s2 := NewSession(MS.Build(ConfigOptions{}))
	p := DefaultPasses()
	p.DCE = false
	s2.SetPasses(p)
	if _, err := RunQuery(s2, build); err != nil {
		t.Fatal(err)
	}
	if n := countKind(s2.Plan(), OpBinop); n != 1 {
		t.Fatalf("with DCE off the binop must run once, ran %d times", n)
	}
}

// TestSyncAndReleaseInsertion: the rewriter must emit one sync per result
// column and early releases for non-output intermediates, visible in the
// executed plan and the EXPLAIN rendering.
func TestSyncAndReleaseInsertion(t *testing.T) {
	k, v, g := testData()
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	s.EnableTrace()
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	if n := countKind(s.Plan(), OpSync); n != 2 {
		t.Fatalf("%d syncs inserted, want 2 (one per result column)", n)
	}
	if n := countKind(s.Plan(), OpRelease); n == 0 {
		t.Fatal("no early releases inserted")
	}
	expl := s.Explain()
	if !strings.Contains(expl, "ocelot.sync") || !strings.Contains(expl, "ocelot.release") {
		t.Fatalf("EXPLAIN does not show inserted instructions:\n%s", expl)
	}
	if !strings.Contains(expl, "plan wall time") {
		t.Fatalf("EXPLAIN missing plan wall time:\n%s", expl)
	}
	// Instructions run one at a time: one dispatch total, the sum.
	if want := fmt.Sprintf("    dispatch: %v summed\n", s.OpTime().Round(time.Microsecond)); !strings.Contains(expl, want) {
		t.Fatalf("EXPLAIN's dispatch line is not %q:\n%s", want, expl)
	}
	before := s.ExplainBefore()
	if strings.Contains(before, ".sync") || strings.Contains(before, ".release") {
		t.Fatalf("before-rewriting plan already contains rewriter output:\n%s", before)
	}
	if !strings.Contains(before, "algebra.select") {
		t.Fatalf("before-rewriting plan missing built instructions:\n%s", before)
	}
}

// TestEarlyReleaseLowersPeakFootprint: the same chain of wide intermediates
// must reach a lower device-memory high-water mark with last-use releases
// than with end-of-plan release only.
func TestEarlyReleaseLowersPeakFootprint(t *testing.T) {
	const n = 1 << 18
	vals := mem.AllocF32(n)
	for i := range vals {
		vals[i] = float32(i % 997)
	}
	col := bat.NewF32("wide", vals)

	peak := func(early bool) int64 {
		o := OcelotGPU.Build(ConfigOptions{GPUMemory: 256 << 20})
		s := NewSession(o)
		p := DefaultPasses()
		p.EarlyRelease = early
		// Fusion would collapse the whole chain into one instruction with no
		// intermediates at all; this test isolates the release pass.
		p.Fusion = false
		s.SetPasses(p)
		_, err := RunQuery(s, func(s *Session) *Result {
			cur := s.BinopConst(ops.Add, col, 1, false)
			for i := 0; i < 6; i++ {
				cur = s.BinopConst(ops.Add, cur, 1, false)
			}
			return s.Result([]string{"v"}, s.Aggr(ops.Sum, cur, nil, 0))
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := o.(*core.Engine)
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		return eng.Device().PeakAllocated()
	}

	with := peak(true)
	without := peak(false)
	if with >= without {
		t.Fatalf("early release did not lower peak footprint: %d >= %d", with, without)
	}
	t.Logf("peak device bytes: early-release %d vs end-of-plan %d", with, without)
}

// TestPlanPlacementPinsAndMatchesRecorded: under the hybrid configuration
// every compute instruction must carry a plan-level device pin, and the
// engine's recorded placements must agree with the pins instruction for
// instruction.
func TestPlanPlacementPinsAndMatchesRecorded(t *testing.T) {
	const n = 200_000
	raw := mem.AllocI32(n)
	for i := range raw {
		raw[i] = int32(i % 1000)
	}
	col := bat.NewI32("c", raw)
	grp := mem.AllocI32(n)
	for i := range grp {
		grp[i] = int32(i % 7)
	}
	gcol := bat.NewI32("g", grp)

	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)
	s := NewSession(o)
	_, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(col, nil, 100, 799, true, true)
		vv := s.Project(sel, col)
		gg := s.Project(sel, gcol)
		grp, ng := s.Group(gg, nil, 0)
		sum := s.Aggr(ops.Sum, vv, grp, ng)
		keys := s.Aggr(ops.Min, gg, grp, ng)
		return s.Result([]string{"g", "sum"}, keys, sum)
	})
	if err != nil {
		t.Fatal(err)
	}

	pinned := map[string]map[string]int{}
	for _, in := range s.Plan() {
		if !in.computes() {
			continue
		}
		if in.Device == "" {
			t.Fatalf("instruction %s has no plan-level placement pin", in.OpName())
		}
		m := pinned[in.placeKey()]
		if m == nil {
			m = map[string]int{}
			pinned[in.placeKey()] = m
		}
		m[in.Device]++
	}
	recorded := h.Placements()
	for op, m := range pinned {
		for dev, cnt := range m {
			if recorded[op][dev] != cnt {
				t.Fatalf("placement mismatch for %s on %s: plan pinned %d, engine recorded %d (%v vs %v)",
					op, dev, cnt, recorded[op][dev], pinned, recorded)
			}
		}
	}
	for op, m := range recorded {
		for dev, cnt := range m {
			if pinned[op][dev] != cnt {
				t.Fatalf("engine ran %s on %s %d times beyond the plan pins (%v vs %v)",
					op, dev, cnt, pinned, recorded)
			}
		}
	}
}

// TestGroupCountHandleAcrossFlushBoundary: the opaque group-count handle
// must survive a mid-plan scalar extraction (the q11/q15 pattern) and
// resolve when a later fragment consumes it.
func TestGroupCountHandleAcrossFlushBoundary(t *testing.T) {
	k, v, g := testData()
	for _, cfg := range AllConfigs() {
		s := NewSession(cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20}))
		res, err := RunQuery(s, func(s *Session) *Result {
			sel := s.Select(k, nil, 2, 4, true, true)
			vv := s.Project(sel, v)
			gg := s.Project(sel, g)
			grp, n := s.Group(gg, nil, 0)
			total := s.ScalarF(s.Aggr(ops.Sum, vv, nil, 0)) // flush boundary
			if total != 220 {
				t.Fatalf("%v: mid-plan scalar = %v, want 220", cfg, total)
			}
			return s.Result([]string{"sum"}, s.Aggr(ops.Sum, vv, grp, n))
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		can := res.Canonical()
		if len(can) != 2 || can[0][0]+can[1][0] != 220 {
			t.Fatalf("%v: grouped sums = %v", cfg, can)
		}
	}
}

// TestTimingLabelHonesty: eager engines report execution time, lazy ones
// enqueue time, and the label says which.
func TestTimingLabelHonesty(t *testing.T) {
	if got := NewSession(MS.Build(ConfigOptions{})).TimingLabel(); got != "t_exec" {
		t.Fatalf("MS timing label = %q", got)
	}
	if got := NewSession(OcelotGPU.Build(ConfigOptions{GPUMemory: 32 << 20})).TimingLabel(); got != "t_enqueue" {
		t.Fatalf("GPU timing label = %q", got)
	}
}

// TestPlanWallMeasured: the end-to-end wall time must be recorded across
// the final finish and be at least the sum-free sanity bound of zero.
func TestPlanWallMeasured(t *testing.T) {
	k, v, g := testData()
	s := NewSession(OcelotGPU.Build(ConfigOptions{GPUMemory: 64 << 20}))
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	if s.PlanWall() <= 0 {
		t.Fatalf("plan wall time not measured: %v", s.PlanWall())
	}
}

// TestModuleAccessors: the explicit Module() accessor replaces the old
// engine-name substring matching.
func TestModuleAccessors(t *testing.T) {
	want := map[Config]string{MS: "algebra", MP: "batmat", OcelotCPU: "ocelot", OcelotGPU: "ocelot"}
	for cfg, mod := range want {
		if got := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 32 << 20}).Module(); got != mod {
			t.Fatalf("%v module = %q, want %q", cfg, got, mod)
		}
	}
	if got := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20}).Module(); got != "ocelot" {
		t.Fatalf("hybrid module = %q", got)
	}
}

// TestPlacementPinsOverDeviceSet: on the hybrid engine (CPU + GPU) the
// placement pass must pin every compute instruction to a device label, and
// the engine must record exactly those placements.
func TestPlacementPinsOverDeviceSet(t *testing.T) {
	const n = 1 << 20
	mk := func(name string, seed int32) *bat.BAT {
		raw := mem.AllocI32(n)
		for i := range raw {
			raw[i] = (int32(i)*seed + 17) % 1000
		}
		return bat.NewI32(name, raw)
	}
	a, b := mk("a", 3), mk("b", 7)

	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)
	labels := map[string]bool{}
	for _, d := range h.Devices() {
		labels[d.Label] = true
	}
	if len(labels) != 2 {
		t.Fatalf("expected 2 devices, got %v", labels)
	}

	// Two independent heavy chains, combined only at the cheap final binop.
	s := NewSession(o)
	_, err := RunQuery(s, func(s *Session) *Result {
		s1 := s.Select(a, nil, 100, 899, true, true)
		sumA := s.Aggr(ops.Sum, s.Project(s1, a), nil, 0)
		s2 := s.Select(b, nil, 100, 899, true, true)
		sumB := s.Aggr(ops.Sum, s.Project(s2, b), nil, 0)
		return s.Result([]string{"t"}, s.Binop(ops.Add, sumA, sumB))
	})
	if err != nil {
		t.Fatal(err)
	}

	pinned := map[string]map[string]int{}
	for _, in := range s.Plan() {
		if !in.computes() {
			continue
		}
		if in.Device == "" {
			t.Fatalf("instruction %s has no plan-level placement pin", in.OpName())
		}
		if !labels[in.Device] {
			t.Fatalf("instruction %s pinned to unknown device %q", in.OpName(), in.Device)
		}
		m := pinned[in.placeKey()]
		if m == nil {
			m = map[string]int{}
			pinned[in.placeKey()] = m
		}
		m[in.Device]++
	}
	recorded := h.Placements()
	for op, m := range pinned {
		for dev, cnt := range m {
			if recorded[op][dev] != cnt {
				t.Fatalf("placement mismatch for %s on %s: plan pinned %d, engine recorded %d (%v vs %v)",
					op, dev, cnt, recorded[op][dev], pinned, recorded)
			}
		}
	}
}
