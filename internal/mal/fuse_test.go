package mal

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/hybrid"
	"repro/internal/mem"
	"repro/internal/ops"
)

// fuseChain is the canonical fusible shape: a selection chain, projections
// through it, arithmetic, and a terminal scalar sum — TPC-H Q6's skeleton.
func fuseChain(k, a, b *bat.BAT) func(*Session) *Result {
	return func(s *Session) *Result {
		s1 := s.Select(k, nil, 2, 6, true, true)
		pa := s.Project(s1, a)
		pb := s.Project(s1, b)
		rev := s.Binop(ops.Mul, pa, pb)
		return s.Result([]string{"revenue"}, s.Aggr(ops.Sum, rev, nil, 0))
	}
}

// TestFusionCollapsesChain: on a fusion-capable engine the whole
// select→project→project→binop→sum chain must execute as ONE fused
// instruction — no member operator, no intermediate — and agree exactly
// with the MonetDB baseline.
func TestFusionCollapsesChain(t *testing.T) {
	k, a, _ := testData()
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})

	ref, err := RunQuery(NewSession(MS.Build(ConfigOptions{})), fuseChain(k, a, b))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{OcelotCPU, OcelotGPU, Hybrid} {
		s := NewSession(cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20}))
		res, err := RunQuery(s, fuseChain(k, a, b))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if err := res.EqualWithin(ref, 1e-6); err != nil {
			t.Fatalf("%v: fused result differs: %v", cfg, err)
		}
		if n := countKind(s.Plan(), OpFused); n != 1 {
			t.Fatalf("%v: %d fused instructions, want 1", cfg, n)
		}
		for _, kind := range []OpKind{OpSelect, OpProject, OpBinop, OpAggr} {
			if n := countKind(s.Plan(), kind); n != 0 {
				t.Fatalf("%v: %d unfused %d-kind members survived", cfg, n, kind)
			}
		}
		var fused *PInstr
		for _, in := range s.Plan() {
			if in.Kind == OpFused {
				fused = in
			}
		}
		if len(fused.Sub) != 5 {
			t.Fatalf("%v: region has %d members, want 5", cfg, len(fused.Sub))
		}
		if f := fused.Fuse; len(f.Filters) != 1 || !f.HasAgg || f.Agg != ops.Sum || f.Cand != nil {
			t.Fatalf("%v: unexpected region shape %+v", cfg, fused.Fuse)
		}
	}
}

// TestFusionEmptySelectionSum: a selection that keeps no row still sums to
// MonetDB's one-row zero, whether the chain runs fused or as its members.
func TestFusionEmptySelectionSum(t *testing.T) {
	_, a, _ := testData()
	k := col("k", []int32{10, 20, 30, 40, 50, 20, 30}) // nothing in fuseChain's [2, 6]
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})
	ref, err := RunQuery(NewSession(MS.Build(ConfigOptions{})), fuseChain(k, a, b))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{OcelotCPU, OcelotGPU, Hybrid} {
		for _, fusion := range []bool{true, false} {
			s := NewSession(cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20}))
			p := DefaultPasses()
			p.Fusion = fusion
			s.SetPasses(p)
			res, err := RunQuery(s, fuseChain(k, a, b))
			if err != nil {
				t.Fatalf("%v fusion=%v: %v", cfg, fusion, err)
			}
			if err := res.EqualWithin(ref, 0); err != nil {
				t.Fatalf("%v fusion=%v: %v", cfg, fusion, err)
			}
		}
	}
}

// TestFusionSkipsNonCapableEngines: the MonetDB baselines do not implement
// ops.FusedOperators, so their plans must keep the unfused member chain.
func TestFusionSkipsNonCapableEngines(t *testing.T) {
	k, a, _ := testData()
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})
	for _, cfg := range []Config{MS, MP} {
		s := NewSession(cfg.Build(ConfigOptions{Threads: 2}))
		if _, err := RunQuery(s, fuseChain(k, a, b)); err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if n := countKind(s.Plan(), OpFused); n != 0 {
			t.Fatalf("%v: %d fused instructions on a non-capable engine", cfg, n)
		}
		if n := countKind(s.Plan(), OpSelect); n != 1 {
			t.Fatalf("%v: select missing from the unfused plan", cfg)
		}
	}
}

// TestFusionOffByPasses: the pass toggle must keep the plan unfused.
func TestFusionOffByPasses(t *testing.T) {
	k, a, _ := testData()
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	p := DefaultPasses()
	p.Fusion = false
	s.SetPasses(p)
	if _, err := RunQuery(s, fuseChain(k, a, b)); err != nil {
		t.Fatal(err)
	}
	if n := countKind(s.Plan(), OpFused); n != 0 {
		t.Fatalf("fusion disabled but %d fused instructions executed", n)
	}
}

// TestFusionMultiConsumerNotAbsorbed: a value consumed outside a region
// (here: a projection that is also a result column) must not be absorbed
// into its consumer's region — the arithmetic sees it as an external,
// already-aligned input and stays unfused (a one-instruction region fuses
// nothing), while the projection may still root its own select+project
// region.
func TestFusionMultiConsumerNotAbsorbed(t *testing.T) {
	k, a, _ := testData()
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	res, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		va := s.Project(sel, a)                        // escapes: result column
		doubled := s.BinopConst(ops.Mul, va, 2, false) // cannot absorb va
		return s.Result([]string{"v", "v2"}, va, doubled)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The binopconst could not grow a region (its only operand escapes), so
	// it must execute unfused; va's own select+project region may fuse.
	if n := countKind(s.Plan(), OpBinopConst); n != 1 {
		t.Fatalf("arithmetic over an escaping value did not stay unfused (%d binopconst left)", n)
	}
	for _, in := range s.Plan() {
		if in.Kind != OpFused {
			continue
		}
		for _, m := range in.Sub {
			if m.Kind == OpBinopConst {
				t.Fatalf("region absorbed the consumer of an escaping value")
			}
		}
	}
	can := res.Canonical()
	if len(can) != 5 {
		t.Fatalf("%d result rows, want 5", len(can))
	}
	for _, row := range can {
		if row[1] != 2*row[0] {
			t.Fatalf("fused region over an escaping input computed %v", row)
		}
	}
}

// TestFusionHostBoundaryNotFused: a mid-plan Sync is a host boundary; values
// crossing it must stay materialised, and instructions executed before the
// boundary must not be pulled into a later region.
func TestFusionHostBoundaryNotFused(t *testing.T) {
	k, a, _ := testData()
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	var synced int
	_, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		va := s.Project(sel, a)
		s.Sync(va) // host boundary: va is read by host code
		synced = va.Len()
		scaled := s.BinopConst(ops.Mul, va, 3, false)
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, scaled, nil, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if synced != 5 {
		t.Fatalf("synced mid-plan value has %d rows, want 5", synced)
	}
	if n := countKind(s.Plan(), OpProject); n != 1 {
		t.Fatalf("projection before the host boundary disappeared (%d left)", n)
	}
	if n := countKind(s.Plan(), OpSelect); n != 1 {
		t.Fatalf("selection before the host boundary disappeared (%d left)", n)
	}
	// The remainder (binopconst + sum over the synced value) still fuses.
	if n := countKind(s.Plan(), OpFused); n != 1 {
		t.Fatalf("post-boundary region did not fuse (%d fused)", n)
	}
}

// TestFusionNonNumericNotFused: chains over non-numeric (OID) columns must
// not fuse — the fused expression is arithmetic over four-byte numerics.
func TestFusionNonNumericNotFused(t *testing.T) {
	k, _, _ := testData()
	ids := bat.NewOID("ids", []uint32{10, 20, 30, 40, 50, 60, 70})
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	_, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		pos := s.Project(sel, ids) // OID projection: not fusible
		return s.Result([]string{"pos"}, pos)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := countKind(s.Plan(), OpFused); n != 0 {
		t.Fatalf("non-numeric chain fused (%d fused instructions)", n)
	}
}

// TestFusionParamNotFused: members carrying re-bindable parameters must stay
// unfused — a fused descriptor bakes its scalars in, which a cached template
// could not re-bind.
func TestFusionParamNotFused(t *testing.T) {
	k, a, _ := testData()
	c := NewPlanCache()
	o := OcelotCPU.Build(ConfigOptions{Threads: 2})
	plan := func(s *Session) *Result {
		hi := s.Param("hi", 4)
		sel := s.Select(k, nil, 2, hi, true, true)
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, s.Project(sel, a), nil, 0))
	}
	res, _, err := c.Run(o, "q", nil, DefaultPasses(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Canonical()[0][0]; got != 220 {
		t.Fatalf("capture sum = %v, want 220", got)
	}
	res, hit, err := c.Run(o, "q", Params{"hi": 3}, DefaultPasses(), plan)
	if err != nil || !hit {
		t.Fatalf("rebind: hit=%v err=%v", hit, err)
	}
	if got := res.Canonical()[0][0]; got != 180 {
		t.Fatalf("rebound sum = %v, want 180 (parameterised select fused away?)", got)
	}
}

// TestFusionSelectionOnlyRegion: a selection chain whose intermediate
// candidates never escape collapses into one fused conjunction producing the
// final candidate list.
func TestFusionSelectionOnlyRegion(t *testing.T) {
	k, a, g := testData()
	for _, cfg := range []Config{OcelotCPU, OcelotGPU} {
		s := NewSession(cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20}))
		res, err := RunQuery(s, func(s *Session) *Result {
			s1 := s.Select(k, nil, 2, 6, true, true)
			s2 := s.Select(g, s1, 0, 0, true, true)
			s3 := s.Select(a, s2, 25, 100, true, true)
			// s3 escapes into grouping-ish consumers that are not fusible.
			va := s.Project(s3, a)
			sorted, _ := s.Sort(va)
			return s.Result([]string{"v"}, sorted)
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// k in 2..6 ∧ g == 0 ∧ a in 25..100 → rows 2, 4, 6: a = 30, 50, 70.
		can := res.Canonical()
		if len(can) != 3 || can[0][0] != 30 || can[1][0] != 50 || can[2][0] != 70 {
			t.Fatalf("%v: fused conjunction result = %v", cfg, can)
		}
		if n := countKind(s.Plan(), OpFused); n != 1 {
			t.Fatalf("%v: %d fused instructions, want 1 (select+select+select+project)", cfg, n)
		}
		if n := countKind(s.Plan(), OpSelect); n != 0 {
			t.Fatalf("%v: %d unfused selects survived", cfg, n)
		}
	}
}

// TestFusionTemplateReplay: fused templates must replay from the cache —
// concurrently, on the shared IR — and reproduce the building run.
func TestFusionTemplateReplay(t *testing.T) {
	k, a, _ := testData()
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})
	for _, cfg := range []Config{OcelotCPU, Hybrid} {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20})
		s := NewSession(o)
		ref, err := RunQuery(s, fuseChain(k, a, b))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if countKind(s.Plan(), OpFused) == 0 {
			t.Fatalf("%v: nothing fused; replay test lost its teeth", cfg)
		}
		tpl := s.Template()
		done := make(chan error, 8)
		for i := 0; i < 8; i++ {
			go func() {
				got, err := tpl.Run(o, nil)
				if err != nil {
					done <- err
					return
				}
				done <- got.EqualWithin(ref, 0)
			}()
		}
		for i := 0; i < 8; i++ {
			if err := <-done; err != nil {
				t.Fatalf("%v replay: %v", cfg, err)
			}
		}
	}
}

// TestFusionHybridPlacementPins: a fused region is one placement unit — it
// carries a plan-level pin and the engine records exactly one "fused"
// placement per execution, matching the pin.
func TestFusionHybridPlacementPins(t *testing.T) {
	const n = 200_000
	raw := mem.AllocI32(n)
	va := mem.AllocF32(n)
	vb := mem.AllocF32(n)
	for i := range raw {
		raw[i] = int32(i % 1000)
		va[i] = float32(i%97) + 0.5
		vb[i] = float32(i%89) + 0.25
	}
	k, a, b := bat.NewI32("k", raw), bat.NewF32("a", va), bat.NewF32("b", vb)

	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)
	s := NewSession(o)
	if _, err := RunQuery(s, func(s *Session) *Result {
		sel := s.Select(k, nil, 100, 899, true, true)
		rev := s.Binop(ops.Mul, s.Project(sel, a), s.Project(sel, b))
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, rev, nil, 0))
	}); err != nil {
		t.Fatal(err)
	}
	var fused *PInstr
	for _, in := range s.Plan() {
		if in.Kind == OpFused {
			fused = in
		}
	}
	if fused == nil {
		t.Fatal("nothing fused")
	}
	if fused.Device == "" {
		t.Fatal("fused instruction has no plan-level placement pin")
	}
	rec := h.Placements()["fused"]
	if rec[fused.Device] != 1 {
		t.Fatalf("engine recorded fused placements %v, pin was %s", rec, fused.Device)
	}
}

// TestFusionAllocatesNoMoreThanUnfused: the fused select→project→binop(→sum)
// chain must not allocate more host bytes per warm run than the unfused chain,
// on the CPU and on the simulated-GPU configuration. (It used to assert a
// 30 % saving, which was the allocator's doing, not fusion's: the unfused
// chain's bitmaps and outputs were fresh zeroed buffers with never-read host
// heaps while the fused chain's came from the scratch free-list. With one
// recycling allocator and descriptor-only results neither chain allocates
// its intermediates any more — internal/core's warm-replay allocation test
// pins that — and what is left is the plan build both share.)
func TestFusionAllocatesNoMoreThanUnfused(t *testing.T) {
	const n = 1 << 18
	raw := mem.AllocI32(n)
	va := mem.AllocF32(n)
	vb := mem.AllocF32(n)
	for i := range raw {
		raw[i] = int32(i % 1000)
		va[i] = float32(i % 97)
		vb[i] = float32(i % 89)
	}
	k, a, b := bat.NewI32("k", raw), bat.NewF32("a", va), bat.NewF32("b", vb)

	measure := func(cfg Config, fusion bool) int64 {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 512 << 20})
		run := func() {
			s := NewSession(o)
			p := DefaultPasses()
			p.Fusion = fusion
			s.SetPasses(p)
			if _, err := RunQuery(s, fuseChain(k, a, b)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: device caches, worker pools
		// The quietest of three windows: the runtime's free lists (work-group
		// local memory, command records) refill when kernels happen to
		// overlap, which costs more per window than the two chains differ by
		// now that verifying a single-device fragment builds no lane graph.
		const windows, runs = 3, 5
		best := int64(math.MaxInt64)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			best = min(best, int64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return best
	}

	for _, cfg := range []Config{OcelotCPU, OcelotGPU} {
		fused := measure(cfg, true)
		unfused := measure(cfg, false)
		if fused > unfused {
			t.Fatalf("%v: fused chain allocates %d B/run, more than the unfused chain's %d B/run", cfg, fused, unfused)
		}
		t.Logf("%v: fused %d B/run vs unfused %d B/run (%.1f%% saved)",
			cfg, fused, unfused, 100*(1-float64(fused)/float64(unfused)))
	}
}

// TestFusionExplainShowsMembers: EXPLAIN must render the fused region with
// its member operators.
func TestFusionExplainShowsMembers(t *testing.T) {
	k, a, _ := testData()
	b := fcol("b", []float32{1, 2, 3, 4, 5, 6, 7})
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	s.EnableTrace()
	if _, err := RunQuery(s, fuseChain(k, a, b)); err != nil {
		t.Fatal(err)
	}
	expl := s.Explain()
	if !strings.Contains(expl, "fused{") {
		t.Fatalf("EXPLAIN does not show the fused region:\n%s", expl)
	}
	for _, member := range []string{"select", "leftfetchjoin", "binop*", "sum"} {
		if !strings.Contains(expl, member) {
			t.Fatalf("EXPLAIN fused region missing member %q:\n%s", member, expl)
		}
	}
	// The before-rewriting view still shows the plan as built.
	if strings.Contains(s.ExplainBefore(), "fused") {
		t.Fatalf("before-rewriting plan already fused:\n%s", s.ExplainBefore())
	}
}

// TestPlanCacheLRUEviction: the capacity bound must evict the
// least-recently-used template, and a re-run of the evicted query must
// rebuild (miss) while resident ones replay (hit).
func TestPlanCacheLRUEviction(t *testing.T) {
	k, v, g := testData()
	o := MS.Build(ConfigOptions{})
	c := NewPlanCacheCap(2)
	passes := DefaultPasses()
	plan := miniPlan(k, v, g)

	for _, name := range []string{"q1", "q2", "q3"} { // q3 evicts q1
		if _, hit, err := c.Run(o, name, nil, passes, plan); err != nil || hit {
			t.Fatalf("%s: hit=%v err=%v", name, hit, err)
		}
	}
	if _, _, size := c.Stats(); size != 2 {
		t.Fatalf("cache holds %d templates, capacity 2", size)
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if _, hit, err := c.Run(o, "q2", nil, passes, plan); err != nil || !hit {
		t.Fatalf("resident q2 must hit: hit=%v err=%v", hit, err)
	}
	// q2 was just refreshed, so inserting q4 must evict q3, not q2.
	if _, hit, err := c.Run(o, "q4", nil, passes, plan); err != nil || hit {
		t.Fatalf("q4: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Run(o, "q2", nil, passes, plan); err != nil || !hit {
		t.Fatalf("recently-used q2 evicted out of LRU order: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.Run(o, "q1", nil, passes, plan); err != nil || hit {
		t.Fatalf("evicted q1 must rebuild: hit=%v err=%v", hit, err)
	}
	// Unbounded caches never evict.
	u := NewPlanCacheCap(0)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if _, _, err := u.Run(o, name, nil, passes, plan); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := u.Stats(); size != 5 || u.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted: size=%d evictions=%d", size, u.Evictions())
	}
}
