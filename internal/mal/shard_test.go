package mal

import (
	"fmt"
	"testing"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/ops"
)

// mkShardedFixture builds one sharded fact table (f_a, f_b float values,
// f_k int keys, f_dimpos positions into the replicated dim table) carved
// round-robin across nshards, plus the dim table every side shares.
func mkShardedFixture(n, dimN, nshards int) (cat *ShardCatalog, fact *bat.Table, dim *bat.Table, shards []*bat.Table) {
	fa := mem.AllocF32(n)
	fb := mem.AllocF32(n)
	fk := mem.AllocI32(n)
	fd := mem.AllocU32(n)
	for i := 0; i < n; i++ {
		fa[i] = float32(i%97) * 0.5
		fb[i] = float32((i*7)%31) * 0.25
		fk[i] = int32(i % 13)
		fd[i] = uint32(i % dimN)
	}
	fact = bat.NewTable("fact")
	fact.Add("f_a", bat.NewF32("f_a", fa))
	fact.Add("f_b", bat.NewF32("f_b", fb))
	fact.Add("f_k", bat.NewI32("f_k", fk))
	dpos := bat.NewOID("f_dimpos", fd)
	dpos.PosInto = "dim"
	fact.Add("f_dimpos", dpos)

	dv := mem.AllocI32(dimN)
	for i := range dv {
		dv[i] = int32(i * 3)
	}
	dim = bat.NewTable("dim")
	dim.Add("d_val", bat.NewI32("d_val", dv))

	shards = make([]*bat.Table, nshards)
	for s := 0; s < nshards; s++ {
		var rows []uint32
		for i := s; i < n; i += nshards {
			rows = append(rows, uint32(i))
		}
		st := bat.NewTable("fact")
		st.GlobalRows = rows
		st.ShardIdx, st.NShards = s, nshards
		for _, col := range fact.Order {
			src := fact.Col(col)
			sub := subsetBAT(src, rows)
			st.Add(col, sub)
		}
		shards[s] = st
	}
	cat = &ShardCatalog{NShards: nshards, Tables: map[string]*ShardedTable{
		"fact": {Global: fact, Shards: shards},
	}}
	return cat, fact, dim, shards
}

func subsetBAT(c *bat.BAT, rows []uint32) *bat.BAT {
	var out *bat.BAT
	switch c.T {
	case bat.I32:
		src := c.I32s()
		dst := mem.AllocI32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewI32(c.Name, dst)
	case bat.F32:
		src := c.F32s()
		dst := mem.AllocF32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewF32(c.Name, dst)
	case bat.OID:
		src := c.OIDs()
		dst := mem.AllocU32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewOID(c.Name, dst)
	}
	out.PosInto = c.PosInto
	return out
}

func shardTestPasses() Passes {
	p := DefaultPasses()
	p.Fusion = false
	return p
}

// runColdAndCompile runs the plan unsharded and compiles the shard plan from
// the finished session.
func runColdAndCompile(t *testing.T, o ops.Operators, cat *ShardCatalog, params Params, plan func(*Session) *Result) (*Result, *ShardPlan) {
	t.Helper()
	s := NewSession(o)
	s.SetPasses(shardTestPasses())
	s.SetParams(params)
	res, err := RunQuery(s, plan)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return res, CompileSharded("test", s, cat)
}

// executeSharded scatters the compiled plan over per-shard engines, gathers,
// and runs the merge fragment on the coordinator engine.
func executeSharded(t *testing.T, sp *ShardPlan, coord ops.Operators, shardEngines []ops.Operators, params Params) *Result {
	t.Helper()
	results := make([]*Result, sp.NShards())
	for i := 0; i < sp.NShards(); i++ {
		ns := NewSession(shardEngines[i])
		ns.SetPasses(sp.Passes())
		ns.SetParams(params)
		res, err := RunQuery(ns, sp.PlanFor(i))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		results[i] = res
	}
	gathered, err := sp.Gather(results)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	merged, err := sp.Merge(coord, params, gathered)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

// assertSameResult requires value-identical results: same shape, and every
// cell exactly equal (for the four-byte tail types, value equality is byte
// equality; Void vs materialised OID representation may legitimately differ).
func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("column count %d, want %d", len(got.Cols), len(want.Cols))
	}
	if got.Rows() != want.Rows() {
		t.Fatalf("row count %d, want %d", got.Rows(), want.Rows())
	}
	for c := range want.Cols {
		for i := 0; i < want.Rows(); i++ {
			if g, w := got.cell(c, i), want.cell(c, i); g != w {
				t.Fatalf("col %d (%s) row %d: %v, want %v", c, want.Names[c], i, g, w)
			}
		}
	}
}

func shardEnginesFor(n int) []ops.Operators {
	es := make([]ops.Operators, n)
	for i := range es {
		es[i] = MS.Build(ConfigOptions{})
	}
	return es
}

// TestShardCompileSelectProjectAggr covers the Q6 shape: a decomposable
// select→project→binop chain whose product is gathered and aggregated on the
// merge side. The sharded execution must reproduce the unsharded result
// exactly, for several shard counts.
func TestShardCompileSelectProjectAggr(t *testing.T) {
	for _, nshards := range []int{1, 2, 4} {
		cat, fact, _, _ := mkShardedFixture(1000, 16, nshards)
		o := MS.Build(ConfigOptions{})
		plan := func(s *Session) *Result {
			cand := s.Select(fact.Col("f_a"), nil, 5, 30, true, false)
			a := s.Project(cand, fact.Col("f_a"))
			b := s.Project(cand, fact.Col("f_b"))
			rev := s.Binop(ops.Mul, a, b)
			total := s.Aggr(ops.Sum, rev, nil, 1)
			cnt := s.Aggr(ops.Count, rev, nil, 1)
			return s.Result([]string{"total", "cnt"}, total, cnt)
		}
		cold, sp := runColdAndCompile(t, o, cat, nil, plan)
		if sp.Degenerate() {
			t.Fatalf("%d shards: degenerate: %s", nshards, sp.Reason())
		}
		if sp.ShardInstructions() == 0 || sp.GatherWidth() == 0 {
			t.Fatalf("%d shards: no shard work compiled (%d instrs, %d items)", nshards, sp.ShardInstructions(), sp.GatherWidth())
		}
		warm := executeSharded(t, sp, o, shardEnginesFor(nshards), nil)
		assertSameResult(t, warm, cold)
	}
}

// TestShardCompileGroupBy covers the Q1 shape: decomposable projections
// (including a global dimension lookup through stable positions) feeding a
// merge-side group-by. Grouped aggregates depend on first-appearance group
// numbering, so this only passes if the gather reassembles exact global row
// order.
func TestShardCompileGroupBy(t *testing.T) {
	for _, nshards := range []int{2, 3} {
		cat, fact, dim, _ := mkShardedFixture(900, 8, nshards)
		o := MS.Build(ConfigOptions{})
		plan := func(s *Session) *Result {
			cand := s.Select(fact.Col("f_a"), nil, ninfF(), 40, false, true)
			dpos := s.Project(cand, fact.Col("f_dimpos"))
			key := s.Project(dpos, dim.Col("d_val"))
			val := s.Project(cand, fact.Col("f_b"))
			g, n := s.Group(key, nil, 0)
			sums := s.Aggr(ops.Sum, val, g, n)
			cnts := s.Aggr(ops.Count, nil, g, n)
			return s.Result([]string{"sum", "cnt"}, sums, cnts)
		}
		cold, sp := runColdAndCompile(t, o, cat, nil, plan)
		if sp.Degenerate() {
			t.Fatalf("%d shards: degenerate: %s", nshards, sp.Reason())
		}
		warm := executeSharded(t, sp, o, shardEnginesFor(nshards), nil)
		assertSameResult(t, warm, cold)
	}
}

func ninfF() float64 { return -1e30 }

// TestShardCompileParams re-binds a named selection parameter on the sharded
// execution: the shard fragments must re-declare the parameter so both a
// capture-time and a re-bound execution agree with the equivalent unsharded
// runs.
func TestShardCompileParams(t *testing.T) {
	const nshards = 2
	cat, fact, _, _ := mkShardedFixture(800, 8, nshards)
	o := MS.Build(ConfigOptions{})
	plan := func(s *Session) *Result {
		lo := s.Param("lo", 10)
		cand := s.Select(fact.Col("f_a"), nil, lo, 45, true, true)
		val := s.Project(cand, fact.Col("f_b"))
		total := s.Aggr(ops.Sum, val, nil, 1)
		return s.Result([]string{"total"}, total)
	}
	cold, sp := runColdAndCompile(t, o, cat, Params{"lo": 10}, plan)
	if sp.Degenerate() {
		t.Fatalf("degenerate: %s", sp.Reason())
	}
	assertSameResult(t, executeSharded(t, sp, o, shardEnginesFor(nshards), Params{"lo": 10}), cold)

	// Re-bind on the *same* compiled plan and compare against a fresh
	// unsharded run under the new binding.
	rebound := Params{"lo": 25}
	s2 := NewSession(MS.Build(ConfigOptions{}))
	s2.SetPasses(shardTestPasses())
	s2.SetParams(rebound)
	cold2, err := RunQuery(s2, plan)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, executeSharded(t, sp, o, shardEnginesFor(nshards), rebound), cold2)
}

// TestShardCompileDimensionOnlyDegenerates: a plan that never touches a
// sharded table has no decomposable work; the compiler must fall back rather
// than scatter it.
func TestShardCompileDimensionOnlyDegenerates(t *testing.T) {
	cat, _, dim, _ := mkShardedFixture(100, 8, 2)
	o := MS.Build(ConfigOptions{})
	plan := func(s *Session) *Result {
		cand := s.Select(dim.Col("d_val"), nil, 0, 1e9, true, true)
		v := s.Project(cand, dim.Col("d_val"))
		total := s.Aggr(ops.Sum, v, nil, 1)
		return s.Result([]string{"total"}, total)
	}
	_, sp := runColdAndCompile(t, o, cat, nil, plan)
	if !sp.Degenerate() {
		t.Fatalf("dimension-only plan compiled as sharded (%d items)", sp.GatherWidth())
	}
	if sp.Reason() == "" {
		t.Fatal("degenerate plan carries no reason")
	}
}

// TestShardCompileDeadScalarPruned: an aggregate consumed only by a mid-plan
// host scalar read is baked into downstream literals (the plan-cache
// contract) and must be pruned from both fragments — its value is not
// recomputable shard-side and must not be gathered.
func TestShardCompileDeadScalarPruned(t *testing.T) {
	const nshards = 2
	cat, fact, _, _ := mkShardedFixture(600, 8, nshards)
	o := MS.Build(ConfigOptions{})
	plan := func(s *Session) *Result {
		all := s.Project(nil, fact.Col("f_a"))
		avg := s.Aggr(ops.Avg, all, nil, 1)
		thr := s.ScalarF(avg) // baked: fragments replay the captured constant
		cand := s.Select(fact.Col("f_a"), nil, thr, 1e30, false, false)
		val := s.Project(cand, fact.Col("f_b"))
		total := s.Aggr(ops.Sum, val, nil, 1)
		return s.Result([]string{"total"}, total)
	}
	cold, sp := runColdAndCompile(t, o, cat, nil, plan)
	if sp.Degenerate() {
		t.Fatalf("degenerate: %s", sp.Reason())
	}
	warm := executeSharded(t, sp, o, shardEnginesFor(nshards), nil)
	assertSameResult(t, warm, cold)
}

// TestShardCompileTablesRecorded: the compiled plan must list every base
// table it reads — the tables whose catalog versions decide staleness.
func TestShardCompileTablesRecorded(t *testing.T) {
	cat, fact, dim, _ := mkShardedFixture(200, 8, 2)
	o := MS.Build(ConfigOptions{})
	plan := func(s *Session) *Result {
		cand := s.Select(fact.Col("f_a"), nil, 0, 20, true, true)
		dpos := s.Project(cand, fact.Col("f_dimpos"))
		key := s.Project(dpos, dim.Col("d_val"))
		total := s.Aggr(ops.Sum, key, nil, 1)
		return s.Result([]string{"total"}, total)
	}
	_, sp := runColdAndCompile(t, o, cat, nil, plan)
	tabs := map[string]bool{}
	for _, tb := range sp.Tables() {
		tabs[tb] = true
	}
	if !tabs["fact"] || !tabs["dim"] {
		t.Fatalf("plan tables = %v, want fact and dim", sp.Tables())
	}
}

// TestShardCompileUnsupportedDemotesNotFails: a merge-heavy plan (join over
// sharded rows) must still compile — everything demotes to the merge side,
// with only the decomposable prefix scattered.
func TestShardCompileJoinDemotesToMerge(t *testing.T) {
	const nshards = 2
	cat, fact, _, _ := mkShardedFixture(400, 8, nshards)
	o := MS.Build(ConfigOptions{})
	plan := func(s *Session) *Result {
		candA := s.Select(fact.Col("f_a"), nil, 0, 25, true, true)
		keyA := s.Project(candA, fact.Col("f_k"))
		candB := s.Select(fact.Col("f_b"), nil, 0, 4, true, true)
		keyB := s.Project(candB, fact.Col("f_k"))
		l, _ := s.Join(keyA, keyB)
		lv := s.Project(l, keyA)
		total := s.Aggr(ops.Sum, lv, nil, 1)
		return s.Result([]string{"total"}, total)
	}
	cold, sp := runColdAndCompile(t, o, cat, nil, plan)
	if sp.Degenerate() {
		t.Fatalf("degenerate: %s", sp.Reason())
	}
	if sp.MergeInstructions() == 0 {
		t.Fatal("join plan compiled without merge work")
	}
	warm := executeSharded(t, sp, o, shardEnginesFor(nshards), nil)
	assertSameResult(t, warm, cold)
}

// TestShardPlanDeterministicAcrossShardCounts: the same logical data carved
// 1/2/4 ways must produce identical results through the scatter-gather path
// (the cross-shard-count probe the serve layer's figure also runs).
func TestShardPlanDeterministicAcrossShardCounts(t *testing.T) {
	var results []*Result
	for _, nshards := range []int{1, 2, 4} {
		cat, fact, dim, _ := mkShardedFixture(1200, 16, nshards)
		o := MS.Build(ConfigOptions{})
		plan := func(s *Session) *Result {
			cand := s.Select(fact.Col("f_a"), nil, 3, 44, true, true)
			dpos := s.Project(cand, fact.Col("f_dimpos"))
			key := s.Project(dpos, dim.Col("d_val"))
			val := s.Project(cand, fact.Col("f_a"))
			g, n := s.Group(key, nil, 0)
			sums := s.Aggr(ops.Sum, val, g, n)
			return s.Result([]string{"sum"}, sums)
		}
		_, sp := runColdAndCompile(t, o, cat, nil, plan)
		if sp.Degenerate() {
			t.Fatalf("%d shards: degenerate: %s", nshards, sp.Reason())
		}
		results = append(results, executeSharded(t, sp, o, shardEnginesFor(nshards), nil))
	}
	for i := 1; i < len(results); i++ {
		assertSameResult(t, results[i], results[0])
	}
}

// TestShardFixtureSanity guards the fixture itself: shard unions must cover
// the global table exactly.
func TestShardFixtureSanity(t *testing.T) {
	_, fact, _, shards := mkShardedFixture(101, 8, 3)
	covered := 0
	for s, sh := range shards {
		covered += sh.Rows()
		rows := sh.GlobalRowsSnapshot()
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				t.Fatalf("shard %d GlobalRows not ascending", s)
			}
		}
	}
	if covered != fact.Rows() {
		t.Fatalf("shards cover %d rows, want %d", covered, fact.Rows())
	}
	// Silence unused helper warnings under build variations.
	_ = fmt.Sprintf
}
