package tpch

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mal"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	return Generate(0.01, 42)
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.005, 7)
	b := Generate(0.005, 7)
	if a.Lineitem.Rows() != b.Lineitem.Rows() {
		t.Fatal("same seed, different row counts")
	}
	av := a.Lineitem.Col("l_extendedprice").F32s()
	bv := b.Lineitem.Col("l_extendedprice").F32s()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("same seed, different data at %d", i)
		}
	}
	c := Generate(0.005, 8)
	diff := false
	cv := c.Lineitem.Col("l_extendedprice").F32s()
	for i := range av[:min(len(av), len(cv))] {
		if av[i] != cv[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateScalesLinearly(t *testing.T) {
	small := Generate(0.005, 1)
	large := Generate(0.02, 1)
	ratio := float64(large.Lineitem.Rows()) / float64(small.Lineitem.Rows())
	if ratio < 3 || ratio > 5.5 {
		t.Fatalf("4x scale factor gave %.1fx lineitems", ratio)
	}
}

func TestSchemaInvariants(t *testing.T) {
	db := testDB(t)
	if db.Region.Rows() != 5 || db.Nation.Rows() != 25 {
		t.Fatal("region/nation cardinalities wrong")
	}
	if db.PartSupp.Rows() != db.Part.Rows()*4 {
		t.Fatal("partsupp must have 4 suppliers per part")
	}
	// Join indexes point at valid positions and agree with the keys.
	lop := db.Lineitem.Col("l_orderpos").OIDs()
	lok := db.Lineitem.Col("l_orderkey").I32s()
	okeys := db.Orders.Col("o_orderkey").I32s()
	for i, p := range lop {
		if int(p) >= len(okeys) || okeys[p] != lok[i] {
			t.Fatalf("lineitem %d: join index disagrees with orderkey", i)
		}
	}
	cpos := db.Orders.Col("o_custpos").OIDs()
	ckeys := db.Customer.Col("c_custkey").I32s()
	cust := db.Orders.Col("o_custkey").I32s()
	for i, p := range cpos {
		if ckeys[p] != cust[i] {
			t.Fatalf("order %d: customer join index broken", i)
		}
	}
	// Date sanity: receipt after ship, yyyymmdd encoded.
	ship := db.Lineitem.Col("l_shipdate").I32s()
	rcpt := db.Lineitem.Col("l_receiptdate").I32s()
	for i := range ship {
		if rcpt[i] <= ship[i] {
			t.Fatalf("lineitem %d: receipt %d not after ship %d", i, rcpt[i], ship[i])
		}
		if ship[i] < 19920101 || ship[i] > 19990101 {
			t.Fatalf("lineitem %d: shipdate %d out of range", i, ship[i])
		}
	}
	// Keys are marked key+sorted.
	if !db.Orders.Col("o_orderkey").Props.Key || !db.Orders.Col("o_orderkey").Props.Sorted {
		t.Fatal("o_orderkey must be a sorted key column")
	}
}

func TestDictsRoundTrip(t *testing.T) {
	db := testDB(t)
	if db.Code("l_shipmode", "MAIL") == db.Code("l_shipmode", "SHIP") {
		t.Fatal("distinct values share a code")
	}
	code := int32(db.Code("p_brand", "Brand#23"))
	if db.Decode("p_brand", code) != "Brand#23" {
		t.Fatal("decode(code) != value")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown dictionary value must panic")
			}
		}()
		db.Code("l_shipmode", "TELEPORT")
	}()
	if db.NationPos("GERMANY") == db.NationPos("FRANCE") {
		t.Fatal("nation positions collide")
	}
	if db.RegionPos("ASIA") != 2 {
		t.Fatalf("ASIA position = %v", db.RegionPos("ASIA"))
	}
}

func TestQueryRegistry(t *testing.T) {
	qs := Queries()
	if len(qs) != 14 {
		t.Fatalf("workload has %d queries, want 14 (App. A.1)", len(qs))
	}
	want := []int{1, 3, 4, 5, 6, 7, 8, 10, 11, 12, 15, 17, 19, 21}
	for i, q := range qs {
		if q.Num != want[i] {
			t.Fatalf("query %d is Q%d, want Q%d", i, q.Num, want[i])
		}
	}
	if QueryByNum(6) == nil || QueryByNum(2) != nil {
		t.Fatal("QueryByNum lookup broken")
	}
}

// TestAllQueriesAgreeAcrossConfigurations is the central integration test:
// every workload query must produce identical (canonicalised) results under
// all four configurations — MS, MP, Ocelot-CPU and Ocelot-GPU — which is the
// paper's core claim that one hardware-oblivious operator set is a drop-in
// replacement for the hand-tuned ones.
func TestAllQueriesAgreeAcrossConfigurations(t *testing.T) {
	db := testDB(t)
	opts := mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20}
	for _, q := range Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			var reference *mal.Result
			for _, cfg := range mal.AllConfigs() {
				o := cfg.Build(opts)
				s := mal.NewSession(o)
				res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
					return q.Plan(s, db)
				})
				if err != nil {
					t.Fatalf("Q%d on %v: %v", q.Num, cfg, err)
				}
				if cfg == mal.MS {
					reference = res
					if res.Rows() == 0 && q.Num != 19 && q.Num != 21 {
						t.Fatalf("Q%d returned no rows on MS", q.Num)
					}
					continue
				}
				if err := res.EqualWithin(reference, 2e-3); err != nil {
					t.Fatalf("Q%d: %v disagrees with MS: %v", q.Num, cfg, err)
				}
			}
		})
	}
}

// TestFusionEquivalenceAllQueries: running every workload query with the
// fusion pass on must produce results byte-identical to running it with
// fusion off, per configuration — fusion is a pure execution-strategy
// change. Grouped float aggregation is inherently run-to-run
// nondeterministic (concurrent atomic float adds), so each (query, config)
// pair first probes its own determinism with two fusion-off runs and only
// then demands exactness; nondeterministic pairs are compared within the
// atomic-jitter tolerance instead, the same probing the serve-layer
// equivalence tests use.
func TestFusionEquivalenceAllQueries(t *testing.T) {
	db := testDB(t)
	opts := mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20}
	configs := []mal.Config{mal.MS, mal.MP, mal.OcelotCPU, mal.OcelotGPU, mal.Hybrid}
	queries := Queries()
	if testing.Short() {
		configs = []mal.Config{mal.OcelotCPU, mal.Hybrid}
		queries = []Query{*QueryByNum(1), *QueryByNum(6)}
	}
	for _, cfg := range configs {
		o := cfg.Build(opts)
		run := func(q Query, fusion bool) *mal.Result {
			s := mal.NewSession(o)
			p := mal.DefaultPasses()
			p.Fusion = fusion
			s.SetPasses(p)
			res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
			if err != nil {
				t.Fatalf("Q%d on %v (fusion=%v): %v", q.Num, cfg, fusion, err)
			}
			return res
		}
		for _, q := range queries {
			off1 := run(q, false)
			off2 := run(q, false)
			on := run(q, true)
			if off1.EqualWithin(off2, 0) == nil {
				if err := on.EqualWithin(off1, 0); err != nil {
					t.Fatalf("Q%d on %v: fusion-on differs byte-for-byte from fusion-off: %v", q.Num, cfg, err)
				}
			} else if err := on.EqualWithin(off1, 1e-5); err != nil {
				t.Fatalf("Q%d on %v (nondeterministic grouped floats): fusion-on outside jitter tolerance: %v", q.Num, cfg, err)
			}
		}
	}
	// The pass must actually fire on the workload: Q6's whole plan is one
	// fusible region on a fusion-capable engine.
	s := mal.NewSession(mal.OcelotCPU.Build(opts))
	if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
		return QueryByNum(6).Plan(s, db)
	}); err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, in := range s.Plan() {
		if in.Kind == mal.OpFused {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("fusion pass never fired on Q6")
	}
}

// TestQ1Shape pins Q1's semantics against a direct oracle computation.
func TestQ1Shape(t *testing.T) {
	db := testDB(t)
	s := mal.NewSession(mal.MS.Build(mal.ConfigOptions{}))
	res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q1(s, db) })
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: count rows with shipdate <= 1998-09-02 per (rf, ls).
	type key struct{ rf, ls int32 }
	counts := map[key]int32{}
	sums := map[key]float64{}
	ship := db.Lineitem.Col("l_shipdate").I32s()
	rf := db.Lineitem.Col("l_returnflag").I32s()
	ls := db.Lineitem.Col("l_linestatus").I32s()
	qty := db.Lineitem.Col("l_quantity").F32s()
	for i := range ship {
		if ship[i] <= 19980902 {
			k := key{rf[i], ls[i]}
			counts[k]++
			sums[k] += float64(qty[i])
		}
	}
	if res.Rows() != len(counts) {
		t.Fatalf("Q1 rows = %d, oracle groups = %d", res.Rows(), len(counts))
	}
	outRF := res.Cols[0].I32s()
	outLS := res.Cols[1].I32s()
	outQty := res.Cols[2].F32s()
	outCnt := res.Cols[9].I32s()
	for i := 0; i < res.Rows(); i++ {
		k := key{outRF[i], outLS[i]}
		if counts[k] != outCnt[i] {
			t.Fatalf("Q1 group %v: count %d, oracle %d", k, outCnt[i], counts[k])
		}
		if rel := abs(float64(outQty[i])-sums[k]) / (sums[k] + 1); rel > 1e-3 {
			t.Fatalf("Q1 group %v: sum_qty %v, oracle %v", k, outQty[i], sums[k])
		}
	}
	// Modified Q1 sorts by returnflag.
	for i := 1; i < res.Rows(); i++ {
		if outRF[i] < outRF[i-1] {
			t.Fatal("Q1 output not sorted by returnflag")
		}
	}
}

// TestQ6Oracle pins the scalar revenue of Q6 against a direct scan.
func TestQ6Oracle(t *testing.T) {
	db := testDB(t)
	ship := db.Lineitem.Col("l_shipdate").I32s()
	disc := db.Lineitem.Col("l_discount").F32s()
	qty := db.Lineitem.Col("l_quantity").F32s()
	price := db.Lineitem.Col("l_extendedprice").F32s()
	var want float64
	for i := range ship {
		if ship[i] >= 19940101 && ship[i] < 19950101 &&
			disc[i] >= 0.05 && disc[i] <= 0.07 && qty[i] < 24 {
			want += float64(price[i] * disc[i])
		}
	}
	for _, cfg := range mal.AllConfigs() {
		s := mal.NewSession(cfg.Build(mal.ConfigOptions{Threads: 4, GPUMemory: 256 << 20}))
		res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q6(s, db) })
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		got := float64(res.Cols[0].F32s()[0])
		if rel := abs(got-want) / (want + 1); rel > 2e-3 {
			t.Fatalf("%v: Q6 revenue %v, oracle %v (rel %v)", cfg, got, want, rel)
		}
	}
}

// TestQ21Oracle verifies the count-based EXISTS/NOT-EXISTS encoding against
// a direct nested evaluation.
func TestQ21Oracle(t *testing.T) {
	db := testDB(t)
	L := db.Lineitem
	lop := L.Col("l_orderpos").OIDs()
	lsk := L.Col("l_suppkey").I32s()
	rcpt := L.Col("l_receiptdate").I32s()
	cmt := L.Col("l_commitdate").I32s()
	snat := L.Col("l_supppos").OIDs()
	suppNat := db.Supplier.Col("s_nationkey").I32s()
	ostat := db.Orders.Col("o_orderstatus").I32s()
	sa := int32(db.NationPos("SAUDI ARABIA"))

	// Direct evaluation.
	byOrder := map[uint32][]int{}
	for i := range lop {
		byOrder[lop[i]] = append(byOrder[lop[i]], i)
	}
	want := map[int32]int32{}
	for i := range lop {
		if !(rcpt[i] > cmt[i]) || suppNat[snat[i]] != sa || ostat[lop[i]] != 0 {
			continue
		}
		exists2, exists3 := false, false
		for _, j := range byOrder[lop[i]] {
			if lsk[j] != lsk[i] {
				exists2 = true
				if rcpt[j] > cmt[j] {
					exists3 = true
				}
			}
		}
		if exists2 && !exists3 {
			want[lsk[i]]++
		}
	}

	s := mal.NewSession(mal.MS.Build(mal.ConfigOptions{}))
	res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q21(s, db) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != len(want) {
		t.Fatalf("Q21 rows = %d, oracle = %d", res.Rows(), len(want))
	}
	keys := res.Cols[0].I32s()
	cnts := res.Cols[1].I32s()
	for i := range keys {
		if want[keys[i]] != cnts[i] {
			t.Fatalf("Q21 supplier %d: numwait %d, oracle %d", keys[i], cnts[i], want[keys[i]])
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ = bat.Void // keep the bat import for test helpers evolving

// TestWorkloadUnderHybridPlacement runs the full workload under the §7
// future-work configuration — two Ocelot devices with automatic operator
// placement — and cross-checks every result against the sequential
// baseline.
func TestWorkloadUnderHybridPlacement(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid workload in -short mode")
	}
	db := Generate(0.01, 42)
	opts := mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20}
	ms := mal.MS.Build(opts)
	hyb := mal.Hybrid.Build(opts)
	for _, q := range Queries() {
		ref, err := mal.RunQuery(mal.NewSession(ms), func(s *mal.Session) *mal.Result {
			return q.Plan(s, db)
		})
		if err != nil {
			t.Fatalf("Q%d on MS: %v", q.Num, err)
		}
		got, err := mal.RunQuery(mal.NewSession(hyb), func(s *mal.Session) *mal.Result {
			return q.Plan(s, db)
		})
		if err != nil {
			t.Fatalf("Q%d on hybrid: %v", q.Num, err)
		}
		if err := got.EqualWithin(ref, 2e-3); err != nil {
			t.Fatalf("Q%d: hybrid disagrees with MS: %v", q.Num, err)
		}
	}
}

// TestQ1RewriterInsertsSyncAndRelease: the rewritten TPC-H plan must carry
// the sync instructions of §3.4 for the result columns and early Release
// instructions for intermediates, visible in EXPLAIN.
func TestQ1RewriterInsertsSyncAndRelease(t *testing.T) {
	db := testDB(t)
	s := mal.NewSession(mal.OcelotGPU.Build(mal.ConfigOptions{GPUMemory: 512 << 20}))
	s.EnableTrace()
	if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q1(s, db) }); err != nil {
		t.Fatal(err)
	}
	var syncs, releases int
	for _, in := range s.Trace() {
		switch in.Op {
		case "sync":
			syncs++
		case "release":
			releases++
		}
	}
	if syncs != 10 {
		t.Fatalf("Q1 rewriter inserted %d syncs, want 10 (one per result column)", syncs)
	}
	if releases == 0 {
		t.Fatal("Q1 rewriter inserted no early releases")
	}
}

// TestQ1EarlyReleaseLowersPeakFootprint: the §3.3 Memory Manager's device
// high-water mark on Q1 must drop measurably when intermediates are freed
// at last use instead of at end of plan.
func TestQ1EarlyReleaseLowersPeakFootprint(t *testing.T) {
	db := testDB(t)
	peak := func(early bool) int64 {
		o := mal.OcelotGPU.Build(mal.ConfigOptions{GPUMemory: 512 << 20})
		s := mal.NewSession(o)
		p := mal.DefaultPasses()
		p.EarlyRelease = early
		s.SetPasses(p)
		if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q1(s, db) }); err != nil {
			t.Fatal(err)
		}
		eng := o.(*core.Engine)
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		return eng.Device().PeakAllocated()
	}
	with, without := peak(true), peak(false)
	// Peaks are schedule-dependent: independent commands allocate
	// concurrently on the device's worker pool, so a rare interleaving can
	// inflate one measurement. Re-measure before declaring the rewrite
	// useless.
	for attempt := 0; with >= without && attempt < 2; attempt++ {
		with, without = peak(true), peak(false)
	}
	if with >= without {
		t.Fatalf("early release did not lower Q1 peak footprint: %d >= %d", with, without)
	}
	t.Logf("Q1 peak device bytes: early-release %d vs end-of-plan %d (%.1f%% saved)",
		with, without, 100*float64(without-with)/float64(without))
}

// TestHybridPlanPlacementOnWorkload: under the hybrid configuration, every
// compute instruction of every TPC-H plan must carry a plan-level device
// pin, and the engine's recorded placements must equal the pins per operator
// and device label — a fallback moves a count from the pinned device to the
// other one, so equality means none fired.
func TestHybridPlanPlacementOnWorkload(t *testing.T) {
	db := testDB(t)
	o := mal.Hybrid.Build(mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)
	for _, q := range Queries() {
		before := h.Placements()
		s := mal.NewSession(o)
		if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) }); err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		var fused []*mal.PInstr
		for _, in := range s.Plan() {
			if in.Kind == mal.OpSync || in.Kind == mal.OpRelease {
				continue
			}
			if in.Device == "" {
				t.Fatalf("Q%d: instruction %s executed without a plan-level pin", q.Num, in.OpName())
			}
			if in.Kind == mal.OpFused {
				fused = append(fused, in)
			}
		}
		recorded := map[string]map[string]int{}
		for op, m := range h.Placements() {
			for dev, n := range m {
				if d := n - before[op][dev]; d != 0 {
					if recorded[op] == nil {
						recorded[op] = map[string]int{}
					}
					recorded[op][dev] = d
				}
			}
		}
		// A fused region whose shape the engine refuses runs its members
		// on the region's device — not a fallback, but invisible in the
		// plan — so some set of refused regions must explain the record.
		matched := false
		for set := 0; set < 1<<len(fused) && !matched; set++ {
			refused := map[*mal.PInstr]bool{}
			for i, in := range fused {
				refused[in] = set&(1<<i) != 0
			}
			matched = reflect.DeepEqual(pinnedPlacements(s.Plan(), refused), recorded)
		}
		if !matched {
			t.Fatalf("Q%d: plan pinned %v, engine recorded %v",
				q.Num, pinnedPlacements(s.Plan(), nil), recorded)
		}
	}
}

// pinnedPlacements counts a plan's pins per operator and device label, the
// way the hybrid engine records placements; a refused fused region counts
// as its members on the region's device.
func pinnedPlacements(plan []*mal.PInstr, refused map[*mal.PInstr]bool) map[string]map[string]int {
	out := map[string]map[string]int{}
	add := func(in *mal.PInstr, dev string) {
		if out[in.PlaceKey()] == nil {
			out[in.PlaceKey()] = map[string]int{}
		}
		out[in.PlaceKey()][dev]++
	}
	for _, in := range plan {
		switch {
		case in.Kind == mal.OpSync || in.Kind == mal.OpRelease:
		case refused[in]:
			for _, m := range in.Sub {
				add(m, in.Device)
			}
		default:
			add(in, in.Device)
		}
	}
	return out
}

// TestGoldenResults pins the workload's results at (SF 0.01, seed 42): row
// counts and the canonical first row's last column. Any change to the
// generator, the plans, or the baseline operators that alters query
// semantics trips this regression test.
func TestGoldenResults(t *testing.T) {
	golden := map[int]struct {
		rows  int
		first float64
	}{
		1:  {4, 16166},
		3:  {122, 1.99501e+07},
		4:  {5, 93},
		5:  {5, 471824},
		6:  {1, 1.26767e+06},
		7:  {4, 396694},
		8:  {2, 0.0404871},
		10: {428, 20},
		11: {231, 735304},
		12: {2, 97},
		15: {1, 1.38283e+06},
		17: {1, 9706.11},
		19: {1, 27199.9},
		21: {7, 7},
	}
	db := Generate(0.01, 42)
	o := mal.MS.Build(mal.ConfigOptions{})
	for _, q := range Queries() {
		want := golden[q.Num]
		res, err := mal.RunQuery(mal.NewSession(o), func(s *mal.Session) *mal.Result {
			return q.Plan(s, db)
		})
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		if res.Rows() != want.rows {
			t.Fatalf("Q%d: %d rows, golden %d", q.Num, res.Rows(), want.rows)
		}
		can := res.Canonical()
		if len(can) == 0 {
			continue
		}
		got := can[0][len(can[0])-1]
		if rel := abs(got-want.first) / (abs(want.first) + 1e-9); rel > 1e-4 {
			t.Fatalf("Q%d: first value %.6g, golden %.6g", q.Num, got, want.first)
		}
	}
}

// TestDictionaryLike covers the LIKE-over-dictionary extension.
func TestDictionaryLike(t *testing.T) {
	db := testDB(t)
	promo := db.CodesLike("p_type", "PROMO%")
	if len(promo) != 25 { // 5 syllable-2 × 5 syllable-3 combinations
		t.Fatalf("PROMO%% matches %d types, want 25", len(promo))
	}
	for _, c := range promo {
		if db.Decode("p_type", c)[:5] != "PROMO" {
			t.Fatalf("code %d (%s) does not match PROMO%%", c, db.Decode("p_type", c))
		}
	}
	steel := db.CodesLike("p_type", "%STEEL%")
	if len(steel) != 30 { // 6 syllable-1 × 5 syllable-2 combinations
		t.Fatalf("%%STEEL%% matches %d types, want 30", len(steel))
	}
	exact := db.CodesLike("l_shipmode", "MAIL")
	if len(exact) != 1 || float64(exact[0]) != db.Code("l_shipmode", "MAIL") {
		t.Fatalf("exact pattern = %v", exact)
	}
	if got := db.CodesLike("p_type", "NOPE%"); got != nil {
		t.Fatalf("non-matching pattern = %v", got)
	}
}

// TestQ14ExtensionAcrossConfigurations validates the extension query
// against a direct oracle on every configuration.
func TestQ14ExtensionAcrossConfigurations(t *testing.T) {
	db := testDB(t)
	// Oracle.
	ship := db.Lineitem.Col("l_shipdate").I32s()
	disc := db.Lineitem.Col("l_discount").F32s()
	price := db.Lineitem.Col("l_extendedprice").F32s()
	ppos := db.Lineitem.Col("l_partpos").OIDs()
	ptype := db.Part.Col("p_type").I32s()
	isPromo := map[int32]bool{}
	for _, c := range db.CodesLike("p_type", "PROMO%") {
		isPromo[c] = true
	}
	var total, promo float64
	for i := range ship {
		if ship[i] >= 19950901 && ship[i] < 19951001 {
			r := float64(price[i] * (1 - disc[i]))
			total += r
			if isPromo[ptype[ppos[i]]] {
				promo += r
			}
		}
	}
	want := 100 * promo / total

	q := ExtensionQueries()[0]
	if q.Num != 14 {
		t.Fatalf("extension registry broken: %v", q)
	}
	for _, cfg := range mal.AllConfigs() {
		o := cfg.Build(mal.ConfigOptions{Threads: 4, GPUMemory: 256 << 20})
		res, err := mal.RunQuery(mal.NewSession(o), func(s *mal.Session) *mal.Result {
			return q.Plan(s, db)
		})
		if err != nil {
			t.Fatalf("Q14 on %v: %v", cfg, err)
		}
		got := float64(res.Cols[0].F32s()[0])
		if rel := abs(got-want) / (want + 1e-9); rel > 2e-3 {
			t.Fatalf("%v: promo_revenue %.4f, oracle %.4f", cfg, got, want)
		}
	}
}

// TestWriteCSV exercises the export path end to end.
func TestWriteCSV(t *testing.T) {
	db := Generate(0.002, 42)
	dir := t.TempDir()
	if err := db.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/lineitem.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != db.Lineitem.Rows()+1 {
		t.Fatalf("lineitem.csv has %d lines for %d rows", len(lines), db.Lineitem.Rows())
	}
	header := lines[0]
	if strings.Contains(header, "pos") {
		t.Fatalf("join indexes leaked into the export: %s", header)
	}
	if !strings.Contains(header, "l_shipmode") {
		t.Fatalf("header = %s", header)
	}
	// Dictionary decoding and ISO dates in the payload.
	if !strings.Contains(string(data), "1994-") && !strings.Contains(string(data), "1995-") {
		t.Fatal("no ISO dates in export")
	}
	found := false
	for _, mode := range []string{"MAIL", "SHIP", "TRUCK", "AIR"} {
		if strings.Contains(string(data), mode) {
			found = true
		}
	}
	if !found {
		t.Fatal("ship modes not decoded to strings")
	}
	for _, tb := range db.Tables() {
		if _, err := os.Stat(dir + "/" + tb.Name + ".csv"); err != nil {
			t.Fatalf("missing export for %s: %v", tb.Name, err)
		}
	}
}
