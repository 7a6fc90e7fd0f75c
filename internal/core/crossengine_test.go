package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/monet"
	"repro/internal/ops"
)

// Cross-engine property tests: for arbitrary inputs, the hardware-oblivious
// operators must agree with the hand-tuned sequential baseline. These are
// the drop-in-replacement guarantees of §3.1, checked with testing/quick on
// randomly generated data rather than fixed fixtures.

var crossMS = monet.NewSequential()

func crossEngines() []*Engine {
	return []*Engine{New(cl.NewCPUDevice(4)), New(cl.NewGPUDevice(128 << 20))}
}

func clampVals(raw []int32, mod int32) []int32 {
	out := make([]int32, len(raw))
	for i, v := range raw {
		out[i] = (v%mod + mod) % mod
	}
	return out
}

func TestQuickSelectAgrees(t *testing.T) {
	f := func(raw []int32, lo8, hi8 uint8) bool {
		vals := clampVals(raw, 256)
		lo, hi := float64(lo8), float64(hi8)
		ref, err := crossMS.Select(i32Col("c", vals), nil, lo, hi, true, true)
		if err != nil {
			return false
		}
		for _, e := range crossEngines() {
			got, err := e.Select(i32Col("c", vals), nil, lo, hi, true, true)
			if err != nil {
				return false
			}
			if err := e.Sync(got); err != nil {
				return false
			}
			if got.Len() != ref.Len() {
				return false
			}
			for i := range ref.OIDs() {
				if got.OIDs()[i] != ref.OIDs()[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGroupAgrees(t *testing.T) {
	f := func(raw []int32, mod8 uint8) bool {
		mod := int32(mod8%31) + 1
		vals := clampVals(raw, mod)
		_, refN, err := crossMS.Group(i32Col("c", vals), nil, 0)
		if err != nil {
			return false
		}
		for _, e := range crossEngines() {
			g, n, err := e.Group(i32Col("c", vals), nil, 0)
			if err != nil || n != refN {
				return false
			}
			if err := e.Sync(g); err != nil {
				return false
			}
			// Numbering may differ; the partition must not: equal values ⇔
			// equal ids.
			byVal := map[int32]int32{}
			for i, v := range vals {
				id := g.I32s()[i]
				if prev, ok := byVal[v]; ok && prev != id {
					return false
				}
				byVal[v] = id
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJoinAgrees(t *testing.T) {
	type pair struct{ l, r uint32 }
	canon := func(lo, ro []uint32) []pair {
		ps := make([]pair, len(lo))
		for i := range lo {
			ps[i] = pair{lo[i], ro[i]}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].l != ps[j].l {
				return ps[i].l < ps[j].l
			}
			return ps[i].r < ps[j].r
		})
		return ps
	}
	f := func(lraw, rraw []int32) bool {
		lv := clampVals(lraw, 16)
		rv := clampVals(rraw, 16)
		refL, refR, err := crossMS.Join(i32Col("l", lv), i32Col("r", rv))
		if err != nil {
			return false
		}
		want := canon(refL.OIDs(), refR.OIDs())
		for _, e := range crossEngines() {
			gl, gr, err := e.Join(i32Col("l", lv), i32Col("r", rv))
			if err != nil {
				return false
			}
			if err := e.Sync(gl); err != nil {
				return false
			}
			if err := e.Sync(gr); err != nil {
				return false
			}
			got := canon(gl.MaterializeOIDs(), gr.MaterializeOIDs())
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSortAgrees(t *testing.T) {
	f := func(raw []int32) bool {
		ref, _, err := crossMS.Sort(i32Col("c", raw))
		if err != nil {
			return false
		}
		for _, e := range crossEngines() {
			got, order, err := e.Sort(i32Col("c", raw))
			if err != nil {
				return false
			}
			if err := e.Sync(got); err != nil {
				return false
			}
			if err := e.Sync(order); err != nil {
				return false
			}
			if got.Len() != ref.Len() {
				return false
			}
			if got.Len() == 0 {
				continue
			}
			a, b := got.I32s(), ref.I32s()
			for i := range b {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fourConfigs returns the four evaluated operator configurations (MS, MP,
// Ocelot-CPU, Ocelot-GPU) as the engine-neutral interface, for edge-case
// equivalence checks that cross the monet/core boundary.
func fourConfigs() map[string]ops.Operators {
	return map[string]ops.Operators{
		"MS":  monet.NewSequential(),
		"MP":  monet.NewParallel(4),
		"CPU": New(cl.NewCPUDevice(4)),
		"GPU": New(cl.NewGPUDevice(128 << 20)),
	}
}

func oidCol(name string, vals []uint32) *bat.BAT {
	cp := make([]uint32, len(vals))
	copy(cp, vals)
	b := bat.NewOID(name, cp)
	b.Props.Sorted = true
	return b
}

// TestOIDUnionEdgeCasesAcrossEngines drives the disjunction combine through
// every configuration on the candidate-list shapes query plans actually
// produce: empty candidates on either or both sides, Void (dense) inputs,
// overlapping ranges, and lists carrying duplicate oids. All four engines
// must produce identical oid sequences.
func TestOIDUnionEdgeCasesAcrossEngines(t *testing.T) {
	cases := []struct {
		name string
		a, b func() *bat.BAT
	}{
		{"both empty", func() *bat.BAT { return oidCol("a", nil) }, func() *bat.BAT { return oidCol("b", nil) }},
		{"left empty", func() *bat.BAT { return oidCol("a", nil) }, func() *bat.BAT { return oidCol("b", []uint32{1, 3, 5}) }},
		{"right empty", func() *bat.BAT { return oidCol("a", []uint32{0, 2}) }, func() *bat.BAT { return oidCol("b", nil) }},
		{"void vs list", func() *bat.BAT { return bat.NewVoid("a", 2, 4) }, func() *bat.BAT { return oidCol("b", []uint32{0, 3, 9}) }},
		{"void vs void", func() *bat.BAT { return bat.NewVoid("a", 0, 3) }, func() *bat.BAT { return bat.NewVoid("b", 2, 3) }},
		{"empty void", func() *bat.BAT { return bat.NewVoid("a", 5, 0) }, func() *bat.BAT { return oidCol("b", []uint32{5}) }},
		{"overlap", func() *bat.BAT { return oidCol("a", []uint32{1, 2, 3, 7}) }, func() *bat.BAT { return oidCol("b", []uint32{2, 3, 4}) }},
		{"duplicates within", func() *bat.BAT { return oidCol("a", []uint32{1, 1, 4}) }, func() *bat.BAT { return oidCol("b", []uint32{1, 4, 4}) }},
		{"identical", func() *bat.BAT { return oidCol("a", []uint32{0, 5, 9}) }, func() *bat.BAT { return oidCol("b", []uint32{0, 5, 9}) }},
	}
	for _, tc := range cases {
		var ref []uint32
		var refSet bool
		for label, e := range fourConfigs() {
			got, err := e.OIDUnion(tc.a(), tc.b())
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, label, err)
			}
			if err := e.Sync(got); err != nil {
				t.Fatalf("%s on %s: sync: %v", tc.name, label, err)
			}
			oids := got.MaterializeOIDs()
			if !refSet {
				ref = append([]uint32(nil), oids...)
				refSet = true
				continue
			}
			if len(oids) != len(ref) {
				t.Fatalf("%s on %s: %d oids, want %d (%v vs %v)", tc.name, label, len(oids), len(ref), oids, ref)
			}
			for i := range ref {
				if oids[i] != ref[i] {
					t.Fatalf("%s on %s: oid[%d] = %d, want %d", tc.name, label, i, oids[i], ref[i])
				}
			}
		}
	}
}

// TestThetaJoinEdgeCasesAcrossEngines checks the nested-loop join on empty
// inputs, single rows, duplicate values and both column types, across all
// four configurations; Void inputs must be rejected consistently, since a
// Void tail has no values to compare.
func TestThetaJoinEdgeCasesAcrossEngines(t *testing.T) {
	type pair struct{ l, r uint32 }
	canon := func(lo, ro []uint32) []pair {
		ps := make([]pair, len(lo))
		for i := range lo {
			ps[i] = pair{lo[i], ro[i]}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].l != ps[j].l {
				return ps[i].l < ps[j].l
			}
			return ps[i].r < ps[j].r
		})
		return ps
	}
	cases := []struct {
		name string
		l, r func() *bat.BAT
		cmp  ops.Cmp
	}{
		{"both empty", func() *bat.BAT { return i32Col("l", nil) }, func() *bat.BAT { return i32Col("r", nil) }, ops.Lt},
		{"left empty", func() *bat.BAT { return i32Col("l", nil) }, func() *bat.BAT { return i32Col("r", []int32{1, 2}) }, ops.Lt},
		{"right empty", func() *bat.BAT { return i32Col("l", []int32{1, 2}) }, func() *bat.BAT { return i32Col("r", nil) }, ops.Gt},
		{"duplicates eq", func() *bat.BAT { return i32Col("l", []int32{2, 2, 3}) }, func() *bat.BAT { return i32Col("r", []int32{2, 2}) }, ops.Eq},
		{"all match", func() *bat.BAT { return i32Col("l", []int32{1, 1}) }, func() *bat.BAT { return i32Col("r", []int32{5, 6, 7}) }, ops.Lt},
		{"negatives", func() *bat.BAT { return i32Col("l", []int32{-3, 0, 3}) }, func() *bat.BAT { return i32Col("r", []int32{-1}) }, ops.Le},
		{"floats", func() *bat.BAT { return f32Col("l", []float32{1.5, -2.5}) }, func() *bat.BAT { return f32Col("r", []float32{0, 1.5}) }, ops.Ge},
	}
	for _, tc := range cases {
		var ref []pair
		var refSet bool
		for label, e := range fourConfigs() {
			gl, gr, err := e.ThetaJoin(tc.l(), tc.r(), tc.cmp)
			if err != nil {
				t.Fatalf("%s on %s: %v", tc.name, label, err)
			}
			if err := e.Sync(gl); err != nil {
				t.Fatalf("%s on %s: sync l: %v", tc.name, label, err)
			}
			if err := e.Sync(gr); err != nil {
				t.Fatalf("%s on %s: sync r: %v", tc.name, label, err)
			}
			got := canon(gl.MaterializeOIDs(), gr.MaterializeOIDs())
			if !refSet {
				ref = got
				refSet = true
				continue
			}
			if len(got) != len(ref) {
				t.Fatalf("%s on %s: %d pairs, want %d", tc.name, label, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s on %s: pair %d = %v, want %v", tc.name, label, i, got[i], ref[i])
				}
			}
		}
	}

	// Void inputs carry no values: every engine must reject them rather
	// than diverge silently.
	for label, e := range fourConfigs() {
		if _, _, err := e.ThetaJoin(bat.NewVoid("l", 0, 3), bat.NewVoid("r", 0, 2), ops.Lt); err == nil {
			t.Fatalf("%s accepted a theta join over Void inputs", label)
		}
	}
}

func TestQuickAggregatesAgree(t *testing.T) {
	f := func(raw []int32, mod8 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		mod := int32(mod8%13) + 1
		vals := clampVals(raw, 1000)
		gids := clampVals(raw, mod)
		ngroups := int(mod)
		for _, kind := range []ops.Agg{ops.Sum, ops.Min, ops.Max, ops.Count} {
			var refVals *bat.BAT
			if kind != ops.Count {
				refVals = i32Col("v", vals)
			}
			ref, err := crossMS.Aggr(kind, refVals, i32Col("g", gids), ngroups)
			if err != nil {
				return false
			}
			for _, e := range crossEngines() {
				var v *bat.BAT
				if kind != ops.Count {
					v = i32Col("v", vals)
				}
				got, err := e.Aggr(kind, v, i32Col("g", gids), ngroups)
				if err != nil {
					return false
				}
				if err := e.Sync(got); err != nil {
					return false
				}
				for g := 0; g < ngroups; g++ {
					// Empty groups carry the fold identity, which differs
					// between engines for min/max; only compare non-empty.
					present := false
					for _, id := range gids {
						if int(id) == g {
							present = true
							break
						}
					}
					if present && got.I32s()[g] != ref.I32s()[g] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptySelectionAggregatesAgree: scalar aggregates over a selection that
// kept no row. Count and Sum have an answer — zero, typed like the input —
// and every engine must give it (MonetDB's one-row zero was an Ocelot error
// until the SF ≤ 0.002 instances hit it). Min, Max and Avg of nothing have
// no value: MonetDB hands back its fold identities and a zero average,
// Ocelot refuses; the test pins both so a change to either is a decision.
func TestEmptySelectionAggregatesAgree(t *testing.T) {
	keys := i32Col("k", []int32{5, 6, 7, 8})
	cols := []*bat.BAT{i32Col("vi", []int32{1, 2, 3, 4}), f32Col("vf", []float32{1, 2, 3, 4})}
	emptyVals := func(o ops.Operators, col *bat.BAT) *bat.BAT {
		t.Helper()
		sel, err := o.Select(keys, nil, 100, 200, true, true)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := o.Project(sel, col)
		if err != nil {
			t.Fatal(err)
		}
		if vals.Len() != 0 {
			t.Fatalf("%s: selection kept %d rows", o.Name(), vals.Len())
		}
		return vals
	}
	msIdentity := map[ops.Agg][2]float64{
		ops.Min: {math.MaxInt32, math.Inf(1)},
		ops.Max: {math.MinInt32, math.Inf(-1)},
		ops.Avg: {0, 0},
	}
	for ci, col := range cols {
		for _, kind := range []ops.Agg{ops.Count, ops.Sum, ops.Min, ops.Max, ops.Avg} {
			ref, err := crossMS.Aggr(kind, emptyVals(crossMS, col), nil, 0)
			if err != nil {
				t.Fatalf("MS %v(%s): %v", kind, col.Name, err)
			}
			if ref.Len() != 1 {
				t.Fatalf("MS %v(%s): %d rows, want 1", kind, col.Name, ref.Len())
			}
			if id, ok := msIdentity[kind]; ok {
				if got := scalarOf(ref); got != id[ci] {
					t.Fatalf("MS %v(%s) of nothing = %v, pinned %v", kind, col.Name, got, id[ci])
				}
			}
			for _, e := range crossEngines() {
				got, err := e.Aggr(kind, emptyVals(e, col), nil, 0)
				if _, noValue := msIdentity[kind]; noValue {
					if err == nil {
						t.Fatalf("%s %v(%s) of nothing = %v, pinned: an error", e.Name(), kind, col.Name, scalarOf(got))
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %v(%s): %v", e.Name(), kind, col.Name, err)
				}
				if err := e.Sync(got); err != nil {
					t.Fatal(err)
				}
				if got.T != ref.T || got.Len() != 1 || scalarOf(got) != scalarOf(ref) {
					t.Fatalf("%s %v(%s) = %v %v (%d rows), MS %v %v", e.Name(), kind, col.Name,
						got.T, scalarOf(got), got.Len(), ref.T, scalarOf(ref))
				}
			}
		}
	}
}

// scalarOf reads a one-row numeric BAT.
func scalarOf(b *bat.BAT) float64 {
	if b.T == bat.F32 {
		return float64(b.F32s()[0])
	}
	return float64(b.I32s()[0])
}
