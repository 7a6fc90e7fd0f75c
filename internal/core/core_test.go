package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/mem"
	"repro/internal/ops"
)

// engines returns the two Ocelot configurations of the paper's evaluation:
// the same operator host code on the CPU driver and the simulated GPU.
func engines() []*Engine {
	return []*Engine{
		New(cl.NewCPUDevice(4)),
		New(cl.NewGPUDevice(256 << 20)),
	}
}

func i32Col(name string, vals []int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

func f32Col(name string, vals []float32) *bat.BAT {
	s := mem.AllocF32(len(vals))
	copy(s, vals)
	return bat.NewF32(name, s)
}

func randI32(n int, max int32, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int31n(max)
	}
	return out
}

// syncedOIDs syncs a candidate result and returns its oids.
func syncedOIDs(t *testing.T, e *Engine, b *bat.BAT) []uint32 {
	t.Helper()
	if err := e.Sync(b); err != nil {
		t.Fatal(err)
	}
	return b.OIDs()
}

func TestSelectMatchesOracle(t *testing.T) {
	vals := randI32(10007, 1000, 1)
	var want []uint32
	for i, v := range vals {
		if v >= 100 && v <= 499 {
			want = append(want, uint32(i))
		}
	}
	for _, e := range engines() {
		col := i32Col("c", vals)
		got, err := e.Select(col, nil, 100, 499, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(want) {
			t.Fatalf("%s: count = %d, want %d", e.Name(), got.Len(), len(want))
		}
		if !got.OcelotOwned {
			t.Fatalf("%s: selection result must be Ocelot-owned before sync", e.Name())
		}
		oids := syncedOIDs(t, e, got)
		for i := range want {
			if oids[i] != want[i] {
				t.Fatalf("%s: oids[%d] = %d, want %d", e.Name(), i, oids[i], want[i])
			}
		}
	}
}

func TestSelectChainedCandidates(t *testing.T) {
	vals := randI32(5000, 100, 2)
	var want []uint32
	for i, v := range vals {
		if v >= 25 && v <= 49 {
			want = append(want, uint32(i))
		}
	}
	for _, e := range engines() {
		col := i32Col("c", vals)
		first, err := e.Select(col, nil, 0, 49, true, true)
		if err != nil {
			t.Fatal(err)
		}
		second, err := e.Select(col, first, 25, 74, true, true)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, second)
		if len(oids) != len(want) {
			t.Fatalf("%s: chained count = %d, want %d", e.Name(), len(oids), len(want))
		}
		for i := range want {
			if oids[i] != want[i] {
				t.Fatalf("%s: chained mismatch at %d", e.Name(), i)
			}
		}
	}
}

func TestSelectF32AndEmptyInterval(t *testing.T) {
	for _, e := range engines() {
		col := f32Col("disc", []float32{0.04, 0.05, 0.06, 0.07, 0.08})
		got, err := e.Select(col, nil, 0.05, 0.07, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3 {
			t.Fatalf("%s: f32 between = %d, want 3", e.Name(), got.Len())
		}
		icol := i32Col("i", []int32{1, 2, 3})
		empty, err := e.Select(icol, nil, 5, 4, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if empty.Len() != 0 {
			t.Fatalf("%s: empty interval selected %d rows", e.Name(), empty.Len())
		}
	}
}

func TestSelectVoidSubrangeCandidate(t *testing.T) {
	vals := randI32(1000, 10, 3)
	for _, e := range engines() {
		col := i32Col("c", vals)
		cand := bat.NewVoid("cand", 100, 200)
		got, err := e.Select(col, cand, 5, 5, true, true)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, got)
		want := 0
		for i := 100; i < 300; i++ {
			if vals[i] == 5 {
				want++
			}
		}
		if len(oids) != want {
			t.Fatalf("%s: got %d rows, want %d", e.Name(), len(oids), want)
		}
		for _, o := range oids {
			if o < 100 || o >= 300 || vals[o] != 5 {
				t.Fatalf("%s: bad oid %d", e.Name(), o)
			}
		}
	}
}

func TestSelectOnJoinOutputList(t *testing.T) {
	// Selection over a materialised (non-bitmap) candidate list exercises
	// the gather path.
	for _, e := range engines() {
		l := i32Col("l", []int32{7, 8, 9, 7, 8})
		r := i32Col("r", []int32{7, 8})
		lres, _, err := e.Join(l, r)
		if err != nil {
			t.Fatal(err)
		}
		vals := i32Col("v", []int32{10, 20, 30, 40, 50})
		sel, err := e.Select(vals, lres, 15, 45, true, true)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, sel)
		// join keeps rows 0,1,3,4 (values 10,20,40,50); of those 20,40 pass.
		if len(oids) != 2 {
			t.Fatalf("%s: list-cand select = %v", e.Name(), oids)
		}
		for _, o := range oids {
			if vals.I32s()[o] < 15 || vals.I32s()[o] > 45 {
				t.Fatalf("%s: oid %d fails predicate", e.Name(), o)
			}
		}
	}
}

func TestSelectCmpColumns(t *testing.T) {
	for _, e := range engines() {
		a := i32Col("a", []int32{1, 5, 3, 7, 2})
		b := i32Col("b", []int32{2, 4, 3, 9, 1})
		lt, err := e.SelectCmp(a, b, ops.Lt, nil)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, lt)
		if len(oids) != 2 || oids[0] != 0 || oids[1] != 3 {
			t.Fatalf("%s: a<b = %v", e.Name(), oids)
		}
	}
}

// TestSelectCmpOverOIDList: a comparison over a materialised candidate list
// (what a selection becomes once handed to the host) equals the sequential
// baseline on the CPU and the GPU model — a sorted list, an empty one, all
// rows and one row.
func TestSelectCmpOverOIDList(t *testing.T) {
	const n = 5000
	a := i32Col("a", randI32(n, 40, 41))
	b := i32Col("b", randI32(n, 40, 42))
	var every3, all []uint32
	for i := uint32(0); i < n; i++ {
		if i%3 == 0 {
			every3 = append(every3, i)
		}
		all = append(all, i)
	}
	lists := map[string][]uint32{"sorted": every3, "empty": {}, "all": all, "one": {n / 2}}
	for name, list := range lists {
		for _, cmp := range []ops.Cmp{ops.Lt, ops.Eq} {
			want, err := crossMS.SelectCmp(a, b, cmp, oidCol("cand", list))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range engines() {
				got, err := e.SelectCmp(a, b, cmp, oidCol("cand", list))
				if err != nil {
					t.Fatalf("%s, %s list: %v", e.Name(), name, err)
				}
				oids := syncedOIDs(t, e, got)
				if len(oids) != want.Len() {
					t.Fatalf("%s, %s list, cmp %v: %d rows, MS %d", e.Name(), name, cmp, len(oids), want.Len())
				}
				for i, o := range oids {
					if o != want.OIDAt(i) {
						t.Fatalf("%s, %s list, cmp %v: row %d is oid %d, MS %d", e.Name(), name, cmp, i, o, want.OIDAt(i))
					}
				}
			}
		}
	}
}

func TestProjectVariants(t *testing.T) {
	for _, e := range engines() {
		col := f32Col("c", []float32{10, 20, 30, 40, 50})
		// Bitmap candidate from a selection.
		sel, err := e.Select(col, nil, 15, 45, true, true)
		if err != nil {
			t.Fatal(err)
		}
		prj, err := e.Project(sel, col)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(prj); err != nil {
			t.Fatal(err)
		}
		want := []float32{20, 30, 40}
		for i, w := range want {
			if prj.F32s()[i] != w {
				t.Fatalf("%s: bitmap project = %v", e.Name(), prj.F32s())
			}
		}
		// Dense candidate.
		dns, err := e.Project(bat.NewVoid("cand", 1, 3), col)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(dns); err != nil {
			t.Fatal(err)
		}
		if dns.F32s()[0] != 20 || dns.F32s()[2] != 40 {
			t.Fatalf("%s: dense project = %v", e.Name(), dns.F32s())
		}
		// Nil candidate (whole column).
		all, err := e.Project(nil, col)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(all); err != nil {
			t.Fatal(err)
		}
		if all.Len() != 5 || all.F32s()[4] != 50 {
			t.Fatalf("%s: full project = %v", e.Name(), all.F32s())
		}
		// Void column through oids.
		voidCol := bat.NewVoid("v", 100, 50)
		shifted, err := e.Project(bat.NewOID("cand", []uint32{3, 7}), voidCol)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(shifted); err != nil {
			t.Fatal(err)
		}
		if shifted.OIDs()[0] != 103 || shifted.OIDs()[1] != 107 {
			t.Fatalf("%s: void project = %v", e.Name(), shifted.OIDs())
		}
		// Out-of-range dense projection errors.
		if _, err := e.Project(bat.NewVoid("cand", 3, 5), col); err == nil {
			t.Fatalf("%s: out-of-range dense projection must error", e.Name())
		}
	}
}

func TestJoinWithDuplicates(t *testing.T) {
	lv := []int32{1, 2, 3, 2, 9}
	rv := []int32{2, 3, 2, 8}
	type pair struct{ lp, rp uint32 }
	var want []pair
	for i, a := range lv {
		for j, b := range rv {
			if a == b {
				want = append(want, pair{uint32(i), uint32(j)})
			}
		}
	}
	for _, e := range engines() {
		l, r := i32Col("l", lv), i32Col("r", rv)
		lo, ro, err := e.Join(l, r)
		if err != nil {
			t.Fatal(err)
		}
		los := syncedOIDs(t, e, lo)
		ros := syncedOIDs(t, e, ro)
		if len(los) != len(want) {
			t.Fatalf("%s: %d pairs, want %d", e.Name(), len(los), len(want))
		}
		got := make([]pair, len(los))
		for i := range los {
			got[i] = pair{los[i], ros[i]}
		}
		sortPairs := func(ps []pair) {
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].lp != ps[j].lp {
					return ps[i].lp < ps[j].lp
				}
				return ps[i].rp < ps[j].rp
			})
		}
		sortPairs(got)
		sortPairs(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d = %v, want %v", e.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestJoinUniqueBuildSide(t *testing.T) {
	build := make([]int32, 1000)
	for i := range build {
		build[i] = int32(i * 2)
	}
	probe := randI32(5000, 2000, 4)
	var wantCount int
	for _, v := range probe {
		if v%2 == 0 && v < 2000 {
			wantCount++
		}
	}
	for _, e := range engines() {
		l, r := i32Col("probe", probe), i32Col("build", build)
		r.Props.Key = true
		lo, ro, err := e.Join(l, r)
		if err != nil {
			t.Fatal(err)
		}
		los := syncedOIDs(t, e, lo)
		ros := syncedOIDs(t, e, ro)
		if len(los) != wantCount {
			t.Fatalf("%s: unique join = %d pairs, want %d", e.Name(), len(los), wantCount)
		}
		for i := range los {
			if probe[los[i]] != build[ros[i]] {
				t.Fatalf("%s: pair %d mismatched", e.Name(), i)
			}
		}
	}
}

func TestSemiAntiJoin(t *testing.T) {
	for _, e := range engines() {
		l := i32Col("l", []int32{1, 2, 3, 2, 9})
		r := i32Col("r", []int32{2, 2, 8})
		semi, err := e.SemiJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		so := syncedOIDs(t, e, semi)
		if len(so) != 2 || so[0] != 1 || so[1] != 3 {
			t.Fatalf("%s: semijoin = %v", e.Name(), so)
		}
		anti, err := e.AntiJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		ao := syncedOIDs(t, e, anti)
		if len(ao) != 3 {
			t.Fatalf("%s: antijoin = %v", e.Name(), ao)
		}
	}
}

func TestHashTableCacheReuse(t *testing.T) {
	for _, e := range engines() {
		r := i32Col("base", randI32(2000, 500, 5))
		ht1, err := e.BuildHash(r)
		if err != nil {
			t.Fatal(err)
		}
		ht2, err := e.BuildHash(r)
		if err != nil {
			t.Fatal(err)
		}
		if ht1 != ht2 {
			t.Fatalf("%s: hash table of base column not cached (§5.2.6)", e.Name())
		}
		// Ocelot-owned intermediates are not cached.
		sel, err := e.Select(r, nil, 0, 100, true, true)
		if err != nil {
			t.Fatal(err)
		}
		prj, err := e.Project(sel, r)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := e.BuildHash(prj)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := e.BuildHash(prj)
		if err != nil {
			t.Fatal(err)
		}
		if h1 == h2 {
			t.Fatalf("%s: intermediate hash table must not be cached", e.Name())
		}
		h1.Release()
		h2.Release()
	}
}

func TestGroupSortedPath(t *testing.T) {
	for _, e := range engines() {
		col := i32Col("c", []int32{3, 3, 5, 5, 5, 9})
		col.Props.Sorted = true
		g, n, err := e.Group(col, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("%s: ngroups = %d, want 3", e.Name(), n)
		}
		if err := e.Sync(g); err != nil {
			t.Fatal(err)
		}
		want := []int32{0, 0, 1, 1, 1, 2}
		for i, w := range want {
			if g.I32s()[i] != w {
				t.Fatalf("%s: sorted group ids = %v", e.Name(), g.I32s())
			}
		}
	}
}

// TestGroupSparseKeys groups 137 values spread over the int32 range, which
// identity addressing refuses: the ids are dense and number the values in
// ascending order.
func TestGroupSparseKeys(t *testing.T) {
	vals := randI32(20000, 137, 6)
	for i := range vals {
		vals[i] = vals[i]*31_000_000 - 2_100_000_000
	}
	distinct := slices.Compact(slices.Sorted(slices.Values(vals)))
	for _, e := range engines() {
		col := i32Col("c", vals)
		g, n, err := e.Group(col, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(distinct) {
			t.Fatalf("%s: ngroups = %d, want %d", e.Name(), n, len(distinct))
		}
		if err := e.Sync(g); err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if rank, _ := slices.BinarySearch(distinct, v); g.I32s()[i] != int32(rank) {
				t.Fatalf("%s: value %d has id %d, its rank is %d", e.Name(), v, g.I32s()[i], rank)
			}
		}
	}
}

func TestGroupRefinement(t *testing.T) {
	av := []int32{1, 1, 2, 2, 1}
	bv := []int32{9, 8, 9, 9, 9}
	for _, e := range engines() {
		a, b := i32Col("a", av), i32Col("b", bv)
		g1, n1, err := e.Group(a, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		g2, n2, err := e.Group(b, g1, n1)
		if err != nil {
			t.Fatal(err)
		}
		if n2 != 3 {
			t.Fatalf("%s: refined ngroups = %d, want 3", e.Name(), n2)
		}
		if err := e.Sync(g2); err != nil {
			t.Fatal(err)
		}
		ids := g2.I32s()
		if ids[0] != ids[4] || ids[2] != ids[3] || ids[0] == ids[1] || ids[0] == ids[2] {
			t.Fatalf("%s: refined ids = %v", e.Name(), ids)
		}
	}
}

func TestAggrScalarAllKinds(t *testing.T) {
	for _, e := range engines() {
		col := f32Col("v", []float32{1, 2, 3, 4})
		sum, err := e.Aggr(ops.Sum, col, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(sum); err != nil {
			t.Fatal(err)
		}
		if sum.F32s()[0] != 10 {
			t.Fatalf("%s: sum = %v", e.Name(), sum.F32s()[0])
		}
		for _, tc := range []struct {
			kind ops.Agg
			want float32
		}{{ops.Min, 1}, {ops.Max, 4}, {ops.Avg, 2.5}} {
			got, err := e.Aggr(tc.kind, col, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(got); err != nil {
				t.Fatal(err)
			}
			if got.F32s()[0] != tc.want {
				t.Fatalf("%s: %v = %v, want %v", e.Name(), tc.kind, got.F32s()[0], tc.want)
			}
		}
		cnt, err := e.Aggr(ops.Count, col, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cnt.I32s()[0] != 4 {
			t.Fatalf("%s: count = %v", e.Name(), cnt.I32s()[0])
		}
		// Integer scalar aggregates.
		icol := i32Col("iv", []int32{5, -3, 8})
		imin, err := e.Aggr(ops.Min, icol, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(imin); err != nil {
			t.Fatal(err)
		}
		if imin.I32s()[0] != -3 {
			t.Fatalf("%s: int min = %v", e.Name(), imin.I32s()[0])
		}
		iavg, err := e.Aggr(ops.Avg, icol, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(iavg); err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(iavg.F32s()[0])-10.0/3) > 1e-5 {
			t.Fatalf("%s: int avg = %v", e.Name(), iavg.F32s()[0])
		}
	}
}

func TestAggrGroupedAllKinds(t *testing.T) {
	vals := []float32{10, 20, 30, 40, 50}
	gids := []int32{0, 1, 0, 1, 2}
	for _, e := range engines() {
		v := f32Col("v", vals)
		g := i32Col("g", gids)
		sum, err := e.Aggr(ops.Sum, v, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(sum); err != nil {
			t.Fatal(err)
		}
		want := []float32{40, 60, 50}
		for i, w := range want {
			if sum.F32s()[i] != w {
				t.Fatalf("%s: grouped sum = %v", e.Name(), sum.F32s())
			}
		}
		cnt, err := e.Aggr(ops.Count, nil, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(cnt); err != nil {
			t.Fatal(err)
		}
		if cnt.I32s()[0] != 2 || cnt.I32s()[1] != 2 || cnt.I32s()[2] != 1 {
			t.Fatalf("%s: grouped count = %v", e.Name(), cnt.I32s())
		}
		avg, err := e.Aggr(ops.Avg, v, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(avg); err != nil {
			t.Fatal(err)
		}
		if avg.F32s()[0] != 20 || avg.F32s()[1] != 30 || avg.F32s()[2] != 50 {
			t.Fatalf("%s: grouped avg = %v", e.Name(), avg.F32s())
		}
		mn, err := e.Aggr(ops.Min, v, g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(mn); err != nil {
			t.Fatal(err)
		}
		if mn.F32s()[0] != 10 || mn.F32s()[1] != 20 || mn.F32s()[2] != 50 {
			t.Fatalf("%s: grouped min = %v", e.Name(), mn.F32s())
		}
		imax, err := e.Aggr(ops.Max, i32Col("iv", []int32{5, 7, 1, 2, 9}), g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(imax); err != nil {
			t.Fatal(err)
		}
		if imax.I32s()[0] != 5 || imax.I32s()[1] != 7 || imax.I32s()[2] != 9 {
			t.Fatalf("%s: grouped int max = %v", e.Name(), imax.I32s())
		}
	}
}

func TestAggrErrors(t *testing.T) {
	e := New(cl.NewCPUDevice(2))
	if _, err := e.Aggr(ops.Sum, nil, nil, 0); err == nil {
		t.Fatal("sum without values must error")
	}
	if _, err := e.Aggr(ops.Count, nil, nil, 0); err == nil {
		t.Fatal("count without values and groups must error")
	}
	v := f32Col("v", []float32{1})
	g := i32Col("g", []int32{0, 1})
	if _, err := e.Aggr(ops.Sum, v, g, 2); err == nil {
		t.Fatal("misaligned grouped aggregate must error")
	}
}

func TestSortAllTypes(t *testing.T) {
	for _, e := range engines() {
		vals := randI32(30011, 1<<30, 7)
		for i := range vals {
			vals[i] -= 1 << 29 // include negatives
		}
		col := i32Col("c", vals)
		sorted, order, err := e.Sort(col)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(sorted); err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, order)
		s := sorted.I32s()
		seen := make([]bool, len(vals))
		for i := range s {
			if i > 0 && s[i] < s[i-1] {
				t.Fatalf("%s: not sorted at %d", e.Name(), i)
			}
			o := oids[i]
			if seen[o] {
				t.Fatalf("%s: order repeats %d", e.Name(), o)
			}
			seen[o] = true
			if vals[o] != s[i] {
				t.Fatalf("%s: order does not reproduce sorted values", e.Name())
			}
		}
		// Floats too.
		fv := make([]float32, 1000)
		r := rand.New(rand.NewSource(8))
		for i := range fv {
			fv[i] = r.Float32()*200 - 100
		}
		fcol := f32Col("f", fv)
		fsorted, _, err := e.Sort(fcol)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(fsorted); err != nil {
			t.Fatal(err)
		}
		fs := fsorted.F32s()
		for i := 1; i < len(fs); i++ {
			if fs[i] < fs[i-1] {
				t.Fatalf("%s: float sort broken at %d", e.Name(), i)
			}
		}
	}
}

func TestBinopAndPromotion(t *testing.T) {
	for _, e := range engines() {
		a := f32Col("a", []float32{1, 2, 3})
		b := f32Col("b", []float32{4, 5, 6})
		mul, err := e.Binop(ops.Mul, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(mul); err != nil {
			t.Fatal(err)
		}
		if mul.F32s()[2] != 18 {
			t.Fatalf("%s: mul = %v", e.Name(), mul.F32s())
		}
		mixed, err := e.Binop(ops.Mul, i32Col("i", []int32{10, 20, 30}), b)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(mixed); err != nil {
			t.Fatal(err)
		}
		if mixed.T != bat.F32 || mixed.F32s()[0] != 40 {
			t.Fatalf("%s: mixed mul = %v", e.Name(), mixed.F32s())
		}
		oneMinus, err := e.BinopConst(ops.SubOp, a, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(oneMinus); err != nil {
			t.Fatal(err)
		}
		if oneMinus.F32s()[2] != -2 {
			t.Fatalf("%s: 1-a = %v", e.Name(), oneMinus.F32s())
		}
		years, err := e.BinopConst(ops.Div, i32Col("d", []int32{19940215}), 10000, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(years); err != nil {
			t.Fatal(err)
		}
		if years.T != bat.I32 || years.I32s()[0] != 1994 {
			t.Fatalf("%s: year div = %v", e.Name(), years.I32s())
		}
	}
}

func TestOIDUnionBitmapsAndMixed(t *testing.T) {
	vals := randI32(4000, 100, 9)
	for _, e := range engines() {
		col := i32Col("c", vals)
		a, err := e.Select(col, nil, 0, 9, true, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Select(col, nil, 5, 19, true, true)
		if err != nil {
			t.Fatal(err)
		}
		u, err := e.OIDUnion(a, b)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, u)
		want := 0
		for _, v := range vals {
			if v <= 19 {
				want++
			}
		}
		if len(oids) != want {
			t.Fatalf("%s: union = %d rows, want %d", e.Name(), len(oids), want)
		}
		for i := 1; i < len(oids); i++ {
			if oids[i] <= oids[i-1] {
				t.Fatalf("%s: union not strictly ascending", e.Name())
			}
		}
	}
}

func TestSyncHandsOwnershipBack(t *testing.T) {
	e := New(cl.NewCPUDevice(2))
	col := i32Col("c", randI32(100, 10, 10))
	sel, err := e.Select(col, nil, 0, 5, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.OcelotOwned {
		t.Fatal("result must start Ocelot-owned")
	}
	if err := e.Sync(sel); err != nil {
		t.Fatal(err)
	}
	if sel.OcelotOwned {
		t.Fatal("sync must clear ownership")
	}
	// Syncing twice is harmless.
	if err := e.Sync(sel); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseDropsDeviceState(t *testing.T) {
	e := New(cl.NewGPUDevice(64 << 20))
	col := i32Col("c", randI32(10000, 10, 11))
	sel, err := e.Select(col, nil, 0, 5, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	before := e.Device().Allocated()
	e.Release(sel)
	e.Release(col)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if after := e.Device().Allocated(); after >= before {
		t.Fatalf("release freed nothing: %d -> %d", before, after)
	}
}

func TestBATFreeCallbackDropsCache(t *testing.T) {
	e := New(cl.NewGPUDevice(64 << 20))
	col := i32Col("victim", randI32(50000, 100, 12))
	if _, err := e.BuildHash(col); err != nil {
		t.Fatal(err)
	}
	sel, err := e.Select(col, nil, 0, 50, true, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = sel
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	before := e.Device().Allocated()
	col.Free()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	if after := e.Device().Allocated(); after >= before {
		t.Fatalf("BAT free did not shrink device allocation: %d -> %d", before, after)
	}
}

// TestMemoryPressureEvictionAndOffload runs a query-sized workload on a GPU
// whose memory is half a base column short of the plan's own peak footprint,
// forcing the §3.3 protocol: base-cache eviction and intermediate offload,
// with results staying correct.
func TestMemoryPressureEvictionAndOffload(t *testing.T) {
	n := 200000
	vals := randI32(n, 1000, 13)
	col := i32Col("big", vals)
	oth := i32Col("other", randI32(n, 50, 14))
	want := 0
	for _, v := range vals {
		if v >= 100 && v <= 499 {
			want++
		}
	}
	// plan counts the selected rows per group; drain finishes the queue
	// after every operator, so that no operator's transient scratch
	// outlives it into the next one's peak.
	plan := func(e *Engine, drain bool) {
		t.Helper()
		step := func(err error) {
			t.Helper()
			if err == nil && drain {
				err = e.Finish()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		sel, err := e.Select(col, nil, 100, 499, true, true)
		step(err)
		prj, err := e.Project(sel, oth)
		step(err)
		g, ng, err := e.Group(prj, nil, 0)
		step(err)
		cnt, err := e.Aggr(ops.Count, nil, g, ng)
		step(err)
		step(e.Sync(cnt))
		var total int64
		for _, c := range cnt.I32s() {
			total += int64(c)
		}
		if total != int64(want) {
			t.Fatalf("counted %d rows, want %d", total, want)
		}
	}

	// The plan's real footprint: its peak on a device it fits with room to
	// spare. Half a base column less and the working set no longer fits,
	// while the largest single operator (the grouping's slot table plus its
	// input and output) still does — the floor the paper's GPU runs face
	// too (§5.1).
	roomy := New(cl.NewGPUDevice(64 << 20))
	plan(roomy, true)
	budget := roomy.Device().PeakAllocated() - int64(n)*4/2

	e := New(cl.NewGPUDevice(budget))
	plan(e, false)
	ev, off, _ := e.Memory().Stats()
	if ev+off == 0 {
		t.Fatalf("expected evictions or offloads with %d bytes of device memory", budget)
	}
	tr, bytes := e.Device().Transfers()
	if tr == 0 || bytes == 0 {
		t.Fatal("expected PCIe traffic under memory pressure")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	e := New(cl.NewGPUDevice(1 << 20))
	pinned := i32Col("pinned", randI32(100000, 10, 15)) // 400 KB
	if _, _, err := e.Memory().ValuesForRead(pinned); err != nil {
		t.Fatal(err)
	}
	e.Memory().Pin(pinned)
	// Allocate more than remaining capacity; the pinned base must survive.
	other := i32Col("other", randI32(100000, 10, 16))
	sel, err := e.Select(other, nil, 0, 5, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(sel); err != nil {
		t.Fatal(err)
	}
	e.mm.mu.Lock()
	ent := e.mm.entries[pinned]
	ok := ent != nil && ent.buf != nil
	e.mm.mu.Unlock()
	if !ok {
		t.Fatal("pinned base BAT was evicted")
	}
	e.Memory().Unpin(pinned)
}

func TestGPUTimelineAdvancesAcrossOperators(t *testing.T) {
	e := New(cl.NewGPUDevice(256 << 20))
	col := i32Col("c", randI32(1<<20, 1000, 17))
	before := e.Device().TimelineNow()
	sel, err := e.Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(sel); err != nil {
		t.Fatal(err)
	}
	if e.Device().TimelineNow() <= before {
		t.Fatal("virtual timeline did not advance")
	}
}
