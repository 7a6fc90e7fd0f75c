package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cl"
	"repro/internal/ops"
)

// TestFusedSelectMatchesUnfused: the fused predicate-conjunction kernel must
// produce, on both devices, exactly the bitmap (and count) of the unfused
// int32 selection → float32 selection-with-candidate composition.
func TestFusedSelectMatchesUnfused(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n := 40013 // odd tail byte
		icol := e.buf(t, n+1)
		fcol := e.buf(t, n+1)
		r := rand.New(rand.NewSource(5))
		iv, fv := icol.I32(), fcol.F32()
		for i := 0; i < n; i++ {
			iv[i] = r.Int31n(1000)
			fv[i] = r.Float32()
		}
		nbw := (BitmapBytes(n) + 3) / 4

		// Unfused: select on the int column, then the float selection ANDs
		// the first bitmap in as its candidate.
		bm1 := e.buf(t, nbw+1)
		bm2 := e.buf(t, nbw+1)
		sp := e.scratch(t)
		ev := e.selectI32(bm1, icol, nil, sp, n, 100, 699, nil)
		wantCount := e.folded(t, sp, e.selectF32(bm2, fcol, bm1, sp, n, 0.25, 0.9, true, false, []*cl.Event{ev}))

		// Fused: both predicates in one pass, count folded device-side.
		fbm := e.buf(t, nbw+1)
		filters := []FusedPredFilter{{Col: icol, Lo: 100, Hi: 699}, f32Filter(fcol, 0.25, 0.9, true, false)}
		if got := e.folded(t, sp, Select(e.q, fbm, nil, sp, filters, 0, n, n, nil)); got != wantCount {
			t.Fatalf("%s: fused count %d, unfused %d", dev.Name, got, wantCount)
		}
		wantBM, gotBM := bm2.Bytes(), fbm.Bytes()
		for i := 0; i < BitmapBytes(n); i++ {
			if wantBM[i] != gotBM[i] {
				t.Fatalf("%s: bitmap byte %d differs: %08b vs %08b", dev.Name, i, gotBM[i], wantBM[i])
			}
		}
	}
}

// TestFusedEvalMatchesUnfused: the fused expression pass must produce, bit
// for bit, the Gather→Gather→MapBinop→MapBinopConst composition, including
// the int→float promotion rules.
func TestFusedEvalMatchesUnfused(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n, m := 30000, 9973
		icol := e.buf(t, n+1)
		fcol := e.buf(t, n+1)
		idx := e.buf(t, m+1)
		r := rand.New(rand.NewSource(9))
		iv, fv, xv := icol.I32(), fcol.F32(), idx.U32()
		for i := 0; i < n; i++ {
			iv[i] = r.Int31n(5000) - 2500
			fv[i] = r.Float32()*10 - 5
		}
		for i := 0; i < m; i++ {
			xv[i] = uint32(r.Intn(n))
		}

		// Unfused: gather both columns, promote the int one, multiply, then
		// subtract the (non-integral) constant — constFirst.
		gi := e.buf(t, m+1)
		gf := e.buf(t, m+1)
		cast := e.buf(t, m+1)
		mul := e.buf(t, m+1)
		want := e.buf(t, m+1)
		ev1 := Gather(e.q, gi, icol, idx, m, nil)
		ev2 := Gather(e.q, gf, fcol, idx, m, nil)
		ev1 = CastI32F32(e.q, cast, gi, m, []*cl.Event{ev1})
		ev := MapBinop(e.q, mul, cast, gf, true, ops.Mul, m, []*cl.Event{ev1, ev2})
		if err := MapBinopConst(e.q, want, mul, true, ops.SubOp, 2.5, 2, true, m, []*cl.Event{ev}).Wait(); err != nil {
			t.Fatal(err)
		}

		// Fused: 2.5 - (i32col[idx] * f32col[idx]) in registers.
		nodes := []FusedExprNode{
			{Kind: ops.FusedCol, Buf: icol},
			{Kind: ops.FusedCol, Buf: fcol, Float: true},
			{Kind: ops.FusedBin, Bin: ops.Mul, L: 0, R: 1, Float: true},
			{Kind: ops.FusedConst, C: 2.5},
			{Kind: ops.FusedBin, Bin: ops.SubOp, L: 3, R: 2, Float: true},
		}
		prog := CompileFusedExpr(dev, nodes, true, 0)
		if !prog.float {
			t.Fatalf("%s: fused expression lost its float promotion", dev.Name)
		}
		got := e.buf(t, m+1)
		if err := FusedEval(e.q, got, idx, prog, m, cl.Cost{}, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		wantV, gotV := want.F32(), got.F32()
		for i := 0; i < m; i++ {
			if wantV[i] != gotV[i] {
				t.Fatalf("%s: position %d: fused %v, unfused %v", dev.Name, i, gotV[i], wantV[i])
			}
		}
	}
}

// TestFusedSumMatchesUnfusedReduce: a fused sum over a dense domain must be
// bit-identical to ReduceF32 over the same values — and ReduceF32 itself
// must produce the same bits on every device (the fixed SumChunks
// partition), which is what keeps hybrid placement changes invisible in
// results.
func TestFusedSumMatchesUnfusedReduce(t *testing.T) {
	n := 123457
	vals := make([]float32, n)
	r := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = r.Float32()*2 - 1
	}
	var sums []float32
	for _, dev := range devices() {
		e := newEnv(dev)
		src := e.f32(t, vals)
		dst := e.buf(t, 1)
		if err := ReduceF32(e.q, dst, src, e.scratch(t), ops.Sum, n, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		sums = append(sums, dst.F32()[0])
	}
	if sums[0] != sums[1] {
		t.Fatalf("f32 sum differs across device classes: %v vs %v (fixed partition broken)", sums[0], sums[1])
	}
}

// TestFusedPredExactMasks: every fused conjunct kind yields, bit for bit, the
// mask of the unfused kernel for the same predicate, and both equal the
// predicate written out row by row — over NaN values and bounds, lo == hi,
// both inclusivities, every comparison operator, an empty integer range and a
// tail byte.
func TestFusedPredExactMasks(t *testing.T) {
	const n = 8*61 + 5 // tail byte of five rows
	nan := float32(math.NaN())
	r := rand.New(rand.NewSource(9))
	specialsF := []float32{nan, 0.5, float32(math.Inf(1)), float32(math.Inf(-1)), -0.0, 0.25}
	for _, dev := range devices() {
		e := newEnv(dev)
		ia, ib, fa, fb := e.buf(t, n), e.buf(t, n), e.buf(t, n), e.buf(t, n)
		for i := 0; i < n; i++ {
			ia.I32()[i], ib.I32()[i] = r.Int31n(9)-4, r.Int31n(9)-4
			fa.F32()[i], fb.F32()[i] = float32(r.Intn(9))/8, float32(r.Intn(9))/8
			if i%7 == 0 {
				fa.F32()[i] = specialsF[r.Intn(len(specialsF))]
			}
			if i%11 == 0 {
				fb.F32()[i] = specialsF[r.Intn(len(specialsF))]
			}
		}
		nbw, sp := BitmapWords(n), e.scratch(t)
		check := func(name string, f FusedPredFilter, unfused func(bm *cl.Buffer) *cl.Event, want func(i int) bool) {
			t.Helper()
			ubm, fbm := e.buf(t, nbw), e.buf(t, nbw)
			if err := unfused(ubm).Wait(); err != nil {
				t.Fatal(err)
			}
			if err := Select(e.q, fbm, nil, sp, []FusedPredFilter{f}, 0, n, n, nil).Wait(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				u := ubm.Bytes()[i/8]>>(i%8)&1 != 0
				f := fbm.Bytes()[i/8]>>(i%8)&1 != 0
				if u != want(i) || f != want(i) {
					t.Fatalf("%s %s row %d: unfused %v, fused %v, want %v", dev.Name, name, i, u, f, want(i))
				}
			}
			if tail := BitmapBytes(n) - 1; ubm.Bytes()[tail]>>(n%8) != 0 || fbm.Bytes()[tail]>>(n%8) != 0 {
				t.Fatalf("%s %s: bits set past row %d", dev.Name, name, n)
			}
		}

		for _, b := range [][2]int32{{-2, 2}, {1, 1}, {3, -3}, {math.MinInt32, math.MaxInt32}, {-4, -4}} {
			lo, hi := b[0], b[1]
			check(fmt.Sprintf("i32[%d,%d]", lo, hi), FusedPredFilter{Col: ia, Lo: lo, Hi: hi},
				func(bm *cl.Buffer) *cl.Event { return e.selectI32(bm, ia, nil, sp, n, lo, hi, nil) },
				func(i int) bool { v := ia.I32()[i]; return v >= lo && v <= hi })
		}
		for _, b := range [][2]float32{{0.25, 0.75}, {0.5, 0.5}, {nan, 0.5}, {0.25, nan}, {float32(math.Inf(-1)), float32(math.Inf(1))}, {0.75, 0.25}} {
			for _, incl := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				lo, hi, li, hi2 := b[0], b[1], incl[0], incl[1]
				check(fmt.Sprintf("f32 %v %v %v %v", lo, hi, li, hi2), f32Filter(fa, lo, hi, li, hi2),
					func(bm *cl.Buffer) *cl.Event { return e.selectF32(bm, fa, nil, sp, n, lo, hi, li, hi2, nil) },
					func(i int) bool {
						v := fa.F32()[i]
						return (v > lo || (li && v == lo)) && (v < hi || (hi2 && v == hi))
					})
			}
		}
		for _, cmp := range []ops.Cmp{ops.Lt, ops.Le, ops.Gt, ops.Ge, ops.Eq, ops.Ne} {
			check(fmt.Sprintf("cmp i32 %v", cmp), FusedPredFilter{IsCmp: true, Col: ia, Other: ib, Cmp: cmp},
				func(bm *cl.Buffer) *cl.Event { return e.selectCmp(bm, ia, ib, nil, sp, false, cmp, n, nil) },
				func(i int) bool { return refCmp(ia.I32()[i], ib.I32()[i], cmp) })
			check(fmt.Sprintf("cmp f32 %v", cmp), FusedPredFilter{IsCmp: true, Float: true, Col: fa, Other: fb, Cmp: cmp},
				func(bm *cl.Buffer) *cl.Event { return e.selectCmp(bm, fa, fb, nil, sp, true, cmp, n, nil) },
				func(i int) bool { return refCmp(fa.F32()[i], fb.F32()[i], cmp) })
		}
	}
}

// refCmp is the comparison written out operator by operator.
func refCmp[T int32 | float32](x, y T, c ops.Cmp) bool {
	switch c {
	case ops.Lt:
		return x < y
	case ops.Le:
		return x <= y
	case ops.Gt:
		return x > y
	case ops.Ge:
		return x >= y
	case ops.Eq:
		return x == y
	default:
		return x != y
	}
}
