package kernels

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cl"
	"repro/internal/ops"
)

func devices() []*cl.Device {
	return []*cl.Device{cl.NewCPUDevice(4), cl.NewGPUDevice(256 << 20)}
}

type env struct {
	dev *cl.Device
	ctx *cl.Context
	q   *cl.Queue
}

func newEnv(dev *cl.Device) *env {
	ctx := cl.NewContext(dev)
	return &env{dev: dev, ctx: ctx, q: cl.NewQueue(ctx)}
}

func (e *env) buf(t testing.TB, words int) *cl.Buffer {
	t.Helper()
	b, err := e.ctx.CreateBuffer(words * 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (e *env) u32(t testing.TB, vals []uint32) *cl.Buffer {
	b := e.buf(t, len(vals)+1)
	copy(b.U32(), vals)
	return b
}

func (e *env) i32(t testing.TB, vals []int32) *cl.Buffer {
	b := e.buf(t, len(vals)+1)
	copy(b.I32(), vals)
	return b
}

func (e *env) f32(t testing.TB, vals []float32) *cl.Buffer {
	b := e.buf(t, len(vals)+1)
	copy(b.F32(), vals)
	return b
}

func (e *env) scratch(t testing.TB) *cl.Buffer {
	return e.buf(t, ReducePartialWords(e.dev))
}

// folded waits for a bitmap producer and returns the population count it
// left in partials.
func (e *env) folded(t testing.TB, partials *cl.Buffer, ev *cl.Event) uint32 {
	t.Helper()
	total := e.buf(t, 1)
	if err := FoldCount(e.q, partials, total, []*cl.Event{ev}).Wait(); err != nil {
		t.Fatal(err)
	}
	return total.U32()[0]
}

// selectI32 enqueues the one-filter selection lo <= col <= hi.
func (e *env) selectI32(bm, col, cand, partials *cl.Buffer, n int, lo, hi int32, wait []*cl.Event) *cl.Event {
	return Select(e.q, bm, cand, partials, []FusedPredFilter{{Col: col, Lo: lo, Hi: hi}}, 0, n, n, wait)
}

// f32Filter collapses float bounds the way the engine does; an empty
// interval stays a filter (Lo > Hi), so that the kernel still runs.
func f32Filter(col *cl.Buffer, lo, hi float32, loIncl, hiIncl bool) FusedPredFilter {
	l, h, ok := F32RangeBounds(lo, hi, loIncl, hiIncl)
	if !ok {
		l, h = 1, 0
	}
	return FusedPredFilter{Float: true, Col: col, Lo: l, Hi: h}
}

func (e *env) selectF32(bm, col, cand, partials *cl.Buffer, n int, lo, hi float32, loIncl, hiIncl bool, wait []*cl.Event) *cl.Event {
	return Select(e.q, bm, cand, partials, []FusedPredFilter{f32Filter(col, lo, hi, loIncl, hiIncl)}, 0, n, n, wait)
}

func (e *env) selectCmp(bm, a, b, cand, partials *cl.Buffer, isFloat bool, cmp ops.Cmp, n int, wait []*cl.Event) *cl.Event {
	return Select(e.q, bm, cand, partials, []FusedPredFilter{{IsCmp: true, Float: isFloat, Col: a, Other: b, Cmp: cmp}}, 0, n, n, wait)
}

func TestPrefixSum(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		for _, n := range []int{0, 1, 5, 1000, 4099} {
			src := make([]uint32, n)
			var want uint32
			r := rand.New(rand.NewSource(int64(n)))
			for i := range src {
				src[i] = uint32(r.Intn(10))
			}
			sb := e.u32(t, src)
			db := e.buf(t, n+1)
			total := e.buf(t, 1)
			ev := PrefixSum(e.q, db, sb, e.scratch(t), total, n, nil)
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			var run uint32
			for i := 0; i < n; i++ {
				if db.U32()[i] != run {
					t.Fatalf("%s n=%d: scan[%d] = %d, want %d", dev.Name, n, i, db.U32()[i], run)
				}
				run += src[i]
			}
			want = run
			if total.U32()[0] != want {
				t.Fatalf("%s n=%d: total = %d, want %d", dev.Name, n, total.U32()[0], want)
			}
		}
	}
}

func TestPrefixSumProperty(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(4))
	f := func(raw []uint8) bool {
		src := make([]uint32, len(raw))
		for i, v := range raw {
			src[i] = uint32(v)
		}
		n := len(src)
		db := e.buf(t, n+1)
		total := e.buf(t, 1)
		if err := PrefixSum(e.q, db, e.u32(t, src), e.scratch(t), total, n, nil).Wait(); err != nil {
			return false
		}
		var run uint32
		for i := 0; i < n; i++ {
			if db.U32()[i] != run {
				return false
			}
			run += src[i]
		}
		return total.U32()[0] == run
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBitmapAndCountAndMaterialize(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n := 10007
		vals := make([]int32, n)
		r := rand.New(rand.NewSource(7))
		for i := range vals {
			vals[i] = r.Int31n(1000)
		}
		col := e.i32(t, vals)
		bm := e.buf(t, (BitmapBytes(n)+3)/4+1)
		sp := e.scratch(t)
		got := int(e.folded(t, sp, e.selectI32(bm, col, nil, sp, n, 100, 299, nil)))
		var want []uint32
		for i, v := range vals {
			if v >= 100 && v <= 299 {
				want = append(want, uint32(i))
			}
		}
		if got != len(want) {
			t.Fatalf("%s: count = %d, want %d", dev.Name, got, len(want))
		}

		oids := e.buf(t, len(want)+1)
		if err := Materialize(e.q, oids, bm, e.scratch(t), n, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if oids.U32()[i] != w {
				t.Fatalf("%s: materialised[%d] = %d, want %d", dev.Name, i, oids.U32()[i], w)
			}
		}
	}
}

func TestSelectWithCandidateBitmapAnds(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n := 1000
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(i % 100)
		}
		col := e.i32(t, vals)
		words := (BitmapBytes(n)+3)/4 + 1
		bm1 := e.buf(t, words)
		sp := e.scratch(t)
		ev1 := e.selectI32(bm1, col, nil, sp, n, 0, 49, nil)
		bm2 := e.buf(t, words)
		got := e.folded(t, sp, e.selectI32(bm2, col, bm1, sp, n, 25, 74, []*cl.Event{ev1}))
		want := 0
		for _, v := range vals {
			if v >= 25 && v <= 49 {
				want++
			}
		}
		if int(got) != want {
			t.Fatalf("%s: chained select count = %d, want %d", dev.Name, got, want)
		}
	}
}

// TestSelectKernelsExactBitmaps compares every byte of the three unfused
// selection kernels against a row-at-a-time reference: a tail byte, no / dead
// / sparse / full candidates (dead candidate bytes skip the predicate but
// must still write zero over recycled memory), and for the branch-free int32
// range the bounds where the unsigned trick could go wrong — negative,
// spanning zero, the whole domain, empty (lo > hi).
func TestSelectKernelsExactBitmaps(t *testing.T) {
	const n = 1003
	r := rand.New(rand.NewSource(11))
	iv, iw, fv := make([]int32, n), make([]int32, n), make([]float32, n)
	for i := range iv {
		iv[i], iw[i], fv[i] = r.Int31n(2001)-1000, r.Int31n(2001)-1000, r.Float32()*2-1
	}
	iv[0], iv[1] = math.MinInt32, math.MaxInt32
	nb := BitmapBytes(n)
	cands := map[string][]byte{"none": nil, "dead": make([]byte, nb), "sparse": make([]byte, nb), "full": make([]byte, nb)}
	for b := 0; b < nb; b++ {
		if r.Intn(4) == 0 {
			cands["sparse"][b] = byte(r.Intn(256))
		}
		cands["full"][b] = 0xFF
	}
	i32Ranges := [][2]int32{{-100, 250}, {-900, -300}, {0, 0}, {math.MinInt32, math.MaxInt32}, {math.MinInt32, -1}, {5, -5}, {math.MaxInt32, math.MinInt32}}
	for _, dev := range devices() {
		e := newEnv(dev)
		ib, wb, fb, sp := e.i32(t, iv), e.i32(t, iw), e.f32(t, fv), e.scratch(t)
		for cname, cand := range cands {
			var cb *cl.Buffer
			if cand != nil {
				cb = e.buf(t, (nb+3)/4+1)
				copy(cb.Bytes(), cand)
			}
			check := func(what string, enqueue func(bm *cl.Buffer) *cl.Event, pred func(i int) bool) {
				t.Helper()
				bm := e.buf(t, (nb+3)/4+1)
				for i := range bm.Bytes() {
					bm.Bytes()[i] = 0xA5 // recycled scratch: every byte must be written
				}
				if err := enqueue(bm).Wait(); err != nil {
					t.Fatal(err)
				}
				for b := 0; b < nb; b++ {
					var want byte
					for i := b * 8; i < min(b*8+8, n); i++ {
						if pred(i) && (cand == nil || cand[b]&(1<<uint(i%8)) != 0) {
							want |= 1 << uint(i%8)
						}
					}
					if got := bm.Bytes()[b]; got != want {
						t.Fatalf("%s %s cand=%s: byte %d = %08b, want %08b", dev.Name, what, cname, b, got, want)
					}
				}
				_ = bm.Release()
			}
			for _, rg := range i32Ranges {
				lo, hi := rg[0], rg[1]
				check(fmt.Sprintf("i32[%d,%d]", lo, hi),
					func(bm *cl.Buffer) *cl.Event { return e.selectI32(bm, ib, cb, sp, n, lo, hi, nil) },
					func(i int) bool { return iv[i] >= lo && iv[i] <= hi })
			}
			check("f32(-0.5,0.25]",
				func(bm *cl.Buffer) *cl.Event { return e.selectF32(bm, fb, cb, sp, n, -0.5, 0.25, false, true, nil) },
				func(i int) bool { return fv[i] > -0.5 && fv[i] <= 0.25 })
			check("cmp<",
				func(bm *cl.Buffer) *cl.Event { return e.selectCmp(bm, ib, wb, cb, sp, false, ops.Lt, n, nil) },
				func(i int) bool { return iv[i] < iw[i] })
		}
	}
}

func TestSelectF32Bounds(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(2))
	vals := []float32{0.04, 0.05, 0.06, 0.07, 0.08}
	col := e.f32(t, vals)
	bm := e.buf(t, 2)
	sp := e.scratch(t)
	if got := e.folded(t, sp, e.selectF32(bm, col, nil, sp, len(vals), 0.05, 0.07, true, true, nil)); got != 3 {
		t.Fatalf("inclusive f32 between = %d, want 3", got)
	}
	if got := e.folded(t, sp, e.selectF32(bm, col, nil, sp, len(vals), 0.05, 0.07, false, false, nil)); got != 1 {
		t.Fatalf("exclusive f32 between = %d, want 1", got)
	}
}

func TestSelectCmpKernel(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		a := e.i32(t, []int32{1, 5, 3, 7, 2})
		b := e.i32(t, []int32{2, 4, 3, 9, 1})
		bm := e.buf(t, 2)
		sp := e.scratch(t)
		if got := e.folded(t, sp, e.selectCmp(bm, a, b, nil, sp, false, ops.Lt, 5, nil)); got != 2 {
			t.Fatalf("%s: a<b count = %d, want 2", dev.Name, got)
		}
	}
}

func TestBitmapOr(t *testing.T) {
	e := newEnv(cl.NewGPUDevice(64 << 20))
	a := e.u32(t, []uint32{0x0F0F0F0F})
	b := e.u32(t, []uint32{0x00FF00FF})
	d, sp := e.buf(t, 2), e.scratch(t)
	if got := e.folded(t, sp, BitmapOr(e.q, d, a, b, sp, 32, nil)); d.U32()[0] != 0x0FFF0FFF || got != 24 {
		t.Fatalf("or = %#x, %d bits", d.U32()[0], got)
	}
}

func TestGatherAndVariants(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		col := e.i32(t, []int32{10, 20, 30, 40, 50})
		idx := e.u32(t, []uint32{4, 0, 2})
		dst := e.buf(t, 4)
		if err := Gather(e.q, dst, col, idx, 3, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if dst.I32()[0] != 50 || dst.I32()[1] != 10 || dst.I32()[2] != 30 {
			t.Fatalf("%s: gather = %v", dev.Name, dst.I32()[:3])
		}
		if err := GatherShift(e.q, dst, idx, 3, 100, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if dst.U32()[0] != 104 || dst.U32()[2] != 102 {
			t.Fatalf("%s: gather_shift = %v", dev.Name, dst.U32()[:3])
		}
		if err := CopyRange(e.q, dst, col, 1, 3, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if dst.I32()[0] != 20 || dst.I32()[2] != 40 {
			t.Fatalf("%s: copy_range = %v", dev.Name, dst.I32()[:3])
		}
	}
}

func TestMapKernels(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		a := e.f32(t, []float32{1, 2, 3})
		b := e.f32(t, []float32{4, 5, 6})
		d := e.buf(t, 4)
		if err := MapBinop(e.q, d, a, b, true, ops.Mul, 3, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if d.F32()[2] != 18 {
			t.Fatalf("%s: f32 mul = %v", dev.Name, d.F32()[:3])
		}
		if err := MapBinopConst(e.q, d, a, true, ops.SubOp, 1, 0, true, 3, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if d.F32()[0] != 0 || d.F32()[2] != -2 {
			t.Fatalf("%s: 1-a = %v", dev.Name, d.F32()[:3])
		}
		ai := e.i32(t, []int32{19940215, 19951231})
		if err := MapBinopConst(e.q, d, ai, false, ops.Div, 0, 10000, false, 2, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if d.I32()[0] != 1994 || d.I32()[1] != 1995 {
			t.Fatalf("%s: year div = %v", dev.Name, d.I32()[:2])
		}
		if err := CastI32F32(e.q, d, ai, 2, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if d.F32()[0] != 19940216 { // nearest float32 to 19940215
			t.Fatalf("%s: cast = %v", dev.Name, d.F32()[0])
		}

		// Every operator in every operand form against the scalar written
		// out: fused and unfused arithmetic share the loops, so only an
		// independent reference can tell a wrong one. More rows than one tile.
		const n = 3001
		r := rand.New(rand.NewSource(4))
		xi, yi, xf, yf := e.buf(t, n), e.buf(t, n), e.buf(t, n), e.buf(t, n)
		for i := 0; i < n; i++ {
			xi.I32()[i], yi.I32()[i] = r.Int31n(2001)-1000, r.Int31n(7)-3
			xf.F32()[i], yf.F32()[i] = r.Float32()*20-10, float32(r.Intn(9)-4)/2
		}
		out := e.buf(t, n)
		for _, op := range []ops.Bin{ops.Add, ops.SubOp, ops.Mul, ops.Div} {
			for form := 0; form < 3; form++ { // x⟨op⟩y, x⟨op⟩c, c⟨op⟩x
				for _, float := range []bool{false, true} {
					x, y := xi, yi
					if float {
						x, y = xf, yf
					}
					var ev *cl.Event
					if form == 0 {
						ev = MapBinop(e.q, out, x, y, float, op, n, nil)
					} else {
						ev = MapBinopConst(e.q, out, x, float, op, 2.5, 3, form == 2, n, nil)
					}
					if err := ev.Wait(); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						var got, want uint32
						if float {
							a, b := x.F32()[i], y.F32()[i]
							switch form {
							case 1:
								b = 2.5
							case 2:
								a, b = 2.5, a
							}
							got, want = out.U32()[i], math.Float32bits(refF32(op, a, b))
						} else {
							a, b := x.I32()[i], y.I32()[i]
							switch form {
							case 1:
								b = 3
							case 2:
								a, b = 3, a
							}
							got, want = out.U32()[i], uint32(refI32(op, a, b))
						}
						if got != want {
							t.Fatalf("%s: op %v form %d float=%v row %d: %#x, want %#x", dev.Name, op, form, float, i, got, want)
						}
					}
				}
			}
		}
	}
}

// refI32 and refF32 are the arithmetic of the map kernels written out per
// element: integer x / 0 is 0.
func refI32(op ops.Bin, x, y int32) int32 {
	switch op {
	case ops.Add:
		return x + y
	case ops.SubOp:
		return x - y
	case ops.Mul:
		return x * y
	}
	if y == 0 {
		return 0
	}
	return x / y
}

func refF32(op ops.Bin, x, y float32) float32 {
	switch op {
	case ops.Add:
		return x + y
	case ops.SubOp:
		return x - y
	case ops.Mul:
		return x * y
	}
	return x / y
}

// TestReduceKernels runs every scalar reduction — Sum, Min and Max on int32
// and float32 — on one, two and eight CPU cores and the GPU model, at one
// row, fewer rows than the launch has work-items, a count that is not a
// multiple of SumChunks and a large one, over finite values and over values
// with the extremes (MinInt32 and MaxInt32, ±Inf) mixed in. Integer results
// and float Min/Max equal a sequential fold; a float sum has the bits of the
// fixed partition: SumChunks chunks, each summed in row order, then the
// chunk sums in chunk order.
func TestReduceKernels(t *testing.T) {
	fixedSum := func(v []float32) float32 {
		n := len(v)
		chunk := (n + SumChunks - 1) / SumChunks
		var total float32
		for c := range SumChunks {
			var acc float32
			for _, x := range v[min(c*chunk, n):min(c*chunk+chunk, n)] {
				acc += x
			}
			total += acc
		}
		return total
	}
	kinds := []ops.Agg{ops.Sum, ops.Min, ops.Max}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(1), cl.NewCPUDevice(2), cl.NewCPUDevice(8), cl.NewGPUDevice(64 << 20)} {
		e := newEnv(dev)
		_, _, gsz := Geometry(dev)
		for _, n := range []int{1, gsz/2 + 1, 3*SumChunks + 5, 100003} {
			for _, extremes := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(n)))
				ivals, fvals := make([]int32, n), make([]float32, n)
				for i := range n {
					ivals[i] = r.Int31n(2001) - 1000
					fvals[i] = (r.Float32()*100 - 60) * float32(int(1)<<r.Intn(12))
				}
				if extremes {
					for j, x := range []int32{math.MinInt32, math.MaxInt32, -1} {
						ivals[(j*n)/3] = x
					}
					for j, x := range []float32{float32(math.Inf(-1)), float32(math.Inf(1))} {
						fvals[(j*n)/2+n/4] = x
					}
				}
				isrc, fsrc, dst := e.i32(t, ivals), e.f32(t, fvals), e.buf(t, 1)
				for _, kind := range kinds {
					what := fmt.Sprintf("%s n=%d extremes=%v %v", dev.Name, n, extremes, kind)
					if err := ReduceI32(e.q, dst, isrc, e.scratch(t), kind, n, nil).Wait(); err != nil {
						t.Fatal(err)
					}
					wantI := identityI32(kind)
					for _, x := range ivals {
						wantI = fold(kind, wantI, x)
					}
					if got := dst.I32()[0]; got != wantI {
						t.Fatalf("%s: int32 = %d, want %d", what, got, wantI)
					}

					if err := ReduceF32(e.q, dst, fsrc, e.scratch(t), kind, n, nil).Wait(); err != nil {
						t.Fatal(err)
					}
					wantF := identityF32(kind)
					if kind == ops.Sum {
						wantF = fixedSum(fvals)
					} else {
						for _, x := range fvals {
							wantF = fold(kind, wantF, x)
						}
					}
					if got := dst.F32()[0]; math.Float32bits(got) != math.Float32bits(wantF) {
						t.Fatalf("%s: float32 = %v (%#x), want %v (%#x)", what, got, math.Float32bits(got), wantF, math.Float32bits(wantF))
					}
				}
			}
		}
	}
}

// TestOneWordFinalsRunAsOneItem: the fold of a scalar aggregate's partials
// and of a selection's per-item counts each runs as a one-group launch, so
// neither moves ExecutorStats' Shared or Alone — a reduction over more rows
// than the device's grain books only its partials launch there, a count
// nothing.
func TestOneWordFinalsRunAsOneItem(t *testing.T) {
	for _, dev := range []*cl.Device{cl.NewCPUDevice(2), cl.NewGPUDevice(64 << 20)} {
		n := 2*dev.Const.Grain + 7
		e := newEnv(dev)
		vals, fvals := make([]int32, n), make([]float32, n)
		for i := range vals {
			vals[i] = int32(i % 13)
			fvals[i] = float32(vals[i])
		}
		src, fsrc, dst := e.i32(t, vals), e.f32(t, fvals), e.buf(t, 1)
		multi := func(s cl.ExecutorStats) int64 { return s.Shared + s.Alone }
		for _, kind := range []ops.Agg{ops.Sum, ops.Min, ops.Max} {
			for _, float := range []bool{false, true} {
				before := dev.ExecutorStats()
				var ev *cl.Event
				if float {
					ev = ReduceF32(e.q, dst, fsrc, e.scratch(t), kind, n, nil)
				} else {
					ev = ReduceI32(e.q, dst, src, e.scratch(t), kind, n, nil)
				}
				if err := ev.Wait(); err != nil {
					t.Fatal(err)
				}
				if got := multi(dev.ExecutorStats()) - multi(before); got != 1 {
					t.Fatalf("%s %v float=%v: %d multi-group launches, want the partials' alone", dev.Name, kind, float, got)
				}
			}
		}
		bm, sp := e.buf(t, BitmapWords(n)), e.scratch(t)
		if err := e.selectI32(bm, src, nil, sp, n, 2, 5, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		before := dev.ExecutorStats()
		total := e.buf(t, 1)
		if err := FoldCount(e.q, sp, total, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		if after := dev.ExecutorStats(); multi(after) != multi(before) {
			t.Fatalf("%s: the count's fold booked %d multi-group launches", dev.Name, multi(after)-multi(before))
		}
		var want uint32
		for _, v := range vals {
			if 2 <= v && v <= 5 {
				want++
			}
		}
		if total.U32()[0] != want {
			t.Fatalf("%s: count = %d, want %d", dev.Name, total.U32()[0], want)
		}
	}
}

// TestLaunchGeometryByWork pins the launch rule (launch, cl.WorkLaunch): one
// work-group up to the device's grain, one more per grain of work beyond it,
// rounded down to a divisor of the global size, up to a group per core — and
// Geometry's global size at every n. A launch below the grain recruits nobody.
// A gather, a selection, a prefix sum and a radix pass on either side of the
// grain leave the bytes a twin device with no grain (§4.2's geometry) leaves,
// on one, two and eight CPU cores and the GPU model.
func TestLaunchGeometryByWork(t *testing.T) {
	for _, mk := range []func() *cl.Device{
		func() *cl.Device { return cl.NewCPUDevice(1) },
		func() *cl.Device { return cl.NewCPUDevice(2) },
		func() *cl.Device { return cl.NewCPUDevice(8) },
		func() *cl.Device { return cl.NewGPUDevice(64 << 20) },
	} {
		dev, paper := mk(), mk()
		paper.Const.Grain = 0
		grain, cores := dev.Const.Grain, dev.Const.Cores
		if grain <= 0 {
			t.Fatalf("%s: no grain", dev.Name)
		}
		_, _, gsz := Geometry(dev)
		for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 2 * grain, 2*grain + 1, 3 * grain, (cores-1)*grain + 1, cores * grain, 100 * grain} {
			l := launch(dev, "probe", n, cl.Cost{}, nil)
			want := min(cores, max(1, (n+grain-1)/grain))
			for gsz%want != 0 {
				want--
			}
			switch {
			case l.Groups*l.Local != gsz:
				t.Fatalf("%s n=%d: %d×%d work-items, want the global size %d", dev.Name, n, l.Groups, l.Local, gsz)
			case l.Groups != want:
				t.Fatalf("%s n=%d: %d groups, want %d", dev.Name, n, l.Groups, want)
			case n <= grain && l.Groups != 1, n > (cores-1)*grain && l.Groups != cores:
				t.Fatalf("%s n=%d: %d groups at grain %d", dev.Name, n, l.Groups, grain)
			}
			if l := launch(paper, "probe", n, cl.Cost{}, nil); l.Groups != cores || l.Groups*l.Local != gsz {
				t.Fatalf("%s without a grain, n=%d: %d×%d, want §4.2's %d groups", dev.Name, n, l.Groups, l.Local, cores)
			}
		}

		e, p := newEnv(dev), newEnv(paper)
		for _, n := range []int{grain - 1, grain, grain + 1, 2*grain + 3} {
			before := dev.ExecutorStats()
			got := boundaryKernels(t, e, n)
			if after := dev.ExecutorStats(); n <= grain && (after.Shared != before.Shared || after.Alone != before.Alone) {
				t.Fatalf("%s n=%d: below the grain, %d launches shared and %d multi-group", dev.Name, n,
					after.Shared-before.Shared, after.Alone-before.Alone)
			}
			want := boundaryKernels(t, p, n)
			for i, what := range []string{"gather", "selection bitmap", "selection count", "prefix sum", "scan total", "radix keys", "radix rows"} {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("%s n=%d: %s differs from §4.2's geometry", dev.Name, n, what)
				}
			}
		}
	}
}

// boundaryKernels runs a gather, a selection with its count, a prefix sum and
// one radix pass over n seeded rows on e and returns every output word.
func boundaryKernels(t *testing.T, e *env, n int) [][]uint32 {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	vals, idx := make([]uint32, n), make([]uint32, n)
	for i := range vals {
		vals[i], idx[i] = r.Uint32(), uint32(r.Intn(n))
	}
	col := make([]int32, n)
	for i, v := range vals {
		col[i] = int32(v % 100)
	}
	src, ix, ci := e.u32(t, vals), e.u32(t, idx), e.i32(t, col)
	gathered, bm, sum, total := e.buf(t, n+1), e.buf(t, BitmapWords(n)+1), e.buf(t, n+1), e.buf(t, 1)
	rows, keys, sorted, hist := e.buf(t, n+1), e.buf(t, n+1), e.buf(t, n+1), e.buf(t, SortHistWords(e.dev))
	iota := Iota(e.q, rows, n, 0, nil)
	sp := e.scratch(t)
	evs := []*cl.Event{
		Gather(e.q, gathered, src, ix, n, nil),
		PrefixSum(e.q, sum, src, e.scratch(t), total, n, nil),
		SortPass(e.q, keys, sorted, src, rows, hist, n, 8, RadixBits(e.dev), []*cl.Event{iota}),
	}
	for _, ev := range evs {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	count := e.folded(t, sp, e.selectI32(bm, ci, nil, sp, n, 10, 60, nil))
	return [][]uint32{gathered.U32()[:n], bm.U32()[:BitmapWords(n)], {count}, sum.U32()[:n], total.U32()[:1], keys.U32()[:n], sorted.U32()[:n]}
}

// TestGroupedAggCrossover runs every order-insensitive grouped aggregate —
// Count/Sum/Min/Max on int32, Min/Max on float32 — on both sides of the
// (n, ngroups) rule, one row either side of each table size the rule
// compares n with: the full table (ngroups × the width a long input gets,
// where many groups cross) and the one-chunk table of inputs shorter than
// two chunks (ngroups rows, where few groups cross), including a single
// group and inputs shorter than the chunk count. Each case runs the path the
// rule selects and both paths forced, against a sequential reference (empty
// groups keep the fold identity).
func TestGroupedAggCrossover(t *testing.T) {
	type tc struct{ n, ngroups int }
	var cases []tc
	for _, ngroups := range []int{1, 4, 100, 5000} {
		for _, table := range []int{ngroups * GroupSumChunksFor(math.MaxInt32, ngroups), ngroups} {
			for _, n := range []int{table - 1, table, table + 1} {
				cases = append(cases, tc{n, ngroups})
			}
		}
	}
	cases = append(cases, tc{17, 1}, tc{17, 3}, tc{60000, 4}, tc{60000, 15000})
	// The rule crosses at the full table for many groups and at the one-chunk
	// table for few.
	for _, c := range []tc{{12800, 100}, {260000, 5000}, {4, 4}, {100, 100}} {
		if GroupAggScratchWords(c.n-1, c.ngroups) != 0 || GroupAggScratchWords(c.n, c.ngroups) == 0 {
			t.Fatalf("ngroups=%d: the rule does not cross at n=%d", c.ngroups, c.n)
		}
	}
	for _, dev := range devices() {
		e := newEnv(dev)
		for _, c := range cases {
			n, ngroups := c.n, c.ngroups
			table := ngroups * GroupSumChunksFor(n, ngroups)
			if direct := GroupAggScratchWords(n, ngroups) == 0; direct != (table > n) {
				t.Fatalf("n=%d ngroups=%d: rule says direct=%v with a %d-word table", n, ngroups, direct, table)
			}
			r := rand.New(rand.NewSource(int64(n*31 + ngroups)))
			iv, fv, gids := make([]int32, n), make([]float32, n), make([]int32, n)
			for i := range gids {
				iv[i], fv[i], gids[i] = r.Int31n(2001)-1000, r.Float32()*20-10, r.Int31n(int32(ngroups))
			}
			ib, fb, gb := e.i32(t, iv), e.f32(t, fv), e.i32(t, gids)
			dst, partials := e.buf(t, ngroups+1), e.buf(t, table+1)
			paths := map[string]*cl.Buffer{"partials": partials, "direct": nil, "rule": nil}
			if GroupAggScratchWords(n, ngroups) > 0 {
				paths["rule"] = partials
			}
			for path, scratch := range paths {
				for _, kind := range []ops.Agg{ops.Count, ops.Sum, ops.Min, ops.Max} {
					vals, k := ib, kind
					if kind == ops.Count {
						vals, k = nil, ops.Sum
					}
					if err := GroupedAggI32(e.q, dst, vals, gb, scratch, k, n, ngroups, nil).Wait(); err != nil {
						t.Fatal(err)
					}
					want := make([]int32, ngroups)
					for g := range want {
						want[g] = identityI32(k)
					}
					for i, g := range gids {
						x := iv[i]
						if kind == ops.Count {
							x = 1
						}
						want[g] = fold(k, want[g], x)
					}
					for g, w := range want {
						if got := dst.I32()[g]; got != w {
							t.Fatalf("%s n=%d ngroups=%d %s: i32 %v[%d] = %d, want %d", dev.Name, n, ngroups, path, kind, g, got, w)
						}
					}
				}
				for _, kind := range []ops.Agg{ops.Min, ops.Max} {
					if err := GroupedAggF32(e.q, dst, fb, gb, scratch, kind, n, ngroups, nil).Wait(); err != nil {
						t.Fatal(err)
					}
					want := make([]float32, ngroups)
					for g := range want {
						want[g] = identityF32(kind)
					}
					for i, g := range gids {
						want[g] = fold(kind, want[g], fv[i])
					}
					for g, w := range want {
						if got := dst.F32()[g]; got != w {
							t.Fatalf("%s n=%d ngroups=%d %s: f32 %v[%d] = %v, want %v", dev.Name, n, ngroups, path, kind, g, got, w)
						}
					}
				}
			}
			for _, b := range []*cl.Buffer{ib, fb, gb, dst, partials} {
				_ = b.Release()
			}
		}
	}
}

// TestDirectCountOwnedIDs counts rows by id on the direct path, where a
// work-item adds plainly to the ids no other work-item has, over ids that grow
// with the row — in runs of 1 to 7 rows, permuted inside such runs (the run
// path's ids), one run straddling every span — and over ids that do not: at
// random, one id for every row, fewer rows than work-items. One, two and
// eight CPU cores and the GPU model; under -race, a plain add to an id that
// another work-item also has is a reported race.
func TestDirectCountOwnedIDs(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	shapes := map[string][]int32{}
	runs, permuted, straddle := make([]int32, 5000), make([]int32, 5000), make([]int32, 5000)
	for i, id, left := 0, int32(-1), 0; i < len(runs); i++ {
		if left == 0 {
			id, left = id+1, 1+r.Intn(7)
		}
		left--
		runs[i], permuted[i] = id, int32(i)
		straddle[i] = int32(i / 1000)
	}
	for s := 0; s < len(permuted); s += 7 {
		p := permuted[s:min(s+7, len(permuted))]
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	random := make([]int32, 5000)
	for i := range random {
		random[i] = r.Int31n(4000)
	}
	shapes["runs"], shapes["permuted"], shapes["straddle"], shapes["random"] = runs, permuted, straddle, random
	shapes["one id"], shapes["three rows"] = make([]int32, 5000), []int32{2, 0, 2}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(1), cl.NewCPUDevice(2), cl.NewCPUDevice(8), cl.NewGPUDevice(64 << 20)} {
		e := newEnv(dev)
		for name, gids := range shapes {
			ngroups := int(slices.Max(gids)) + 1
			want := make([]int32, ngroups)
			for _, g := range gids {
				want[g]++
			}
			dst := e.buf(t, ngroups+1)
			if err := GroupedAggI32(e.q, dst, nil, e.i32(t, gids), nil, ops.Sum, len(gids), ngroups, nil).Wait(); err != nil {
				t.Fatal(err)
			}
			if got := dst.I32()[:ngroups]; !slices.Equal(got, want) {
				t.Fatalf("%s %s: counts differ from the sequential ones", dev.Name, name)
			}
		}
	}
}

// TestGroupedAvgFinalisation: Avg = order-stable sum / count via DivF32I32.
func TestGroupedAvgFinalisation(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n, ngroups := 60000, 100
		vals, gids := make([]float32, n), make([]int32, n)
		wantSum, wantCnt := make([]float64, ngroups), make([]float64, ngroups)
		r := rand.New(rand.NewSource(7))
		for i := range vals {
			vals[i], gids[i] = r.Float32()*10, int32(r.Intn(ngroups))
			wantSum[gids[i]] += float64(vals[i])
			wantCnt[gids[i]]++
		}
		vb, gb := e.f32(t, vals), e.i32(t, gids)
		chunks := GroupSumChunksFor(n, ngroups)
		sums, cnts, avg := e.buf(t, ngroups), e.buf(t, ngroups), e.buf(t, ngroups)
		sev := GroupedSumF32(e.q, sums, vb, gb, e.buf(t, ngroups*chunks), n, ngroups, nil)
		cev := GroupedAggI32(e.q, cnts, nil, gb, e.buf(t, GroupAggScratchWords(n, ngroups)), ops.Sum, n, ngroups, nil)
		if err := DivF32I32(e.q, avg, sums, cnts, ngroups, []*cl.Event{sev, cev}).Wait(); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < ngroups; g++ {
			want := wantSum[g] / wantCnt[g]
			if rel := math.Abs(float64(avg.F32()[g])-want) / (math.Abs(want) + 1); rel > 1e-3 {
				t.Fatalf("%s: avg[%d] = %v, want %v", dev.Name, g, avg.F32()[g], want)
			}
		}
	}
}

func TestRadixSort(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		n := 30011
		vals := make([]int32, n)
		r := rand.New(rand.NewSource(13))
		for i := range vals {
			vals[i] = r.Int31() - (1 << 30) // include negatives
		}
		col := e.i32(t, vals)
		keys := e.buf(t, n+1)
		perm := e.buf(t, n+1)
		tmpK, tmpV := e.buf(t, n+1), e.buf(t, n+1)
		hist := e.buf(t, SortHistWords(dev)+1)
		ev := TransformI32Keys(e.q, keys, col, n, nil)
		ev = Iota(e.q, perm, n, 0, []*cl.Event{ev})
		ev = SortU32Bits(e.q, keys, perm, tmpK, tmpV, hist, n, RadixBits(e.dev), 32, []*cl.Event{ev})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		p := perm.U32()
		seen := make([]bool, n)
		prev := int32(math.MinInt32)
		for i := 0; i < n; i++ {
			o := p[i]
			if seen[o] {
				t.Fatalf("%s: permutation repeats %d", dev.Name, o)
			}
			seen[o] = true
			if vals[o] < prev {
				t.Fatalf("%s: not sorted at %d: %d < %d", dev.Name, i, vals[o], prev)
			}
			prev = vals[o]
		}
	}
}

func TestRadixSortF32Keys(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(4))
	vals := []float32{3.5, -1.25, 0, -100, 42, 0.001, -0.001}
	n := len(vals)
	col := e.f32(t, vals)
	keys := e.buf(t, n+1)
	perm := e.buf(t, n+1)
	ev := TransformF32Keys(e.q, keys, col, n, nil)
	ev = Iota(e.q, perm, n, 0, []*cl.Event{ev})
	ev = SortU32Bits(e.q, keys, perm, e.buf(t, n+1), e.buf(t, n+1), e.buf(t, SortHistWords(e.dev)+1), n, RadixBits(e.dev), 32, []*cl.Event{ev})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	prev := float32(math.Inf(-1))
	for i := 0; i < n; i++ {
		v := vals[perm.U32()[i]]
		if v < prev {
			t.Fatalf("float sort broken at %d: %v < %v", i, v, prev)
		}
		prev = v
	}
}

func TestRadixSortProperty(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(4))
	f := func(raw []int32) bool {
		n := len(raw)
		if n == 0 {
			return true
		}
		col := e.i32(t, raw)
		keys, perm := e.buf(t, n+1), e.buf(t, n+1)
		ev := TransformI32Keys(e.q, keys, col, n, nil)
		ev = Iota(e.q, perm, n, 0, []*cl.Event{ev})
		ev = SortU32Bits(e.q, keys, perm, e.buf(t, n+1), e.buf(t, n+1), e.buf(t, SortHistWords(e.dev)+1), n, RadixBits(e.dev), 32, []*cl.Event{ev})
		if ev.Wait() != nil {
			return false
		}
		seen := make(map[uint32]bool, n)
		prev := int32(math.MinInt32)
		for i := 0; i < n; i++ {
			o := perm.U32()[i]
			if seen[o] || raw[o] < prev {
				return false
			}
			seen[o] = true
			prev = raw[o]
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRadixSortKeyWidth: keys below 2^keyBits sort in ⌈keyBits/radix⌉ passes —
// even and odd pass counts, the second ending in the ping-pong pair and copied
// back — and carry their payload along.
func TestRadixSortKeyWidth(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		radix := RadixBits(dev)
		for _, keyBits := range []int{1, radix, radix + 1, 3 * radix, 28, 32} {
			const n = 5_000
			r := rand.New(rand.NewSource(int64(keyBits)))
			src := make([]uint32, n)
			for i := range src {
				src[i] = uint32(r.Uint64() & (1<<uint(keyBits) - 1))
			}
			keys, vals := e.u32(t, src), e.buf(t, n+1)
			ev := Iota(e.q, vals, n, 0, nil)
			before := dev.KernelLaunches()
			ev = SortU32Bits(e.q, keys, vals, e.buf(t, n+1), e.buf(t, n+1), e.buf(t, SortHistWords(dev)+1), n, radix, keyBits, []*cl.Event{ev})
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			if got, want := dev.KernelLaunches()-before, int64(3*((keyBits+radix-1)/radix)); got != want {
				t.Fatalf("%s: %d-bit keys took %d launches, want %d", dev.Name, keyBits, got, want)
			}
			for i := 0; i < n; i++ {
				if k := keys.U32()[i]; k != src[vals.U32()[i]] || i > 0 && k < keys.U32()[i-1] {
					t.Fatalf("%s: %d-bit keys: position %d holds %d (row %d)", dev.Name, keyBits, i, k, vals.U32()[i])
				}
			}
		}
	}
}

// buildSlots builds the slots stage over vals the way the core engine's host
// code does, under the addressing asked for, and returns it with the distinct
// count.
func buildSlots(t *testing.T, e *env, vals []int32, identity bool) (Slots, int) {
	t.Helper()
	n := len(vals)
	col := e.i32(t, vals)
	total := e.buf(t, 1)
	partials := e.buf(t, KeyRangeWords(e.q.Device()))
	if err := KeyRange(e.q, partials, col, nil, n, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	ks := FoldKeyRange(e.q.Device(), partials.U32(), 1)
	s := Slots{Min: ks.Min, Span: ks.Span, Prev: ks.Prev}
	if !identity {
		s.Keys = e.buf(t, n)
		sc := sortScratch(t, e, n)
		if _, done := SortedSlots(e.q, s.Keys, col, ks, sc, n, nil); done.Wait() != nil {
			t.Fatal(done.Wait())
		}
		s.Distinct = int(sc.Total.U32()[0]) + 1
		return s, s.Distinct
	}
	words := (int(s.Span) + 32) / 32
	s.Bits, s.Rank = e.buf(t, words), e.buf(t, words)
	ev := IdentitySet(e.q, s, col, nil, n, nil)
	if err := IdentityRank(e.q, s, e.scratch(t), total, words, []*cl.Event{ev}).Wait(); err != nil {
		t.Fatal(err)
	}
	return s, int(total.U32()[0])
}

// sortScratch allocates GroupSortScratch for n rows.
func sortScratch(t testing.TB, e *env, n int) GroupSortScratch {
	return GroupSortScratch{K0: e.buf(t, n+1), V0: e.buf(t, n+1), K1: e.buf(t, n+1), V1: e.buf(t, n+1),
		Hist: e.buf(t, SortHistWords(e.dev)+1), Spine: e.scratch(t), Total: e.buf(t, 1)}
}

// buildTable builds a complete multi-stage hash table over vals — slots under
// the addressing asked for, then gids and buckets — mirroring the core
// engine's host code.
func buildTable(t *testing.T, e *env, vals []int32, identity bool) (s Slots, starts, rowids *cl.Buffer, ndistinct int) {
	t.Helper()
	n := len(vals)
	s, ndistinct = buildSlots(t, e, vals, identity)
	total := e.buf(t, 1)
	gids := e.buf(t, n+1)
	ev := HashLookupGids(e.q, gids, s, e.i32(t, vals), nil, n, nil)
	counts := e.buf(t, ndistinct+1)
	ev2 := HashBucketCount(e.q, counts, gids, n, ndistinct, []*cl.Event{ev})
	starts = e.buf(t, ndistinct+2)
	ev2 = PrefixSum(e.q, starts, counts, e.scratch(t), total, ndistinct, []*cl.Event{ev2})
	// starts needs the terminating total as entry ndistinct.
	st := starts.U32()
	if err := ev2.Wait(); err != nil {
		t.Fatal(err)
	}
	st[ndistinct] = total.U32()[0]
	cursors := e.buf(t, ndistinct+1)
	rowids = e.buf(t, n+1)
	if err := HashBucketScatter(e.q, rowids, starts, cursors, gids, n, ndistinct, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	return s, starts, rowids, ndistinct
}

// bothAddressings runs f once per device and slot addressing.
func bothAddressings(f func(dev *cl.Device, e *env, identity bool)) {
	for _, dev := range devices() {
		for _, identity := range []bool{false, true} {
			f(dev, newEnv(dev), identity)
		}
	}
}

// TestHashBuildAndGroupIDs builds the whole table under either addressing:
// every row lands in exactly one bucket, its own key's, and a key's id is its
// rank among the distinct keys in int32 order.
func TestHashBuildAndGroupIDs(t *testing.T) {
	bothAddressings(func(dev *cl.Device, e *env, identity bool) {
		n := 20000
		vals := make([]int32, n)
		r := rand.New(rand.NewSource(17))
		for i := range vals {
			vals[i] = r.Int31n(137)*3 - 200
		}
		distinct := slices.Compact(slices.Sorted(slices.Values(vals)))
		slots, starts, rowids, nd := buildTable(t, e, vals, identity)
		if nd != len(distinct) {
			t.Fatalf("%s identity=%v: %d distinct found, %d exist", dev.Name, identity, nd, len(distinct))
		}
		// Every row must be in exactly one bucket, with its own value.
		col := e.i32(t, vals)
		gids := e.buf(t, n+1)
		if err := HashLookupGids(e.q, gids, slots, col, nil, n, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, n)
		st := starts.U32()
		for g := 0; g < nd; g++ {
			for b := st[g]; b < st[g+1]; b++ {
				row := rowids.U32()[b]
				if seen[row] {
					t.Fatalf("%s: row %d in two buckets", dev.Name, row)
				}
				seen[row] = true
				if gids.I32()[row] != int32(g) {
					t.Fatalf("%s: row %d bucket/gid mismatch", dev.Name, row)
				}
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("%s: row %d not in any bucket", dev.Name, i)
			}
		}
		for i, v := range vals {
			if rank, _ := slices.BinarySearch(distinct, v); gids.I32()[i] != int32(rank) {
				t.Fatalf("%s identity=%v: row %d (key %d) has id %d, its rank is %d", dev.Name, identity, i, v, gids.I32()[i], rank)
			}
		}
	})
}

// TestGroupBySortCompositeKeys: the sort path numbers composite keys (k, b)
// in (b, k) order, the same ids on every device, whether their range fits one
// word (one packed code) or not (a sort by k, then a stable one by b): keys
// from MinInt32 to MaxInt32 under 7 previous ids span 7·2^32 codes.
func TestGroupBySortCompositeKeys(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(23))
	narrow, wide, prev := make([]int32, n), make([]int32, n), make([]int32, n)
	for i := range narrow {
		narrow[i] = r.Int31n(50) - 25
		wide[i] = int32(r.Uint32())
		if i%10 == 0 {
			wide[i] = wide[i%100] // repeated keys under other previous ids
		}
		prev[i] = int32(r.Intn(7))
	}
	wide[0], wide[1] = math.MinInt32, math.MaxInt32
	for _, col := range [][]int32{narrow, wide} {
		type pair struct{ b, k int32 }
		pairs := make([]pair, n)
		for i := range pairs {
			pairs[i] = pair{prev[i], col[i]}
		}
		order := slices.Clone(pairs)
		slices.SortFunc(order, func(x, y pair) int { return cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.k, y.k)) })
		order = slices.Compact(order)
		for _, dev := range devices() {
			e := newEnv(dev)
			cb, pb := e.i32(t, col), e.i32(t, prev)
			partials := e.buf(t, KeyRangeWords(dev))
			if err := KeyRange(e.q, partials, cb, pb, n, nil).Wait(); err != nil {
				t.Fatal(err)
			}
			ks := FoldKeyRange(dev, partials.U32(), 7)
			if (ks.Range() > 1<<32) != (col[0] == math.MinInt32) {
				t.Fatalf("%s: %+v spans %d codes", dev.Name, ks, ks.Range())
			}
			ids, sc := e.buf(t, n+1), sortScratch(t, e, n)
			if _, done := GroupBySort(e.q, ids, cb, pb, ks, sc, n, nil); done.Wait() != nil {
				t.Fatal(done.Wait())
			}
			if groups := int(sc.Total.U32()[0]) + 1; groups != len(order) {
				t.Fatalf("%s: %d groups, want %d", dev.Name, groups, len(order))
			}
			for i, p := range pairs {
				rank, _ := slices.BinarySearchFunc(order, p, func(x, y pair) int { return cmp.Or(cmp.Compare(x.b, y.b), cmp.Compare(x.k, y.k)) })
				if ids.I32()[i] != int32(rank) {
					t.Fatalf("%s: row %d %v has id %d, want its rank %d", dev.Name, i, p, ids.I32()[i], rank)
				}
			}
		}
	}
}

func TestJoinProbeKernels(t *testing.T) {
	bothAddressings(func(dev *cl.Device, e *env, identity bool) {
		build := []int32{5, 7, 5, 9}
		probe := []int32{5, 9, 1, 7, 5}
		slots, starts, rowids, _ := buildTable(t, e, build, identity)
		pb := e.i32(t, probe)
		n := len(probe)
		counts := e.buf(t, n+1)
		ev := JoinProbeCount(e.q, counts, slots, starts, pb, n, nil)
		offsets := e.buf(t, n+1)
		total := e.buf(t, 1)
		ev = PrefixSum(e.q, offsets, counts, e.scratch(t), total, n, []*cl.Event{ev})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		m := int(total.U32()[0])
		if m != 6 { // 5→{0,2} twice, 9→{3}, 7→{1}
			t.Fatalf("%s: match count = %d, want 6", dev.Name, m)
		}
		outL, outR := e.buf(t, m+1), e.buf(t, m+1)
		if err := JoinProbeWrite(e.q, outL, outR, offsets, slots, starts, rowids, pb, n, nil).Wait(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m; i++ {
			if probe[outL.U32()[i]] != build[outR.U32()[i]] {
				t.Fatalf("%s: pair %d joins different values", dev.Name, i)
			}
		}
		// Semi/anti probes.
		bm, sp := e.buf(t, 2), e.scratch(t)
		if got := e.folded(t, sp, ExistsProbe(e.q, bm, sp, slots, pb, n, false, nil)); got != 4 {
			t.Fatalf("%s: semi count = %d, want 4", dev.Name, got)
		}
		if got := e.folded(t, sp, ExistsProbe(e.q, bm, sp, slots, pb, n, true, nil)); got != 1 {
			t.Fatalf("%s: anti count = %d, want 1", dev.Name, got)
		}
	})
}

// TestProbesOverManyWords runs the probe kernels over 2 000 keys — most
// present, some below the build's smallest key, some above its largest —
// against 500 unique build keys given in ascending order (IdentitySet then
// gathers whole bitmap words in a register) and shuffled, under both
// addressings, and checks every row against a map: counts, the written
// (probe, build) pairs, the unique-key match bitmap and build rows, the semi-
// and anti-join bitmaps.
func TestProbesOverManyWords(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	build, probe := make([]int32, 500), make([]int32, 2_000)
	for i := range build {
		build[i] = -300 + 3*int32(i)
	}
	for i := range probe {
		probe[i] = r.Int31n(1_700) - 400
	}
	shuffled := slices.Clone(build)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range [][]int32{build, shuffled} {
		rowOf := map[int32]uint32{}
		for i, k := range order {
			rowOf[k] = uint32(i)
		}
		bothAddressings(func(dev *cl.Device, e *env, identity bool) {
			slots, starts, rowids, nd := buildTable(t, e, order, identity)
			n, pb := len(probe), e.i32(t, probe)
			counts, rpos, bm, sp := e.buf(t, n+1), e.buf(t, n+1), e.buf(t, BitmapWords(n)), e.scratch(t)
			if err := JoinProbeCount(e.q, counts, slots, starts, pb, n, nil).Wait(); err != nil || nd != len(order) {
				t.Fatalf("%s identity=%v: %d distinct of %d, %v", dev.Name, identity, nd, len(order), err)
			}
			offsets, total := e.buf(t, n+1), e.buf(t, 1)
			ev := PrefixSum(e.q, offsets, counts, e.scratch(t), total, n, nil)
			outL, outR := e.buf(t, n+1), e.buf(t, n+1)
			if err := JoinProbeWrite(e.q, outL, outR, offsets, slots, starts, rowids, pb, n, []*cl.Event{ev}).Wait(); err != nil {
				t.Fatal(err)
			}
			m := int(total.U32()[0])
			for j := 0; j < m; j++ {
				if i := outL.U32()[j]; rowOf[probe[i]] != outR.U32()[j] || j > 0 && i <= outL.U32()[j-1] {
					t.Fatalf("%s identity=%v: pair %d is (%d, %d)", dev.Name, identity, j, i, outR.U32()[j])
				}
			}
			bit := func(i int) bool { return bm.U32()[i/32]>>uint(i%32)&1 == 1 }
			matches := int(e.folded(t, sp, JoinProbeUnique(e.q, bm, rpos, sp, slots, starts, rowids, pb, n, nil)))
			want := 0
			for i, k := range probe {
				row, ok := rowOf[k]
				if counts.U32()[i] != b2u(ok) || bit(i) != ok || ok && rpos.U32()[i] != row {
					t.Fatalf("%s identity=%v: probe row %d (key %d): count %d, match %v, build row %d",
						dev.Name, identity, i, k, counts.U32()[i], bit(i), rpos.U32()[i])
				}
				want += int(b2u(ok))
			}
			for _, negate := range []bool{false, true} {
				got := int(e.folded(t, sp, ExistsProbe(e.q, bm, sp, slots, pb, n, negate, nil)))
				for i, k := range probe {
					if _, ok := rowOf[k]; bit(i) != (ok != negate) {
						t.Fatalf("%s identity=%v negate=%v: bit %d (key %d) is %v", dev.Name, identity, negate, i, k, bit(i))
					}
				}
				if negate && got != n-want || !negate && got != want || matches != want || m != want {
					t.Fatalf("%s identity=%v negate=%v: %d set, %d matches, want %d", dev.Name, identity, negate, got, matches, want)
				}
			}
		})
	}
}

func TestJoinProbeUniqueFastPath(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(4))
	build := []int32{10, 20, 30, 40} // key column
	probe := []int32{20, 99, 40, 10}
	slots, starts, rowids, _ := buildTable(t, e, build, false)
	pb := e.i32(t, probe)
	n := len(probe)
	bm := e.buf(t, 2)
	rpos := e.buf(t, n+1)
	sp := e.scratch(t)
	if got := e.folded(t, sp, JoinProbeUnique(e.q, bm, rpos, sp, slots, starts, rowids, pb, n, nil)); got != 3 {
		t.Fatalf("match count = %d, want 3", got)
	}
	wantBits := []bool{true, false, true, true}
	for i, w := range wantBits {
		got := bm.Bytes()[i/8]&(1<<uint(i%8)) != 0
		if got != w {
			t.Fatalf("bit %d = %v, want %v", i, got, w)
		}
		if w && build[rpos.U32()[i]] != probe[i] {
			t.Fatalf("rpos[%d] joins wrong value", i)
		}
	}
}

func TestNestedLoopJoinKernels(t *testing.T) {
	e := newEnv(cl.NewGPUDevice(64 << 20))
	l := e.i32(t, []int32{1, 2, 3})
	r := e.i32(t, []int32{2, 3, 3, 5})
	nl, nr := 3, 4
	pred := func(a, b uint32) bool { return int32(a) < int32(b) } // theta: l < r
	counts := e.buf(t, nl+1)
	ev := NestedLoopCount(e.q, counts, l, r, nl, nr, pred, nil)
	offsets := e.buf(t, nl+1)
	total := e.buf(t, 1)
	ev = PrefixSum(e.q, offsets, counts, e.scratch(t), total, nl, []*cl.Event{ev})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	m := int(total.U32()[0])
	if m != 8 { // 1<{2,3,3,5}: 4, 2<{3,3,5}: 3, 3<{5}: 1
		t.Fatalf("theta join count = %d, want 8", m)
	}
	outL, outR := e.buf(t, m+1), e.buf(t, m+1)
	if err := NestedLoopWrite(e.q, outL, outR, offsets, l, r, nl, nr, pred, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		if !(l.I32()[outL.U32()[i]] < r.I32()[outR.U32()[i]]) {
			t.Fatalf("pair %d violates theta predicate", i)
		}
	}
}

func TestSortedGroupKernels(t *testing.T) {
	for _, dev := range devices() {
		e := newEnv(dev)
		col := e.i32(t, []int32{3, 3, 5, 5, 5, 9})
		n := 6
		flags := e.buf(t, n+1)
		ev := GroupBoundaryFlags(e.q, flags, col, n, nil)
		excl := e.buf(t, n+1)
		total := e.buf(t, 1)
		ev = PrefixSum(e.q, excl, flags, e.scratch(t), total, n, []*cl.Event{ev})
		ids := e.buf(t, n+1)
		if err := GroupIDsFromScan(e.q, ids, excl, flags, n, []*cl.Event{ev}).Wait(); err != nil {
			t.Fatal(err)
		}
		want := []int32{0, 0, 1, 1, 1, 2}
		for i, w := range want {
			if ids.I32()[i] != w {
				t.Fatalf("%s: ids = %v, want %v", dev.Name, ids.I32()[:n], want)
			}
		}
		if total.U32()[0]+1 != 3 {
			t.Fatalf("%s: ngroups = %d, want 3", dev.Name, total.U32()[0]+1)
		}
	}
}

func TestFillAndIota(t *testing.T) {
	e := newEnv(cl.NewCPUDevice(2))
	b := e.buf(t, 10)
	if err := Fill(e.q, b, 10, 7, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if b.U32()[i] != 7 {
			t.Fatalf("fill[%d] = %d", i, b.U32()[i])
		}
	}
	if err := Iota(e.q, b, 10, 5, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	if b.U32()[0] != 5 || b.U32()[9] != 14 {
		t.Fatalf("iota = %v", b.U32()[:10])
	}
}

func TestI32RangeBounds(t *testing.T) {
	cases := []struct {
		lo, hi  float64
		li, hi2 bool
		wl, wh  int32
		ok      bool
	}{
		{2, 4, true, true, 2, 4, true},
		{2, 4, false, false, 3, 3, true},
		{2.5, 3.5, true, true, 3, 3, true},
		{4, 2, true, true, 0, 0, false},
		{math.Inf(-1), 5, true, true, math.MinInt32, 5, true},
	}
	for _, c := range cases {
		l, h, ok := I32RangeBounds(c.lo, c.hi, c.li, c.hi2)
		if ok != c.ok || (ok && (l != c.wl || h != c.wh)) {
			t.Fatalf("bounds(%v,%v,%v,%v) = (%d,%d,%v), want (%d,%d,%v)",
				c.lo, c.hi, c.li, c.hi2, l, h, ok, c.wl, c.wh, c.ok)
		}
	}
}

// TestRangeKeyBounds: the inclusive key interval a range predicate is
// collapsed to selects, through both row loops, exactly the rows the
// predicate written out selects — for float32 over NaN, both zeros, the
// infinities, ±MaxFloat32, the smallest denormals and the neighbours of all
// of them as values and as bounds, every inclusivity, lo > hi and NaN
// bounds; for int32 over the ends of the domain and bounds beyond them.
func TestRangeKeyBounds(t *testing.T) {
	inf := float32(math.Inf(1))
	var grid []float32
	for _, v := range []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), inf, -inf,
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, -1, 0.25, -2.5e7} {
		grid = append(grid, v, math.Nextafter32(v, inf), math.Nextafter32(v, -inf))
	}
	check := func(what string, src []uint32, flip uint32, l, h int32, ok bool, want func(i int) bool) {
		t.Helper()
		for base := 0; base < len(src); base += 32 {
			chunk := src[base:min(base+32, len(src))]
			var dense, refined uint32
			if ok {
				dense = rangeWord(chunk, flip, uint32(l), uint32(h)-uint32(l))
				refined = rangeBits(chunk, flip, uint32(l), uint32(h)-uint32(l), wordMask(0, 0, len(chunk)))
			}
			for i := range chunk {
				if w := want(base + i); dense>>i&1 != b2u(w) || refined>>i&1 != b2u(w) {
					t.Fatalf("%s, value %d: dense %v, refined %v, want %v (keys [%d, %d], ok %v)",
						what, base+i, dense>>i&1, refined>>i&1, w, l, h, ok)
				}
			}
		}
	}
	incl := [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}}
	fbits := make([]uint32, len(grid))
	for i, v := range grid {
		fbits[i] = math.Float32bits(v)
	}
	for _, lo := range grid {
		for _, hi := range grid {
			for _, in := range incl {
				l, h, ok := F32RangeBounds(lo, hi, in[0], in[1])
				check(fmt.Sprintf("f32 %v %v %v", lo, hi, in), fbits, math.MaxInt32, l, h, ok, func(i int) bool {
					v := grid[i]
					return (v > lo || v == lo && in[0]) && (v < hi || v == hi && in[1])
				})
			}
		}
	}
	ints := []int32{math.MinInt32, math.MinInt32 + 1, -7, -1, 0, 1, 7, math.MaxInt32 - 1, math.MaxInt32}
	ibits := make([]uint32, len(ints))
	for i, v := range ints {
		ibits[i] = uint32(v)
	}
	bounds := []float64{math.Inf(-1), -3e9, math.MinInt32, math.MinInt32 + 0.5, -7, -0.5, 0, 6.5, 7, math.MaxInt32 - 0.5, math.MaxInt32, 3e9, math.Inf(1), math.NaN()}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, in := range incl {
				l, h, ok := I32RangeBounds(lo, hi, in[0], in[1])
				check(fmt.Sprintf("i32 %v %v %v", lo, hi, in), ibits, 0, l, h, ok, func(i int) bool {
					v := float64(ints[i])
					return (v > lo || v == lo && in[0]) && (v < hi || v == hi && in[1])
				})
			}
		}
	}
}

// TestGroupedSumF32DeviceIndependentBits: the order-stable grouped float
// sum must (a) be correct, (b) produce the exact same bit pattern on every
// device — the property that lets hybrid placement (and N-device
// configurations) move a grouped aggregation without changing a result bit
// — and (c) equal the fixed chunk-partitioned fold computed by hand, i.e.
// the order is a pure function of (n, ngroups), never of the device. The
// cases cover chunk counts that are multiples of the lockstep width and
// counts that are not (87, 52, 37 and 26 chunks), fewer rows than one chunk
// holds, rows just below, at and above the 64-row cap (one and two chunks;
// 127 and 128 chunks) and tables wider than the input, on one and four CPU
// cores and the GPU model: each splits the chunks across its work-groups
// differently, and a share that is not a multiple of the lockstep width leaves
// one work-item fewer than four chunks, folded one by one.
func TestGroupedSumF32DeviceIndependentBits(t *testing.T) {
	for _, c := range []struct{ n, ngroups, chunks int }{
		{0, 1, 1}, {127, 1, 1}, {128, 1, 2}, {8191, 7, 127}, {8192, 7, 128}, {1 << 20, 1, 128},
		{1 << 20, 5000, 52}, {60000, 10000, 26}, {1000, 3000, 15}, {1 << 20, 1 << 20, 16},
	} {
		if got := GroupSumChunksFor(c.n, c.ngroups); got != c.chunks {
			t.Fatalf("GroupSumChunksFor(%d, %d) = %d, want %d", c.n, c.ngroups, got, c.chunks)
		}
	}
	for _, c := range []struct{ n, ngroups int }{
		{60000, 1}, {60000, 7}, {60000, 100}, {60000, 5000},
		{60000, 3000}, {60000, 7000}, {60000, 10000}, {10, 1}, {130, 3}, {5, 7000},
		{63, 1}, {64, 1}, {65, 1}, {127, 2}, {128, 2}, {129, 2},
		{8191, 7}, {8192, 7}, {8193, 7}, {300, 500}, {1000, 3000},
	} {
		n, ngroups := c.n, c.ngroups
		vals := make([]float32, n)
		gids := make([]int32, n)
		r := rand.New(rand.NewSource(int64(ngroups) * 31))
		wantF64 := make([]float64, ngroups) // correctness reference
		for i := range vals {
			g := r.Intn(ngroups)
			v := r.Float32()*10 - 5
			vals[i], gids[i] = v, int32(g)
			wantF64[g] += float64(v)
		}
		chunks := GroupSumChunksFor(n, ngroups)
		// The defined order: per (group, chunk) partial in row order, then
		// per group a fold over the chunks in ascending order.
		chunkLen := (n + chunks - 1) / chunks
		partials := make([]float32, ngroups*chunks)
		for c := 0; c < chunks; c++ {
			lo, hi := c*chunkLen, (c+1)*chunkLen
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				partials[int(gids[i])*chunks+c] += vals[i]
			}
		}
		want := make([]float32, ngroups)
		for g := 0; g < ngroups; g++ {
			for c := 0; c < chunks; c++ {
				want[g] += partials[g*chunks+c]
			}
		}
		var ref []float32
		for _, dev := range append(devices(), cl.NewCPUDevice(1)) {
			e := newEnv(dev)
			vb, gb := e.f32(t, vals), e.i32(t, gids)
			parts := e.buf(t, ngroups*chunks+1)
			dst := e.buf(t, ngroups)
			if err := GroupedSumF32(e.q, dst, vb, gb, parts, n, ngroups, nil).Wait(); err != nil {
				t.Fatal(err)
			}
			got := append([]float32(nil), dst.F32()[:ngroups]...)
			for g := range got {
				if got[g] != want[g] {
					t.Fatalf("%s ngroups=%d: sum[%d] = %b, want chunk-order %b",
						dev.Name, ngroups, g, got[g], want[g])
				}
				if rel := math.Abs(float64(got[g])-wantF64[g]) / (math.Abs(wantF64[g]) + 1); rel > 1e-3 {
					t.Fatalf("%s ngroups=%d: sum[%d] = %v, want ≈%v", dev.Name, ngroups, g, got[g], wantF64[g])
				}
			}
			if ref == nil {
				ref = got
				continue
			}
			for g := range got {
				if got[g] != ref[g] {
					t.Fatalf("%s ngroups=%d: bit mismatch at group %d across devices", dev.Name, ngroups, g)
				}
			}
		}
	}
}
