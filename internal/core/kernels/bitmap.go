package kernels

import (
	"math"
	"math/bits"

	"repro/internal/cl"
	"repro/internal/ops"
)

// Ocelot's selection encodes results as bitmaps (§4.1.1): "each thread
// evaluating the predicate on a small chunk of the input. We found that
// evaluating the predicate on eight four-byte values — generating one byte
// of the result bitmap per thread — gave the best results across
// architectures." Bitmaps make complex predicates cheap to combine with bit
// operations and keep the selection's output size independent of
// selectivity (the effect in Fig. 5b).
//
// Layout: byte i of the bitmap covers rows 8i..8i+7, bit j = row 8i+j.

// BitmapBytes returns the bitmap size in bytes for n rows.
func BitmapBytes(n int) int { return (n + 7) / 8 }

// selectBytes enqueues the shape the selection kernels share: one result
// byte per eight rows, eval(base, end) yielding the predicate bits of rows
// [base, end). A non-nil cand is ANDed in on the fly — predicate conjunction
// costs nothing extra — and the bytes it leaves dead skip the predicate
// altogether, so a selective candidate makes the next select cheaper.
func selectBytes(q *cl.Queue, name string, bm, cand *cl.Buffer, n int, cost cl.Cost, wait []*cl.Event, eval func(base, end int) byte) *cl.Event {
	dst := bm.Bytes()
	var in []byte
	if cand != nil {
		in = cand.Bytes()
	}
	nb := BitmapBytes(n)
	return q.EnqueueKernel(func(t *cl.Thread) {
		blo, bhi, step := t.Span(nb)
		for b := blo; b < bhi; b += step {
			var out byte
			if in == nil || in[b] != 0 {
				out = eval(b*8, min(b*8+8, n))
				if in != nil {
					out &= in[b]
				}
			}
			dst[b] = out
		}
	}, launch(q.Device(), name, cost, wait))
}

// The predicate evaluators below yield the bits of rows [base, end) of one
// bitmap byte, branch-free: a predicate on unsorted data mispredicts every
// other row, so every compare becomes a flag byte (the compiler emits SETcc
// for flag), the row's verdict is composed with bit operations, and the (up
// to) eight verdicts are packed with constant shifts — a shift by the row
// index would cost more than the compare. They are shared by the unfused
// selection kernels and the fused conjunction (CompileFusedPred), which is
// what keeps the two bit-for-bit equal.

// flag is 1 when b holds, 0 otherwise, without a branch.
func flag(b bool) byte {
	var f byte
	if b {
		f = 1
	}
	return f
}

// pack8 packs eight row verdicts (0 or 1 each) into their bitmap byte.
func pack8(f *[8]byte) byte {
	return f[0] | f[1]<<1 | f[2]<<2 | f[3]<<3 | f[4]<<4 | f[5]<<5 | f[6]<<6 | f[7]<<7
}

// inRangeBit is 1 iff lo <= v <= lo+width, as one unsigned compare.
func inRangeBit(v int32, lo, width uint32) byte {
	return flag(uint32(v)-lo <= width)
}

// rangeMaskI32 evaluates lo <= src[r] <= hi; lo > hi selects nothing.
func rangeMaskI32(src []int32, lo, hi int32) func(base, end int) byte {
	if lo > hi {
		return func(int, int) byte { return 0 }
	}
	ulo, width := uint32(lo), uint32(hi)-uint32(lo)
	return func(base, end int) byte {
		var f [8]byte
		for i, v := range src[base:end] {
			f[i] = inRangeBit(v, ulo, width)
		}
		return pack8(&f)
	}
}

// rangeMaskF32 evaluates lo (<|<=) src[r] (<|<=) hi. Float bounds cannot be
// collapsed to an inclusive interval, so inclusivity stays explicit; a NaN
// value or bound fails every compare and selects nothing.
func rangeMaskF32(src []float32, lo, hi float32, loIncl, hiIncl bool) func(base, end int) byte {
	loEq, hiEq := flag(loIncl), flag(hiIncl)
	return func(base, end int) byte {
		var f [8]byte
		for i, v := range src[base:end] {
			f[i] = (flag(v > lo) | flag(v == lo)&loEq) & (flag(v < hi) | flag(v == hi)&hiEq)
		}
		return pack8(&f)
	}
}

// cmpMask evaluates a[r] cmp b[r], specialised on the operator here, outside
// the row loop. Gt and Ge are Lt and Le with the operands swapped (exact for
// NaN too: both sides are false).
func cmpMask[T int32 | float32](a, b []T, cmp ops.Cmp) func(base, end int) byte {
	switch cmp {
	case ops.Gt:
		return cmpMask(b, a, ops.Lt)
	case ops.Ge:
		return cmpMask(b, a, ops.Le)
	case ops.Lt:
		return func(base, end int) byte {
			var f [8]byte
			y := b[base:end]
			for i, x := range a[base:end] {
				f[i] = flag(x < y[i])
			}
			return pack8(&f)
		}
	case ops.Le:
		return func(base, end int) byte {
			var f [8]byte
			y := b[base:end]
			for i, x := range a[base:end] {
				f[i] = flag(x <= y[i])
			}
			return pack8(&f)
		}
	case ops.Eq:
		return func(base, end int) byte {
			var f [8]byte
			y := b[base:end]
			for i, x := range a[base:end] {
				f[i] = flag(x == y[i])
			}
			return pack8(&f)
		}
	default: // ops.Ne
		return func(base, end int) byte {
			var f [8]byte
			y := b[base:end]
			for i, x := range a[base:end] {
				f[i] = flag(x != y[i])
			}
			return pack8(&f)
		}
	}
}

// SelectI32 enqueues the range-selection kernel over an int32 column: bit
// oid is set iff lo <= col[oid] <= hi (inclusive bounds precomputed by the
// host code; lo > hi selects nothing).
func SelectI32(q *cl.Queue, bm *cl.Buffer, col *cl.Buffer, cand *cl.Buffer, n int, lo, hi int32, wait []*cl.Event) *cl.Event {
	nb := BitmapBytes(n)
	return selectBytes(q, "select_i32", bm, cand, n,
		cl.Cost{BytesStreamed: int64(n)*4 + int64(nb)*2, Ops: int64(n) * 2}, wait,
		rangeMaskI32(col.I32(), lo, hi))
}

// SelectF32 is the float32 variant of the range-selection kernel, with
// explicit bound inclusivity.
func SelectF32(q *cl.Queue, bm *cl.Buffer, col *cl.Buffer, cand *cl.Buffer, n int, lo, hi float32, loIncl, hiIncl bool, wait []*cl.Event) *cl.Event {
	nb := BitmapBytes(n)
	return selectBytes(q, "select_f32", bm, cand, n,
		cl.Cost{BytesStreamed: int64(n)*4 + int64(nb)*2, Ops: int64(n) * 2}, wait,
		rangeMaskF32(col.F32(), lo, hi, loIncl, hiIncl))
}

// SelectCmp enqueues the column-vs-column comparison kernel: bit oid is set
// iff a[oid] cmp b[oid]. Both columns must share one four-byte type; for
// totally ordered data the comparison runs on the typed views.
func SelectCmp(q *cl.Queue, bm *cl.Buffer, a, b *cl.Buffer, isFloat bool, cmp ops.Cmp, cand *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	eval := cmpMask(a.I32(), b.I32(), cmp)
	if isFloat {
		eval = cmpMask(a.F32(), b.F32(), cmp)
	}
	nb := BitmapBytes(n)
	return selectBytes(q, "select_cmp", bm, cand, n,
		cl.Cost{BytesStreamed: int64(n)*8 + int64(nb)*2, Ops: int64(n) * 2}, wait, eval)
}

// BitmapRange enqueues a bitmap with bits [lo, hi) set over an n-row domain
// — the device-side rendering of a dense (VOID) candidate sub-range.
func BitmapRange(q *cl.Queue, bm *cl.Buffer, n, lo, hi int, wait []*cl.Event) *cl.Event {
	dst := bm.Bytes()
	nb := BitmapBytes(n)
	return q.EnqueueKernel(func(t *cl.Thread) {
		blo, bhi, step := t.Span(nb)
		for b := blo; b < bhi; b += step {
			var out byte
			base := b * 8
			end := base + 8
			if end > n {
				end = n
			}
			for r := base; r < end; r++ {
				if r >= lo && r < hi {
					out |= 1 << uint(r-base)
				}
			}
			dst[b] = out
		}
	}, launch(q.Device(), "bitmap_range", cl.Cost{BytesStreamed: int64(nb)}, wait))
}

// BitmapAnd enqueues dst = a & b over nb bitmap bytes.
func BitmapAnd(q *cl.Queue, dst, a, b *cl.Buffer, nb int, wait []*cl.Event) *cl.Event {
	return bitmapCombine(q, "bitmap_and", dst, a, b, nb, wait, func(x, y byte) byte { return x & y })
}

// BitmapOr enqueues dst = a | b — the ∨ combine of Figure 3's union of two
// selection results.
func BitmapOr(q *cl.Queue, dst, a, b *cl.Buffer, nb int, wait []*cl.Event) *cl.Event {
	return bitmapCombine(q, "bitmap_or", dst, a, b, nb, wait, func(x, y byte) byte { return x | y })
}

func bitmapCombine(q *cl.Queue, name string, dst, a, b *cl.Buffer, nb int, wait []*cl.Event, f func(x, y byte) byte) *cl.Event {
	d, x, y := dst.Bytes(), a.Bytes(), b.Bytes()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(nb)
		for i := lo; i < hi; i += step {
			d[i] = f(x[i], y[i])
		}
	}, launch(q.Device(), name, cl.Cost{BytesStreamed: int64(nb) * 3}, wait))
}

// BitmapCount enqueues a popcount reduction over the bitmap, writing the
// number of set bits to total[0]. partials must hold gsz+1 words.
func BitmapCount(q *cl.Queue, bm, partials, total *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	src, p, tot := bm.Bytes(), partials.U32(), total.U32()
	nb := BitmapBytes(n)

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(nb)
		var sum uint32
		for i := lo; i < hi; i += step {
			sum += uint32(bits.OnesCount8(src[i]))
		}
		p[t.Global] = sum
	}, launch(dev, "bitcount_partials", cl.Cost{BytesStreamed: int64(nb), Ops: int64(nb)}, wait))

	return q.EnqueueKernel(func(t *cl.Thread) {
		if t.Global != 0 {
			return
		}
		var sum uint32
		for i := 0; i < gsz; i++ {
			sum += p[i]
		}
		tot[0] = sum
	}, launch(dev, "bitcount_final", cl.Cost{BytesStreamed: int64(gsz) * 4}, []*cl.Event{ev1}))
}

// Materialize enqueues the bitmap→oid-list conversion (§4.1.2): "First, we
// compute a prefix sum over bit counts to get unique write offsets for each
// thread. Then, each thread writes the positions of set bits within its
// assigned bitmap chunk to its corresponding offset." dst must be pre-sized
// to the known set-bit count (host code learns it from BitmapCount).
// partials must hold gsz+1 words.
func Materialize(q *cl.Queue, dst, bm, partials *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	d, src, p := dst.U32(), bm.Bytes(), partials.U32()
	nb := BitmapBytes(n)

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(nb)
		var sum uint32
		for i := lo; i < hi; i++ {
			sum += uint32(bits.OnesCount8(src[i]))
		}
		p[t.Global] = sum
	}, launch(dev, "materialize_counts", cl.Cost{BytesStreamed: int64(nb), Ops: int64(nb)}, wait))

	ev2 := q.EnqueueKernel(func(t *cl.Thread) {
		if t.Global != 0 {
			return
		}
		var run uint32
		for i := 0; i < gsz; i++ {
			v := p[i]
			p[i] = run
			run += v
		}
		p[gsz] = run
	}, launch(dev, "materialize_scan", cl.Cost{BytesStreamed: int64(gsz) * 8}, []*cl.Event{ev1}))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(nb)
		k := p[t.Global]
		for i := lo; i < hi; i++ {
			w := src[i]
			for w != 0 {
				j := bits.TrailingZeros8(w)
				row := i*8 + j
				if row < n {
					d[k] = uint32(row)
					k++
				}
				w &= w - 1
			}
		}
	}, launch(dev, "materialize_write", cl.Cost{BytesStreamed: int64(nb) + int64(n), Ops: int64(nb)}, []*cl.Event{ev2}))
}

// I32RangeBounds converts float64 bounds into the inclusive int32 interval
// the selection kernel takes; ok is false when the interval is empty.
func I32RangeBounds(lo, hi float64, loIncl, hiIncl bool) (l, h int32, ok bool) {
	lf := math.Ceil(lo)
	if lf == lo && !loIncl {
		lf++
	}
	hf := math.Floor(hi)
	if hf == hi && !hiIncl {
		hf--
	}
	if lf > hf {
		return 0, 0, false
	}
	if lf < math.MinInt32 {
		lf = math.MinInt32
	}
	if hf > math.MaxInt32 {
		hf = math.MaxInt32
	}
	return int32(lf), int32(hf), true
}
