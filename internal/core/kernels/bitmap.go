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
// Layout: byte i of the bitmap covers rows 8i..8i+7, bit j = row 8i+j, so the
// little-endian 32-bit word w covers rows 32w..32w+31. Every kernel here
// works a word at a time — the paper's chunk, four times wider — which is
// safe on every buffer because bitmaps are allocated BitmapWords(n) words
// long. Invariant: bits >= n of the last word are zero. Every producer
// establishes it, so no consumer masks a tail.

// BitmapBytes returns the number of bytes holding the bits of n rows.
func BitmapBytes(n int) int { return (n + 7) / 8 }

// BitmapWords returns the bitmap size for n rows in 32-bit words.
func BitmapWords(n int) int { return (n + 31) / 32 }

// wordMask returns the bits of rows [lo, hi) within the word whose first row
// is base.
func wordMask(base, lo, hi int) uint32 {
	l, h := max(lo-base, 0), min(hi-base, 32)
	if l >= h {
		return 0
	}
	return ^uint32(0) >> uint(32-(h-l)) << uint(l)
}

// b2u is 1 when b holds, 0 otherwise, without a branch (SETcc).
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// refineBits is the survivor count up to which a conjunct tests only the
// surviving rows of a word instead of all 32. In the kernel a dense word
// costs 27–35 ns (0.85–1.1 ns a row) and a refined one ~10 ns plus ~2 ns a
// survivor — its trip count is data and mispredicts — so the measured
// crossover lies at 12–16 survivors for a range and 8–10 for a column
// comparison (BenchmarkSelectWord; table in DESIGN.md). 8 is the largest
// value within 10 % of the better of always-dense and always-refined at
// every measured point, on one thread and on two.
const refineBits = 8

// A wordPred is one compiled conjunct: eval returns the subset of alive —
// bits of rows [base, end), end-base <= 32 — whose rows pass. Dense words
// run the branch-free loops below (a predicate on unsorted data mispredicts
// every other row, so each compare becomes a flag, rotated into the mask
// with constant shifts); a word with few survivors visits only those — the
// observable-in-the-input analogue of a shrinking candidate list. The row
// loops are top-level functions on purpose: inside a closure the inliner
// leaves b2u as a call. Unfused selections and fused conjunctions share
// them, which keeps the two bit-for-bit equal.
type wordPred struct {
	keys          []uint32 // a range: the column's bit patterns
	flip, lo, wid uint32   // see rangeWord
	ai, bi        []int32  // a comparison of int32 columns
	af, bf        []float32
	cmp           ops.Cmp // Lt, Le, Eq or Ne (Gt/Ge arrive with operands swapped)
}

func (p *wordPred) eval(base, end int, alive uint32, refine int) uint32 {
	few := bits.OnesCount32(alive) <= refine
	switch {
	case p.keys != nil:
		if few {
			return rangeBits(p.keys[base:end], p.flip, p.lo, p.wid, alive)
		}
		return alive & rangeWord(p.keys[base:end], p.flip, p.lo, p.wid)
	case p.ai != nil:
		if few {
			return cmpBits(p.ai[base:end], p.bi[base:end], p.cmp, alive)
		}
		return alive & cmpWord(p.ai[base:end], p.bi[base:end], p.cmp)
	case p.af != nil:
		if few {
			return cmpBits(p.af[base:end], p.bf[base:end], p.cmp, alive)
		}
		return alive & cmpWord(p.af[base:end], p.bf[base:end], p.cmp)
	}
	return 0 // an empty interval
}

// rangeWord tests lo <= key(v) <= lo+wid for up to 32 values as one unsigned
// compare each. key flips the low 31 bits of negative patterns when flip is
// 0x7FFFFFFF, which orders float32 bit patterns like int32s (-0 → -1, +0 → 0,
// NaNs beyond ±Inf); with flip 0 it is the identity, for int32 columns.
func rangeWord(src []uint32, flip, lo, wid uint32) uint32 {
	var m uint32
	for _, v := range src {
		k := v ^ uint32(int32(v)>>31)&flip
		m = m>>1 | b2u(k-lo <= wid)<<31
	}
	return m >> uint(32-len(src))
}

// rangeBits is rangeWord over the rows set in alive only.
func rangeBits(src []uint32, flip, lo, wid, alive uint32) uint32 {
	var m uint32
	for a := alive; a != 0; a &= a - 1 {
		j := uint(bits.TrailingZeros32(a))
		v := src[j]
		k := v ^ uint32(int32(v)>>31)&flip
		m |= b2u(k-lo <= wid) << j
	}
	return m
}

// cmpWord evaluates x[i] cmp y[i] for up to 32 rows, the operator switch
// outside the row loop. NaN operands fail everything but Ne, as in Go.
func cmpWord[T int32 | float32](x, y []T, cmp ops.Cmp) uint32 {
	var m uint32
	y = y[:len(x)]
	switch cmp {
	case ops.Lt:
		for i, v := range x {
			m = m>>1 | b2u(v < y[i])<<31
		}
	case ops.Le:
		for i, v := range x {
			m = m>>1 | b2u(v <= y[i])<<31
		}
	case ops.Eq:
		for i, v := range x {
			m = m>>1 | b2u(v == y[i])<<31
		}
	default: // ops.Ne
		for i, v := range x {
			m = m>>1 | b2u(v != y[i])<<31
		}
	}
	return m >> uint(32-len(x))
}

// cmpBits is cmpWord over the rows set in alive only.
func cmpBits[T int32 | float32](x, y []T, cmp ops.Cmp, alive uint32) uint32 {
	var m uint32
	for a := alive; a != 0; a &= a - 1 {
		j := uint(bits.TrailingZeros32(a))
		v, w := x[j], y[j]
		var ok bool
		switch cmp {
		case ops.Lt:
			ok = v < w
		case ops.Le:
			ok = v <= w
		case ops.Eq:
			ok = v == w
		default:
			ok = v != w
		}
		m |= b2u(ok) << j
	}
	return m
}

// compilePreds binds the filters' typed views. Gt and Ge become Lt and Le
// with the operands swapped (exact for NaN too: both sides are false).
func compilePreds(filters []FusedPredFilter) []wordPred {
	ps := make([]wordPred, len(filters))
	for i, f := range filters {
		p := &ps[i]
		switch {
		case f.IsCmp:
			a, b := f.Col, f.Other
			p.cmp = f.Cmp
			switch f.Cmp {
			case ops.Gt:
				a, b, p.cmp = b, a, ops.Lt
			case ops.Ge:
				a, b, p.cmp = b, a, ops.Le
			}
			if f.Float {
				p.af, p.bf = a.F32(), b.F32()
			} else {
				p.ai, p.bi = a.I32(), b.I32()
			}
		case f.Lo <= f.Hi:
			p.keys, p.lo, p.wid = f.Col.U32(), uint32(f.Lo), uint32(f.Hi)-uint32(f.Lo)
			if f.Float {
				p.flip = math.MaxInt32
			}
		}
	}
	return ps
}

// Select enqueues the selection kernel: word w of bm receives the rows of
// [lo, hi) — a dense (VOID sub-range) candidate; [0, n) for none — that are
// set in cand (when non-nil) and pass every filter. One filter is the
// paper's selection; several are a fused conjunction, which costs nothing
// extra: a dead word skips the remaining predicates, and the separate
// bitmaps and combines of the unfused chain collapse into this launch. Each
// work-item leaves the population count of its words in partials (gsz words)
// for FoldCount.
func Select(q *cl.Queue, bm, cand, partials *cl.Buffer, filters []FusedPredFilter, lo, hi, n int, wait []*cl.Event) *cl.Event {
	return selectWords(q, bm, cand, partials, filters, lo, hi, n, refineBits, wait)
}

func selectWords(q *cl.Queue, bm, cand, partials *cl.Buffer, filters []FusedPredFilter, lo, hi, n, refine int, wait []*cl.Event) *cl.Event {
	dst, p := bm.U32(), partials.U32()
	nb := int64(BitmapBytes(n))
	cost := cl.Cost{BytesStreamed: nb * 2, Ops: int64(n) * int64(len(filters))}
	var in []uint32
	if cand != nil {
		in = cand.U32()
		cost.BytesStreamed += nb
	}
	for _, f := range filters {
		cost.BytesStreamed += int64(n) * 4
		if f.IsCmp {
			cost.BytesStreamed += int64(n) * 4
		}
	}
	name := "fused_select"
	switch f := filters[0]; {
	case len(filters) > 1:
	case f.IsCmp:
		name = "select_cmp"
	case f.Float:
		name = "select_f32"
	default:
		name = "select_i32"
	}
	preds := compilePreds(filters)
	nw := BitmapWords(n)
	hi = min(hi, n)
	return q.EnqueueKernel(func(t *cl.Thread) {
		wlo, whi, step := t.Span(nw)
		var sum int
		for w := wlo; w < whi; w += step {
			base, end := w*32, min(w*32+32, n)
			alive := wordMask(base, lo, hi)
			if in != nil {
				alive &= in[w]
			}
			for i := 0; i < len(preds) && alive != 0; i++ {
				alive = preds[i].eval(base, end, alive, refine)
			}
			dst[w] = alive
			sum += bits.OnesCount32(alive)
		}
		p[t.Global] = uint32(sum)
	}, launch(q.Device(), name, n, cost, wait))
}

// BitmapOr enqueues dst = a | b — the ∨ combine of Figure 3's union of two
// selection results — with the per-item population counts in partials like
// every bitmap producer.
func BitmapOr(q *cl.Queue, dst, a, b, partials *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, x, y, p := dst.U32(), a.U32(), b.U32(), partials.U32()
	nw := BitmapWords(n)
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(nw)
		var sum int
		for i := lo; i < hi; i += step {
			v := x[i] | y[i]
			d[i] = v
			sum += bits.OnesCount32(v)
		}
		p[t.Global] = uint32(sum)
	}, launch(q.Device(), "bitmap_or", nw, cl.Cost{BytesStreamed: int64(BitmapBytes(n)) * 3}, wait))
}

// FoldCount enqueues the sum of the gsz per-item population counts a bitmap
// producer left in partials into total[0] — foldFinal, as for a scalar sum.
func FoldCount(q *cl.Queue, partials, total *cl.Buffer, wait []*cl.Event) *cl.Event {
	_, _, gsz := Geometry(q.Device())
	return foldFinal(q, "bitcount_final", total.U32(), partials.U32()[:gsz], ops.Sum, 0,
		cl.Cost{BytesStreamed: int64(gsz) * 4}, wait)
}

// Materialize enqueues the bitmap→oid-list conversion (§4.1.2): "First, we
// compute a prefix sum over bit counts to get unique write offsets for each
// thread. Then, each thread writes the positions of set bits within its
// assigned bitmap chunk to its corresponding offset." dst must be pre-sized
// to the known set-bit count. partials must hold gsz+1 words.
func Materialize(q *cl.Queue, dst, bm, partials *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	d, src, p := dst.U32(), bm.U32(), partials.U32()
	nw, nb := BitmapWords(n), int64(BitmapBytes(n))

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(nw)
		var sum int
		for _, w := range src[lo:hi] {
			sum += bits.OnesCount32(w)
		}
		p[t.Global] = uint32(sum)
	}, launch(dev, "materialize_counts", nw, cl.Cost{BytesStreamed: nb, Ops: nb}, wait))

	ev2 := scanSpine(q, "materialize_scan", partials, nil, []*cl.Event{ev1})

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(nw)
		out := d[p[t.Global]:]
		k := 0
		for i, w := range src[lo:hi] {
			for base := uint32(lo+i) * 32; w != 0; w &= w - 1 {
				out[k] = base + uint32(bits.TrailingZeros32(w))
				k++
			}
		}
	}, launch(dev, "materialize_write", n, cl.Cost{BytesStreamed: nb + int64(n), Ops: nb}, []*cl.Event{ev2}))
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
	// Clamp each bound on its own side only, so that an interval lying
	// wholly beyond the domain (or a NaN bound) comes out empty.
	lf, hf = max(lf, math.MinInt32), min(hf, math.MaxInt32)
	if !(lf <= hf) {
		return 0, 0, false
	}
	return int32(lf), int32(hf), true
}

// F32RangeBounds collapses float32 bounds to the inclusive interval of
// order-preserving integer keys rangeWord tests (key = the bit pattern with
// the low 31 bits of negatives flipped). The interval is exact: the key map
// is strictly monotonic on non-NaN floats except that -0 and +0, equal as
// floats, get the adjacent keys -1 and 0 — so an inclusive bound at zero
// takes the outer of the two and an exclusive one steps past the inner; an
// exclusive bound elsewhere is its key ± 1, the neighbouring float. NaN
// values have keys beyond ±Inf and fall outside every interval; a NaN bound
// selects nothing, as every compare with it fails.
func F32RangeBounds(lo, hi float32, loIncl, hiIncl bool) (l, h int32, ok bool) {
	if lo != lo || hi != hi {
		return 0, 0, false
	}
	key := func(f float32) int64 {
		b := int32(math.Float32bits(f))
		return int64(b ^ b>>31&math.MaxInt32)
	}
	kl, kh := key(lo), key(hi)
	if lo == 0 { // -0 and +0 hold keys -1 and 0
		kl = 0
		if loIncl {
			kl = -1
		}
	}
	if hi == 0 {
		kh = -1
		if hiIncl {
			kh = 0
		}
	}
	if !loIncl {
		kl++
	}
	if !hiIncl {
		kh--
	}
	kl, kh = max(kl, key(float32(math.Inf(-1)))), min(kh, key(float32(math.Inf(1))))
	return int32(kl), int32(kh), kl <= kh
}
