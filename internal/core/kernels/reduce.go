package kernels

import (
	"math"

	"repro/internal/cl"
	"repro/internal/ops"
)

// Ungrouped aggregation keeps the first step of the paper's parallel binary
// reduction (§4.1.7): every work-item folds its span into a private
// accumulator. The paper then tree-reduces the per-item partials in local
// memory behind barriers; here one work-item folds them in index order
// (foldFinal), which needs neither — there are at most a few hundred.

// identityF32 returns the fold identity for a float aggregate.
func identityF32(kind ops.Agg) float32 {
	switch kind {
	case ops.Min:
		return float32(math.Inf(1))
	case ops.Max:
		return float32(math.Inf(-1))
	default:
		return 0
	}
}

// identityI32 returns the fold identity for an integer aggregate.
func identityI32(kind ops.Agg) int32 {
	switch kind {
	case ops.Min:
		return math.MaxInt32
	case ops.Max:
		return math.MinInt32
	default:
		return 0
	}
}

// fold combines two accumulators under kind.
func fold[T uint32 | int32 | float32](kind ops.Agg, a, b T) T {
	switch kind {
	case ops.Min:
		if b < a {
			return b
		}
		return a
	case ops.Max:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// SumChunks is the fixed, device-independent partition width of the float
// sum reduction. Float addition does not associate, so the partition (and
// with it the result's exact bit pattern) must not depend on launch geometry
// or device class: with a fixed chunking the same data sums to the same bits
// on every device, which is what lets a fused region's terminal sum (and a
// hybrid plan that moves the aggregation across devices) stay byte-identical
// to the unfused chain. Min/Max and integer sums are order-insensitive and
// keep the device-preferred partition.
const SumChunks = 128

// ReducePartialWords returns the partials-buffer size (in words) ReduceF32
// and ReduceI32 require on dev: the launch's global size, or SumChunks for
// the fixed-partition float sum, whichever is larger, plus headroom.
func ReducePartialWords(dev *cl.Device) int {
	_, _, gsz := Geometry(dev)
	if gsz < SumChunks {
		return SumChunks + 2
	}
	return gsz + 2
}

// ReduceF32 enqueues the reduction of src[:n] under kind (Sum/Min/Max) into
// dst[0]. partials must hold ReducePartialWords(dev) words.
func ReduceF32(q *cl.Queue, dst, src, partials *cl.Buffer, kind ops.Agg, n int, wait []*cl.Event) *cl.Event {
	return reduce(q, "reduce_f32", dst.F32(), src.F32(), partials.F32(), kind, identityF32(kind), kind == ops.Sum, n, wait)
}

// ReduceI32 enqueues the int32 reduction of src[:n] under kind into dst[0].
func ReduceI32(q *cl.Queue, dst, src, partials *cl.Buffer, kind ops.Agg, n int, wait []*cl.Event) *cl.Event {
	return reduce(q, "reduce_i32", dst.I32(), src.I32(), partials.I32(), kind, identityI32(kind), false, n, wait)
}

// reduce is the shape ReduceF32 and ReduceI32 share: every work-item folds
// its part of s[:n] into one partial, then foldFinal folds the partials into
// d[0]. fixed selects the float sum's partition — SumChunks contiguous
// chunks, each folded in row order, that work-items stride over — so the
// addition order is geometry-independent; otherwise each work-item folds the
// device's Span into p[t.Global]. Both partitions stream the same bytes and
// run the same adds, so their cost fields agree.
func reduce[T int32 | float32](q *cl.Queue, name string, d, s, p []T, kind ops.Agg, id T, fixed bool, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	parts := gsz
	body := func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		acc := id
		for i := lo; i < hi; i += step {
			acc = fold(kind, acc, s[i])
		}
		p[t.Global] = acc
	}
	if fixed {
		parts = SumChunks
		chunk := (n + SumChunks - 1) / SumChunks
		body = func(t *cl.Thread) {
			for c := t.Global; c < SumChunks; c += t.GlobalSize {
				acc := id
				for _, v := range s[min(c*chunk, n):min(c*chunk+chunk, n)] {
					acc += v
				}
				p[c] = acc
			}
		}
	}
	ev := q.EnqueueKernel(body, launch(dev, name+"_partials", n, cl.Cost{BytesStreamed: int64(n) * 4, Ops: int64(n)}, wait))
	return foldFinal(q, name+"_final", d, p[:parts], kind, id,
		cl.Cost{BytesStreamed: int64(gsz) * 4, Ops: int64(gsz)}, []*cl.Event{ev})
}

// foldFinal enqueues the fold of every partial of p under kind into d[0]:
// one work-item that folds them in index order (oneItem), the second step of
// every one-word reduction (scalar aggregates and selection counts alike).
func foldFinal[T uint32 | int32 | float32](q *cl.Queue, name string, d, p []T, kind ops.Agg, id T, cost cl.Cost, wait []*cl.Event) *cl.Event {
	return q.EnqueueKernel(func(*cl.Thread) {
		acc := id
		for _, v := range p {
			acc = fold(kind, acc, v)
		}
		d[0] = acc
	}, oneItem(name, cost, wait))
}
