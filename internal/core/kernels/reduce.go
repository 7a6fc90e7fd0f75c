package kernels

import (
	"math"

	"repro/internal/cl"
	"repro/internal/ops"
)

// Ungrouped aggregation uses the parallel binary reduction strategy of
// Horn's stream-reduction work, as the paper does (§4.1.7): every work-item
// folds its span into a private accumulator, the per-item partials are then
// tree-reduced in local memory by a single work-group.

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
func fold[T int32 | float32](kind ops.Agg, a, b T) T {
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
	dev := q.Device()
	_, local, gsz := Geometry(dev)
	s, p, d := src.F32(), partials.F32(), dst.F32()
	id := identityF32(kind)

	if kind == ops.Sum {
		// Fixed partition: SumChunks contiguous chunks, each folded
		// sequentially, then one sequential fold over the chunk partials.
		// Work-items stride over the chunks, so the parallelism matches the
		// device while the addition order stays geometry-independent. The
		// cost fields are unchanged from the geometry-partitioned variant:
		// the same bytes stream and the same adds run, so simulated-device
		// timelines are identical.
		chunk := (n + SumChunks - 1) / SumChunks
		ev1 := q.EnqueueKernel(func(t *cl.Thread) {
			for c := t.Global; c < SumChunks; c += t.GlobalSize {
				lo := c * chunk
				hi := lo + chunk
				if lo > n {
					lo = n
				}
				if hi > n {
					hi = n
				}
				acc := id
				for i := lo; i < hi; i++ {
					acc += s[i]
				}
				p[c] = acc
			}
		}, launch(dev, "reduce_f32_partials", cl.Cost{BytesStreamed: int64(n) * 4, Ops: int64(n)}, wait))

		return q.EnqueueKernel(func(t *cl.Thread) {
			if t.Global != 0 {
				return
			}
			acc := id
			for i := 0; i < SumChunks; i++ {
				acc += p[i]
			}
			d[0] = acc
		}, launch(dev, "reduce_f32_final", cl.Cost{BytesStreamed: int64(gsz) * 4, Ops: int64(gsz)}, []*cl.Event{ev1}))
	}

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		acc := id
		for i := lo; i < hi; i += step {
			acc = fold(kind, acc, s[i])
		}
		p[t.Global] = acc
	}, launch(dev, "reduce_f32_partials", cl.Cost{BytesStreamed: int64(n) * 4, Ops: int64(n)}, wait))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lmem := t.LocalF32()
		acc := id
		for i := t.Local; i < gsz; i += t.LocalSize {
			acc = fold(kind, acc, p[i])
		}
		lmem[t.Local] = acc
		t.Barrier()
		for w := t.LocalSize; w > 1; {
			half := (w + 1) / 2
			if t.Local < w/2 {
				lmem[t.Local] = fold(kind, lmem[t.Local], lmem[t.Local+half])
			}
			t.Barrier()
			w = half
		}
		if t.Local == 0 {
			d[0] = lmem[0]
		}
	}, cl.Launch{
		Name: "reduce_f32_final", Groups: 1, Local: local, LocalWords: local,
		Barriers: true, Cost: cl.Cost{BytesStreamed: int64(gsz) * 4, Ops: int64(gsz)},
		Wait: []*cl.Event{ev1},
	})
}

// ReduceI32 enqueues the int32 reduction of src[:n] under kind into dst[0].
func ReduceI32(q *cl.Queue, dst, src, partials *cl.Buffer, kind ops.Agg, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, local, gsz := Geometry(dev)
	s, p, d := src.I32(), partials.I32(), dst.I32()
	id := identityI32(kind)

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		acc := id
		for i := lo; i < hi; i += step {
			acc = fold(kind, acc, s[i])
		}
		p[t.Global] = acc
	}, launch(dev, "reduce_i32_partials", cl.Cost{BytesStreamed: int64(n) * 4, Ops: int64(n)}, wait))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lmem := t.LocalI32()
		acc := id
		for i := t.Local; i < gsz; i += t.LocalSize {
			acc = fold(kind, acc, p[i])
		}
		lmem[t.Local] = acc
		t.Barrier()
		for w := t.LocalSize; w > 1; {
			half := (w + 1) / 2
			if t.Local < w/2 {
				lmem[t.Local] = fold(kind, lmem[t.Local], lmem[t.Local+half])
			}
			t.Barrier()
			w = half
		}
		if t.Local == 0 {
			d[0] = lmem[0]
		}
	}, cl.Launch{
		Name: "reduce_i32_final", Groups: 1, Local: local, LocalWords: local,
		Barriers: true, Cost: cl.Cost{BytesStreamed: int64(gsz) * 4, Ops: int64(gsz)},
		Wait: []*cl.Event{ev1},
	})
}
