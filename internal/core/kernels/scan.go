package kernels

import (
	"repro/internal/cl"
)

// PrefixSum enqueues an exclusive prefix sum (scan) over src[:n] into
// dst[:n], writing the grand total to total[0]. Scans are the workhorse
// Ocelot uses to turn per-thread counts into unique write offsets
// (selection materialisation §4.1.2, the two-step joins §4.1.5, the radix
// sort §4.1.3), following Sengupta et al.'s scan primitives.
//
// Three phases, all device-side:
//  1. each work-item sums its contiguous chunk → partials[item]
//  2. one work-item scans the (tiny) partials array exclusively
//  3. each work-item re-walks its chunk, writing running offsets
//
// partials must hold gsz+1 words (gsz = Geometry's global size).
func PrefixSum(q *cl.Queue, dst, src, partials, total *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	s, d, p := src.U32(), dst.U32(), partials.U32()

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(n)
		var sum uint32
		for i := lo; i < hi; i++ {
			sum += s[i]
		}
		p[t.Global] = sum
	}, launch(dev, "scan_partials", n, cl.Cost{BytesStreamed: int64(n) * 4}, wait))

	ev2 := scanSpine(q, "scan_spine", partials, total, []*cl.Event{ev1})

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(n)
		run := p[t.Global]
		for i := lo; i < hi; i++ {
			v := s[i]
			d[i] = run
			run += v
		}
	}, launch(dev, "scan_apply", n, cl.Cost{BytesStreamed: int64(n) * 8}, []*cl.Event{ev2}))
}

// scanSpine enqueues phase 2 of the chunked scans: one work-item (oneItem)
// turns the gsz per-item sums in partials into exclusive offsets in place,
// leaving the grand total in partials[gsz] and, when total is non-nil,
// total[0].
func scanSpine(q *cl.Queue, name string, partials, total *cl.Buffer, wait []*cl.Event) *cl.Event {
	_, _, gsz := Geometry(q.Device())
	p := partials.U32()
	tot := p[gsz:]
	if total != nil {
		tot = total.U32()
	}
	return q.EnqueueKernel(func(*cl.Thread) {
		var run uint32
		for i := 0; i < gsz; i++ {
			v := p[i]
			p[i] = run
			run += v
		}
		p[gsz] = run
		tot[0] = run
	}, oneItem(name, cl.Cost{BytesStreamed: int64(gsz) * 8}, wait))
}
