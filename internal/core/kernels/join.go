package kernels

import (
	"math/bits"

	"repro/internal/cl"
)

// Join kernels (§4.1.5), after He et al.: both the hash join and the nested
// loop join use the two-step count-then-scatter approach to avoid thread
// synchronisation — "each thread counts the number of result tuples it will
// generate. From these counts, unique write offsets into a result buffer
// are computed for each thread using a prefix sum. In the second stage, the
// join is actually performed." When the build side is a key column the
// result size is bounded by the probe size and the two-step procedure is
// skipped (the direct path below).

// JoinProbeCount enqueues step one of the hash join: counts[i] = number of
// build matches of probe row i.
func JoinProbeCount(q *cl.Queue, counts *cl.Buffer, s Slots, starts *cl.Buffer, probe *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	c := counts.U32()
	v, so := s.view(), starts.U32()
	src := probe.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		if id := v.ident; id.bits != nil {
			for i := lo; i < hi; i += step {
				c[i] = bucketLen(so, id.gid(src[i], 0))
			}
			return
		}
		sv := v.sorted
		for i := lo; i < hi; i += step {
			c[i] = bucketLen(so, sv.gid(src[i]))
		}
	}, launch(q.Device(), "join_probe_count", n,
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * s.probeBytes()}, wait))
}

// JoinProbeWrite enqueues step two: every probe row re-finds its bucket and
// writes its (probe, build) pairs at its offset from the prefix sum.
func JoinProbeWrite(q *cl.Queue, outL, outR, offsets *cl.Buffer, s Slots, starts, rowids *cl.Buffer, probe *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	ol, or, off := outL.U32(), outR.U32(), offsets.U32()
	v, so, rid := s.view(), starts.U32(), rowids.U32()
	src := probe.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		if id := v.ident; id.bits != nil {
			for i := lo; i < hi; i += step {
				writeMatches(ol, or, rid, so, off[i], i, id.gid(src[i], 0))
			}
			return
		}
		sv := v.sorted
		for i := lo; i < hi; i += step {
			writeMatches(ol, or, rid, so, off[i], i, sv.gid(src[i]))
		}
	}, launch(q.Device(), "join_probe_write", n,
		cl.Cost{BytesStreamed: int64(n) * 12, BytesRandom: int64(n) * s.probeBytes()}, wait))
}

// JoinProbeUnique enqueues the direct path for key build sides: at most one
// match per probe row, so the kernel emits a match bitmap plus the matching
// build row per probe row — no counting pass needed (§4.1.5's
// known-cardinality case). rpos[i] is undefined where the bit is unset. Like
// every bitmap producer it works a 32-row word at a time, leaves the bits
// from n to the word boundary zero and the per-item population counts in
// partials (gsz words, for FoldCount).
func JoinProbeUnique(q *cl.Queue, bm, rpos, partials *cl.Buffer, s Slots, starts, rowids *cl.Buffer, probe *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	dst, p := bm.U32(), partials.U32()
	rp := rpos.U32()
	v, so, rid := s.view(), starts.U32(), rowids.U32()
	src := probe.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		wlo, whi, step := t.Span(BitmapWords(n))
		var sum int
		var gids [32]int32
		id, sv := v.ident, v.sorted
		for w := wlo; w < whi; w += step {
			var out uint32
			base := w * 32
			keys := src[base:min(base+32, n)]
			if id.bits != nil {
				for i, k := range keys {
					gids[i] = id.gid(k, 0)
				}
			} else {
				for i, k := range keys {
					gids[i] = sv.gid(k)
				}
			}
			for i, gid := range gids[:len(keys)] {
				if gid >= 0 && so[gid+1] > so[gid] {
					out |= 1 << uint(i)
					rp[base+i] = rid[so[gid]]
				}
			}
			dst[w] = out
			sum += bits.OnesCount32(out)
		}
		p[t.Global] = uint32(sum)
	}, launch(q.Device(), "join_probe_unique", n,
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * s.probeBytes()}, wait))
}

// ExistsProbe enqueues the semi/anti-join kernel: bit i of the bitmap is set
// iff probe row i's key {is, is not} present in the table; words, tail and
// partials as in JoinProbeUnique.
func ExistsProbe(q *cl.Queue, bm, partials *cl.Buffer, s Slots, probe *cl.Buffer, n int, negate bool, wait []*cl.Event) *cl.Event {
	dst, p := bm.U32(), partials.U32()
	v := s.view()
	src := probe.U32()
	name, flip := "semijoin_probe", uint32(0)
	if negate {
		name, flip = "antijoin_probe", 1
	}
	return q.EnqueueKernel(func(t *cl.Thread) {
		wlo, whi, step := t.Span(BitmapWords(n))
		var sum int
		id, sv := v.ident, v.sorted
		for w := wlo; w < whi; w += step {
			var out uint32
			keys := src[w*32 : min(w*32+32, n)]
			if id.bits != nil {
				for _, k := range keys {
					out = out>>1 | id.has(k)<<31
				}
			} else {
				for _, k := range keys {
					out = out>>1 | b2u(sv.gid(k) >= 0)<<31
				}
			}
			out = (out ^ -flip) >> uint(32-len(keys)) // flip before the shift drops the low bits
			dst[w] = out
			sum += bits.OnesCount32(out)
		}
		p[t.Global] = uint32(sum)
	}, launch(q.Device(), name, n,
		cl.Cost{BytesStreamed: int64(n) * 4, BytesRandom: int64(n) * s.probeBytes()}, wait))
}

// bucketLen is the number of build rows with dense id gid, 0 for -1.
func bucketLen(starts []uint32, gid int32) uint32 {
	if gid < 0 {
		return 0
	}
	return starts[gid+1] - starts[gid]
}

// writeMatches writes probe row i's (probe, build) pairs for dense id gid
// from position k on; nothing for -1.
func writeMatches(ol, or, rowids, starts []uint32, k uint32, i int, gid int32) {
	if gid < 0 {
		return
	}
	for b := starts[gid]; b < starts[gid+1]; b++ {
		ol[k], or[k] = uint32(i), rowids[b]
		k++
	}
}

// NestedLoopCount enqueues step one of the nested loop join used for theta
// joins: counts[i] = matches of l[i] across all of r under cmp (encoded as
// an equality here for the generic path; callers provide the typed predicate
// via pred).
func NestedLoopCount(q *cl.Queue, counts *cl.Buffer, l, r *cl.Buffer, nl, nr int, pred func(a, b uint32) bool, wait []*cl.Event) *cl.Event {
	c := counts.U32()
	lv, rv := l.U32(), r.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(nl)
		for i := lo; i < hi; i += step {
			var cnt uint32
			a := lv[i]
			for j := 0; j < nr; j++ {
				if pred(a, rv[j]) {
					cnt++
				}
			}
			c[i] = cnt
		}
	}, launch(q.Device(), "nlj_count", nl*nr,
		cl.Cost{BytesStreamed: int64(nl) * int64(nr) * 4 / 64, Ops: int64(nl) * int64(nr)}, wait))
}

// NestedLoopWrite enqueues step two of the nested loop join, scattering the
// (left, right) pairs at the prefix-sum offsets.
func NestedLoopWrite(q *cl.Queue, outL, outR, offsets *cl.Buffer, l, r *cl.Buffer, nl, nr int, pred func(a, b uint32) bool, wait []*cl.Event) *cl.Event {
	ol, or, off := outL.U32(), outR.U32(), offsets.U32()
	lv, rv := l.U32(), r.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(nl)
		for i := lo; i < hi; i += step {
			k := off[i]
			a := lv[i]
			for j := 0; j < nr; j++ {
				if pred(a, rv[j]) {
					ol[k] = uint32(i)
					or[k] = uint32(j)
					k++
				}
			}
		}
	}, launch(q.Device(), "nlj_write", nl*nr,
		cl.Cost{BytesStreamed: int64(nl) * int64(nr) * 4 / 64, Ops: int64(nl) * int64(nr)}, wait))
}
