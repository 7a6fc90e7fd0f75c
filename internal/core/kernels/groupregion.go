package kernels

import (
	"math/bits"

	"repro/internal/cl"
	"repro/internal/ops"
)

// A grouped region is a chain of groupings over int32 keys and the aggregates
// over its ids (§4.1.6 and §4.1.7), run as one fold by key code instead of a
// slots build and look-up per grouping and a partials pass per aggregate.
// After one KeyRanges measurement, a row's code is
//
//	code = Σ_j (k_j − min_j) · Π_{i<j} (span_i + 1)
//
// — last key most significant, the order in which a chain of
// identity-addressed groupings numbers its ids — and GroupRegionFold folds
// every aggregate by code into the partials layout of groupedAgg: SumChunks
// chunks of the rows, each folding its rows in row order into a private row of
// codes accumulators. GroupRegionFinal numbers the codes that occur and folds
// each one's chunk partials in ascending chunk order, as groupedAgg's final
// pass folds a group's. Under GroupRegionFits the chained path uses the same
// chunk partition for every aggregate, so every result, float sums included,
// has the chained path's bits.

// GroupRegionFits is the grouped region's rule, a pure function of the n rows
// and the codes the keys span: the region folds by code when the code range
// keeps the grouped partition at SumChunks chunks — then every grouped
// aggregate of the chained path, over any number of groups up to codes, folds
// the same rows in the same chunks — and the partials table of codes ×
// SumChunks words is no larger than the input, GroupAggScratchWords' test.
func GroupRegionFits(n int, codes uint64) bool {
	return codes <= uint64(n) && GroupSumChunksFor(n, int(codes)) == SumChunks &&
		GroupAggScratchWords(n, int(codes)) > 0
}

// RegionAcc is one accumulator of a grouped region's fold: Kind (Sum, Min or
// Max) over Vals into Parts, a table of SumChunks × codes words whose previous
// contents are ignored. A nil Vals counts rows.
type RegionAcc struct {
	Kind        ops.Agg
	Float       bool
	Vals, Parts *cl.Buffer
}

// RegionOut is one result column of a grouped region, one word per code that
// occurs, in code order: the total of accumulator Acc — over the count's total
// (accumulator 0) when Avg is set — or, where Acc is negative, the code's
// digit of key Key plus the key's minimum.
type RegionOut struct {
	Dst *cl.Buffer
	Acc int
	Avg bool
	Key int
}

// regionAcc is a RegionAcc with its buffer views resolved.
type regionAcc struct {
	kind   ops.Agg
	pi, vi []int32
	pf, vf []float32
}

func viewAccs(accs []RegionAcc) []regionAcc {
	out := make([]regionAcc, len(accs))
	for i, a := range accs {
		out[i].kind = a.Kind
		switch {
		case a.Float:
			out[i].pf, out[i].vf = a.Parts.F32(), a.Vals.F32()
		case a.Vals != nil:
			out[i].pi, out[i].vi = a.Parts.I32(), a.Vals.I32()
		default:
			out[i].pi = a.Parts.I32()
		}
	}
	return out
}

// regionDigits returns, per key, the minimum and the code weight
// Π_{i<j} (span_i + 1).
func regionDigits(ks []KeySpace) (mins, muls []uint32) {
	mins, muls = make([]uint32, len(ks)), make([]uint32, len(ks))
	mul := uint32(1)
	for j, k := range ks {
		mins[j], muls[j] = k.Min, mul
		mul *= k.Span + 1
	}
	return mins, muls
}

// GroupRegionFold enqueues the fold: every row's code into code (n words,
// scratch), then each accumulator folded by code under groupedAgg's partition
// — SumChunks chunks, four folded in lockstep by one work-item where the kind
// allows — and a bit per code that occurs in the zeroed present bitmap.
// accs[0] must be the count. ks are the keys' measurements (KeyRanges), keys
// their columns, codes the product of their spans.
func GroupRegionFold(q *cl.Queue, code, present *cl.Buffer, keys []*cl.Buffer, ks []KeySpace, accs []RegionAcc, n, codes int, wait []*cl.Event) *cl.Event {
	c, pr := code.I32(), present.U32()
	kv := make([][]int32, len(keys))
	for j, k := range keys {
		kv[j] = k.I32()[:n]
	}
	mins, muls := regionDigits(ks)
	av := viewAccs(accs)
	counts := av[0].pi
	chunkLen := (n + SumChunks - 1) / SumChunks
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.GroupSpan(SumChunks)
		for c0 := lo + foldLanes*t.Local; c0 < hi; c0 += foldLanes * t.LocalSize {
			c1 := min(c0+foldLanes, hi)
			regionCodes(c, kv, mins, muls, min(c0*chunkLen, n), min(c1*chunkLen, n))
			for _, a := range av {
				if a.pf != nil {
					foldChunks(a.kind, a.pf, a.vf, c, identityF32(a.kind), c0, c1, codes, chunkLen, n)
				} else {
					foldChunks(a.kind, a.pi, a.vi, c, identityI32(a.kind), c0, c1, codes, chunkLen, n)
				}
			}
			markPresent(pr, counts, c0, c1, codes)
		}
	}, launch(q.Device(), "group_region_fold", cl.Cost{
		BytesStreamed: int64(n)*4*int64(len(keys)+len(accs)) + int64(SumChunks*codes)*4*int64(len(accs)),
		BytesRandom:   int64(n) * 8 * int64(len(accs)),
		Ops:           int64(n) * int64(len(keys)+len(accs)),
	}, wait))
}

// regionCodes writes the codes of rows lo..hi-1, one key at a time.
func regionCodes(code []int32, keys [][]int32, mins, muls []uint32, lo, hi int) {
	c := code[lo:hi]
	m0 := mins[0]
	for i, k := range keys[0][lo:hi] {
		c[i] = int32(uint32(k) - m0)
	}
	for j := 1; j < len(keys); j++ {
		mj, mul := mins[j], muls[j]
		for i, k := range keys[j][lo:hi] {
			c[i] += int32((uint32(k) - mj) * mul)
		}
	}
}

// markPresent ORs into present the codes chunks c0..c1-1 counted rows of, a
// word at a time, storing only bits that are not set yet.
func markPresent(present []uint32, counts []int32, c0, c1, codes int) {
	for w := 0; w*32 < codes; w++ {
		var m uint32
		for x := w * 32; x < min(w*32+32, codes); x++ {
			for ch := c0; ch < c1; ch++ {
				if counts[ch*codes+x] != 0 {
					m |= 1 << (x & 31)
					break
				}
			}
		}
		if m&^cl.AtomicLoadU32(&present[w]) != 0 {
			cl.AtomicOrU32(&present[w], m)
		}
	}
}

// GroupRegionFinal enqueues the numbering and the results: each work-item
// takes a contiguous span of the codes, ranks its first code by the present
// bits below it, and writes every output at the rank of each code that
// occurs. A total folds the code's SumChunks partials in ascending chunk
// order from the kind's identity — groupedAgg's final pass over the same
// values.
func GroupRegionFinal(q *cl.Queue, present *cl.Buffer, ks []KeySpace, accs []RegionAcc, outs []RegionOut, codes int, wait []*cl.Event) *cl.Event {
	pr := present.U32()
	av := viewAccs(accs)
	mins, muls := regionDigits(ks)
	type out struct {
		di            []int32
		df            []float32
		acc           int
		avg           bool
		mul, div, min uint32 // a key's digit: x/mul % div + min
	}
	ws := make([]out, len(outs))
	for i, o := range outs {
		ws[i] = out{acc: o.Acc, avg: o.Avg}
		if o.Acc < 0 {
			ws[i].mul, ws[i].div, ws[i].min = muls[o.Key], ks[o.Key].Span+1, mins[o.Key]
		}
		if o.Avg || o.Acc >= 0 && av[o.Acc].pf != nil {
			ws[i].df = o.Dst.F32()
		} else {
			ws[i].di = o.Dst.I32()
		}
	}
	counts := av[0].pi
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(codes)
		rank := presentBelow(pr, lo)
		for x := lo; x < hi; x++ {
			if pr[x>>5]>>(x&31)&1 == 0 {
				continue
			}
			for _, o := range ws {
				switch {
				case o.acc < 0:
					o.di[rank] = int32(uint32(x)/o.mul%o.div + o.min)
				case o.avg:
					o.df[rank] = chunkTotal(ops.Sum, av[o.acc].pf, 0, x, codes) / float32(chunkTotal(ops.Sum, counts, 0, x, codes))
				case av[o.acc].pf != nil:
					a := av[o.acc]
					o.df[rank] = chunkTotal(a.kind, a.pf, identityF32(a.kind), x, codes)
				default:
					a := av[o.acc]
					o.di[rank] = chunkTotal(a.kind, a.pi, identityI32(a.kind), x, codes)
				}
			}
			rank++
		}
	}, launch(q.Device(), "group_region_final", cl.Cost{
		BytesStreamed: int64(SumChunks*codes)*4*int64(len(outs)) + int64(codes)*4*int64(len(outs)),
		Ops:           int64(SumChunks*codes) * int64(len(outs)),
	}, wait))
}

// chunkTotal folds code x's partials over the SumChunks chunks of p.
func chunkTotal[T int32 | float32](kind ops.Agg, p []T, id T, x, codes int) T {
	acc := id
	for c := 0; c < SumChunks; c++ {
		acc = fold(kind, acc, p[c*codes+x])
	}
	return acc
}

// presentBelow counts the bits of present below bit x.
func presentBelow(present []uint32, x int) int {
	r := 0
	for _, w := range present[:x>>5] {
		r += bits.OnesCount32(w)
	}
	if x&31 != 0 {
		r += bits.OnesCount32(present[x>>5] & (1<<(x&31) - 1))
	}
	return r
}
