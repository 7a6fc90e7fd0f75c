package kernels

import (
	"repro/internal/cl"
)

// Sorted-input grouping (§4.1.6): "If the input is sorted, we identify
// group boundaries by having each thread compare its value with its
// successor. Then, a prefix sum operation is used to generate dense group
// IDs." (Equivalently, each element compares with its predecessor; the scan
// of the boundary flags is the id.)

// GroupBoundaryFlags enqueues flags[i] = 1 iff i > 0 and col[i] != col[i-1]
// (bit-pattern comparison works for all four-byte types on sorted data).
func GroupBoundaryFlags(q *cl.Queue, flags, col *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	f, c := flags.U32(), col.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			f[i] = b2u(i > 0 && c[i] != c[i-1])
		}
	}, launch(q.Device(), "group_boundaries", n, cl.Cost{BytesStreamed: int64(n) * 12}, wait))
}

// GroupIDsFromScan enqueues ids[i] = int32(excl[i] + flags[i]) — turning the
// exclusive scan of boundary flags into inclusive dense group ids.
func GroupIDsFromScan(q *cl.Queue, ids, excl, flags *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, e, f := ids.I32(), excl.U32(), flags.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = int32(e[i] + f[i])
		}
	}, launch(q.Device(), "group_ids", n, cl.Cost{BytesStreamed: int64(n) * 12}, wait))
}

// Sparse-key grouping by sorting. §4.1.6 hashes every unsorted input; where
// identity addressing refuses the keys' range (IdentityWords), Group instead
// packs each row's composite key into one word, radix-sorts (code, row) with
// the §4.1.3 sort over only the passes the measured range needs, flags the
// run boundaries, scans them and scatters the ids back to row order. A
// composite range wider than a word sorts by its two words in turn. Ids come
// out in code order — prev-major, (previous id, key) — on every device and
// thread count, where identity addressing numbers the same pairs key-major;
// nothing can fail, so there is no fail word and no restart. The sorted
// addressing of the lookup table (SortedSlots) runs the same pipeline and
// keeps one code per run.

// Refining a clustered grouping inside its runs. When the previous ids are
// non-decreasing in row order, the rows of one previous id are one run and the
// runs come in previous-id order, so the sort path's id of a row is the number
// of distinct keys in the runs before its own plus its key's rank among its
// run's distinct keys: a sort of a few rows in registers, and §4.1.6's "prefix
// sum operation" over first-occurrence flags. KeyRange measures the run shape
// in the launch that measures the range (KeySpace.Runs).

// MaxRefineRun is the longest run of equal previous ids the run path takes:
// the run path costs more the longer its runs, the radix passes the same
// whatever the runs, and BenchmarkGroupRuns has them cross near 128 rows
// (DESIGN.md has the table).
const MaxRefineRun = 64

// GroupByRuns enqueues the run path over col refining prev, whose ids must be
// non-decreasing in row order: flags[i] = 1 iff row i is the first row of its
// run with its key, their exclusive scan into excl (spine and total as in
// PrefixSum), and ids[i] = the scan at the run's first row plus the rank of
// row i's key among the run's distinct keys — the ids GroupBySort gives the
// same rows, on every device and thread count. Once scanned has landed,
// total[0] is the number of groups; done is the last kernel.
func GroupByRuns(q *cl.Queue, ids, col, prev, flags, excl, spine, total *cl.Buffer, n int, wait []*cl.Event) (scanned, done *cl.Event) {
	c, p, f, e, d := col.I32()[:n], prev.I32()[:n], flags.U32(), excl.U32(), ids.I32()
	fev := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(n)
		rankRuns(c, p, f, d, lo, hi)
	}, launch(q.Device(), "group_run_flags", n,
		// The insertion sort moves a row at most MaxRefineRun/4 places on
		// random keys.
		cl.Cost{BytesStreamed: int64(n) * 16, Ops: int64(n) * MaxRefineRun / 4}, wait))
	scanned = PrefixSum(q, excl, flags, spine, total, n, []*cl.Event{fev})
	done = q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] += int32(e[i])
		}
	}, launch(q.Device(), "group_run_ids", n, cl.Cost{BytesStreamed: int64(n) * 12}, []*cl.Event{scanned}))
	return scanned, done
}

// rankRuns numbers the runs of equal previous ids p that start in rows [s,
// hi) — a run under way at s is the previous work-item's. It insertion-sorts
// each run's (key, row) pairs and walks them in key order, flagging each key's
// first row in f and leaving in ids each row's key rank among the run's
// distinct keys less the flags on the run's rows before it: adding the flags'
// exclusive scan at the row gives the scan at the run's first row plus the
// rank, the id. A run longer than MaxRefineRun grows pairs: the bound is the
// rule's, not the kernel's.
func rankRuns(c, p []int32, f []uint32, ids []int32, s, hi int) {
	var pairs []uint64
	for s > 0 && s < hi && p[s] == p[s-1] {
		s++
	}
	for s < hi {
		pairs = pairs[:0]
		for r := s; r < len(p) && p[r] == p[s]; r++ {
			pairs = append(pairs, uint64(uint32(c[r])^1<<31)<<32|uint64(r-s)) // int32 key order, then row order
		}
		for i := 1; i < len(pairs); i++ {
			x, j := pairs[i], i
			for ; j > 0 && pairs[j-1] > x; j-- {
				pairs[j] = pairs[j-1]
			}
			pairs[j] = x
		}
		first, out := f[s:s+len(pairs)], ids[s:s+len(pairs)]
		rank := int32(-1)
		for i, x := range pairs {
			fi := b2u(i == 0 || pairs[i-1]>>32 != x>>32)
			rank += int32(fi)
			first[uint32(x)], out[uint32(x)] = fi, rank
		}
		var before int32
		for i := range out {
			out[i] -= before
			before += int32(first[i])
		}
		s += len(pairs)
	}
}

// code packs composite key (k, b) into one word, second-word-major — code =
// b·(Span+1) + k − Min — so that code order is (b, k) order: prev-major, where
// identity addressing's bit (k − Min)·Prev + b is key-major. Only valid when
// ks.Range() fits a word; code(k, 0) is the low word k − Min of a wider range.
func (ks KeySpace) code(k, b uint32) uint32 { return b*(ks.Span+1) + (k - ks.Min) }

// GroupSortScratch is the working memory of GroupBySort and SortedSlots: two
// (code, row) buffer pairs of n words each — the two buffers the sort does
// not end in then hold boundary flags and their scan — the sort's histogram
// (SortHistWords), scan partials (gsz+1 words) and the boundary count.
type GroupSortScratch struct {
	K0, V0, K1, V1     *cl.Buffer
	Hist, Spine, Total *cl.Buffer
}

// GroupBySort enqueues the whole sort path over col (and prev, the second key
// word, nil for single-word keys): ids[i] receives the dense id of row i's
// key, numbered in code order. Once scanned has landed, Total[0]+1 is the
// number of groups; done is the last kernel.
func GroupBySort(q *cl.Queue, ids, col, prev *cl.Buffer, ks KeySpace, s GroupSortScratch, n int, wait []*cl.Event) (scanned, done *cl.Event) {
	_, rows, flags, excl, scanned := sortRuns(q, col, prev, ks, s, n, wait)
	d, e, f, r := ids.I32(), excl.U32(), flags.U32(), rows.U32()
	done = q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[r[i]] = int32(e[i] + f[i])
		}
	}, launch(q.Device(), "group_ids_scatter", n,
		cl.Cost{BytesStreamed: int64(n) * 12, BytesRandom: int64(n) * 4}, []*cl.Event{scanned}))
	return scanned, done
}

// SortedSlots enqueues the sorted addressing's slots stage over n > 0
// single-word keys measured as ks: GroupBySort's pipeline up to the scan,
// then one compaction that writes each run's code to its id — keys[id] =
// code. keys needs n words. Once scanned has landed, Total[0]+1 is the
// number of distinct keys; done is the compaction.
func SortedSlots(q *cl.Queue, keys, col *cl.Buffer, ks KeySpace, s GroupSortScratch, n int, wait []*cl.Event) (scanned, done *cl.Event) {
	codes, _, flags, excl, scanned := sortRuns(q, col, nil, ks, s, n, wait)
	d, c, e, f := keys.U32(), codes.U32(), excl.U32(), flags.U32()
	done = q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			if i == 0 || f[i] != 0 {
				d[e[i]+f[i]] = c[i]
			}
		}
	}, launch(q.Device(), "sorted_slots_compact", n, cl.Cost{BytesStreamed: int64(n) * 12}, []*cl.Event{scanned}))
	return scanned, done
}

// sortRuns is what GroupBySort and SortedSlots share: pack every row's code
// with its row number, radix-sort the pairs, flag the first row of every run
// of equal keys and scan the flags. It returns the buffers holding the sorted
// codes, the rows in that order, the flags and their exclusive scan. A range
// wider than one word (composite keys only) is sorted by its low word k-Min
// first, then — stably — by its high word, the previous ids gathered through
// the first sort's permutation; that is code order, and the flags compare
// both words.
func sortRuns(q *cl.Queue, col, prev *cl.Buffer, ks KeySpace, s GroupSortScratch, n int, wait []*cl.Event) (codes, rows, flags, excl *cl.Buffer, scanned *cl.Event) {
	dev := q.Device()
	src, k0, v0 := col.U32(), s.K0.U32(), s.V0.U32()
	wide := ks.Range() > 1<<32
	var pv []uint32
	streamed := int64(n) * 12
	if prev != nil && !wide {
		pv = prev.U32()
		streamed += int64(n) * 4
	}
	pack := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			k0[i], v0[i] = ks.code(src[i], wordAt(pv, i)), uint32(i)
		}
	}, launch(dev, "group_pack", n, cl.Cost{BytesStreamed: streamed, Ops: int64(n) * 2}, wait))

	bufs := []*cl.Buffer{s.K0, s.V0, s.K1, s.V1}
	if !wide {
		codes, rows, scanned = sortPasses(q, s.K0, s.V0, s.K1, s.V1, s.Hist, n, RadixBits(dev), codeBits(ks.Range()), []*cl.Event{pack})
		flags, excl = freePair(bufs, codes, rows)
		scanned = GroupBoundaryFlags(q, flags, codes, n, []*cl.Event{scanned})
	} else {
		lowK, lowV, lev := sortPasses(q, s.K0, s.V0, s.K1, s.V1, s.Hist, n, RadixBits(dev), codeBits(uint64(ks.Span)+1), []*cl.Event{pack})
		highK, tmpV := freePair(bufs, lowK, lowV)
		gev := Gather(q, highK, prev, lowV, n, []*cl.Event{lev})
		codes, rows, scanned = sortPasses(q, highK, lowV, lowK, tmpV, s.Hist, n, RadixBits(dev), codeBits(uint64(ks.Prev)), []*cl.Event{gev})
		flags, excl = freePair(bufs, codes, rows)
		h, r, f := codes.U32(), rows.U32(), flags.U32()
		scanned = q.EnqueueKernel(func(t *cl.Thread) {
			lo, hi, step := t.Span(n)
			for i := lo; i < hi; i += step {
				f[i] = b2u(i > 0 && (h[i] != h[i-1] || src[r[i]] != src[r[i-1]]))
			}
		}, launch(dev, "group_boundaries_wide", n,
			cl.Cost{BytesStreamed: int64(n) * 12, BytesRandom: int64(n) * 4}, []*cl.Event{scanned}))
	}
	scanned = PrefixSum(q, excl, flags, s.Spine, s.Total, n, []*cl.Event{scanned})
	return codes, rows, flags, excl, scanned
}

// freePair returns the two buffers of bufs that are neither a nor b.
func freePair(bufs []*cl.Buffer, a, b *cl.Buffer) (x, y *cl.Buffer) {
	var free []*cl.Buffer
	for _, c := range bufs {
		if c != a && c != b {
			free = append(free, c)
		}
	}
	return free[0], free[1]
}
