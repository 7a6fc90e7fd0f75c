package kernels

import (
	"fmt"

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

// MaxRefineRun is the longest run of equal previous ids the run path takes
// (KeySpace.Runs). It sizes each work-item's set of a run's keys and bounds
// how far an item reads past its span to finish its last run; the run path's
// cost does not grow with it.
const MaxRefineRun = 64

const runSet = 2 * MaxRefineRun // numberRuns' set: an admitted run fills at most half

// GroupByRuns enqueues the run path over col refining prev, whose ids must be
// non-decreasing in row order: each work-item numbers the runs that start in
// its ChunkSpan (numberRuns) into its group count in spine (gsz+1 words),
// scanSpine turns the counts into offsets, §4.1.6's "prefix sum operation",
// and each item adds its offset to its runs' rows. Row i's id is then its
// pair's first-appearance id, monet.Group's, on every device and thread count.
// Once scanned has landed, total[0] is the group count; done is the last kernel.
func GroupByRuns(q *cl.Queue, ids, col, prev, spine, total *cl.Buffer, n int, wait []*cl.Event) (scanned, done *cl.Event) {
	c, p, d, sp := col.U32()[:n], prev.I32()[:n], ids.I32(), spine.U32()
	local := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(n)
		sp[t.Global] = numberRuns(c, p, d, lo, hi)
	}, launch(q.Device(), "group_run_local", n, cl.Cost{BytesStreamed: int64(n) * 12, Ops: int64(n) * 4}, wait))
	scanned = scanSpine(q, "group_run_spine", spine, total, []*cl.Event{local})
	done = q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(n)
		s, e := ownRuns(p, lo, hi)
		off := int32(sp[t.Global])
		for i := s; i < e; i++ {
			d[i] += off
		}
	}, launch(q.Device(), "group_run_ids", n, cl.Cost{BytesStreamed: int64(n) * 8}, []*cl.Event{scanned}))
	return scanned, done
}

// ownRuns returns the rows [s, e) of the runs of equal ids p that start in
// [lo, hi): a run under way at lo is the previous item's; the last may end past hi.
func ownRuns(p []int32, lo, hi int) (s, e int) {
	for s = lo; s > 0 && s < hi && p[s] == p[s-1]; s++ {
	}
	for e = hi; e > s && e < len(p) && p[e] == p[e-1]; e++ {
	}
	return s, e
}

// numberRuns gives each distinct key of the runs ownRuns(p, lo, hi) names the
// next id, from 0, in first-appearance order within its run, and returns the
// count. An open-addressed set holds the keys tagged with their run's previous
// id + 1, so earlier runs' entries read as empty and nothing is cleared. A run
// of more distinct keys than the set's runSet slots panics, failing the launch,
// where the probe would otherwise never end.
func numberRuns(c []uint32, p []int32, ids []int32, lo, hi int) uint32 {
	s, e := ownRuns(p, lo, hi)
	var keys [runSet]uint64 // tag<<32 | key
	var slotID [runSet]int32
	next := int32(0)
	for r := s; r < e; r++ {
		want, h := uint64(uint32(p[r])+1)<<32|uint64(c[r]), runSlot(c[r])
		for probes := 1; keys[h] != want && keys[h]>>32 == want>>32; probes++ {
			if probes == runSet {
				panic(fmt.Sprintf("kernels: the run of previous id %d has more than %d distinct keys", p[r], runSet))
			}
			h = (h + 1) % runSet
		}
		id := slotID[h]
		if keys[h] != want {
			id = next
		}
		keys[h], slotID[h], ids[r] = want, id, id
		next += int32(b2u(id == next))
	}
	return uint32(next)
}

// runSlot is key k's home slot in numberRuns' set: a Fibonacci hash's top bits.
func runSlot(k uint32) uint32 { return uint32(uint64(k*0x9E3779B1) * runSet >> 32) }

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
