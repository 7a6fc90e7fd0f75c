package kernels

import (
	"slices"

	"repro/internal/cl"
)

// Sorted-input grouping (§4.1.6): "If the input is sorted, we identify
// group boundaries by having each thread compare its value with its
// successor. Then, a prefix sum operation is used to generate dense group
// IDs." (Equivalently, each element compares with its predecessor; the scan
// of the boundary flags is the id.)

// GroupBoundaryFlags enqueues flags[i] = 1 iff i > 0 and col[i] != col[i-1]
// (bit-pattern comparison works for all four-byte types on sorted data).
// When prev is non-nil (refining an earlier grouping), a change in the
// previous group id also starts a new group.
func GroupBoundaryFlags(q *cl.Queue, flags, col, prev *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	f, c := flags.U32(), col.U32()
	var p []int32
	if prev != nil {
		p = prev.I32()
	}
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			if i == 0 {
				f[i] = 0
				continue
			}
			if c[i] != c[i-1] || (p != nil && p[i] != p[i-1]) {
				f[i] = 1
			} else {
				f[i] = 0
			}
		}
	}, launch(q.Device(), "group_boundaries", cl.Cost{BytesStreamed: int64(n) * 12}, wait))
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
	}, launch(q.Device(), "group_ids", cl.Cost{BytesStreamed: int64(n) * 12}, wait))
}

// Sparse-key grouping by sorting. §4.1.6 hashes every unsorted input; where
// SortGroupBits says the hashed table would miss cache on every row, Group
// instead packs each row's composite key into one word, radix-sorts (code,
// row) with the §4.1.3 sort over only the passes the measured range needs,
// flags the run boundaries, scans them and scatters the ids back to row
// order. Ids come out in composite-key order on every device and thread
// count; nothing can fail, so there is no fail word and no restart.

// keySampleLen is the number of rows KeyRange samples out of n for the
// distinct estimate, and keySampleStride the distance between them — odd, so
// that a power-of-two period in the data does not alias with it.
func keySampleLen(n int) int { return min(n, 1024) }

func keySampleStride(n int) int {
	stride := max(1, n/keySampleLen(n))
	if stride > 1 && stride%2 == 0 {
		stride--
	}
	return stride
}

// KeyRangeWords is the size of KeyRange's partials buffer: min and max per
// work-item, then the sampled (key word, second word) pairs.
func KeyRangeWords(dev *cl.Device, n int) int {
	_, _, gsz := Geometry(dev)
	return 2*gsz + 2*keySampleLen(n)
}

// estimateDistinct estimates the distinct composite keys among n rows from
// KeyRange's sample ((key word, second word) pairs; packed and sorted in
// place): the distinct codes seen plus Chao's estimate of the unseen ones from
// the codes seen once and twice, f1(f1-1)/2(f2+1). A sample that is the whole
// input is counted exactly.
func estimateDistinct(ks KeySpace, sample []uint32, n int) int {
	samples := keySampleLen(n)
	codes := sample[:samples]
	for j := range codes {
		codes[j] = ks.code(sample[2*j], sample[2*j+1]) // in place: j <= 2j
	}
	slices.Sort(codes)
	var seen, once, twice int
	for i := 0; i < samples; {
		j := i + 1
		for j < samples && codes[j] == codes[i] {
			j++
		}
		seen++
		switch j - i {
		case 1:
			once++
		case 2:
			twice++
		}
		i = j
	}
	if samples == n {
		return seen
	}
	return int(min(uint64(n), ks.Range(), uint64(seen+once*(once-1)/(2*(twice+1)))))
}

// code packs composite key (k, b) into one word, second-word-major, so that
// code order is (b, k) order. Only valid when ks.Range() fits a word.
func (ks KeySpace) code(k, b uint32) uint32 { return b*(ks.Span+1) + (k - ks.Min) }

// GroupSortScratch is the working memory of GroupBySort: two (code, row)
// buffer pairs of n words each — the pair the sort does not end in then holds
// boundary flags and their scan — the sort's histogram (SortHistWords), scan
// partials (gsz+1 words) and the boundary count.
type GroupSortScratch struct {
	K0, V0, K1, V1     *cl.Buffer
	Hist, Spine, Total *cl.Buffer
}

// GroupBySort enqueues the whole sort path over col (and prev, the second key
// word, nil for single-word keys): ids[i] receives the dense id of row i's
// key, numbered in code order; ks.Range() must fit one word. Once scanned has
// landed, Total[0]+1 is the number of groups; done is the last kernel.
func GroupBySort(q *cl.Queue, ids, col, prev *cl.Buffer, ks KeySpace, s GroupSortScratch, n int, wait []*cl.Event) (scanned, done *cl.Event) {
	src, codes, rows := col.U32(), s.K0.U32(), s.V0.U32()
	var pv []uint32
	streamed := int64(n) * 12
	if prev != nil {
		pv = prev.U32()
		streamed += int64(n) * 4
	}
	pack := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			var b uint32
			if pv != nil {
				b = pv[i]
			}
			codes[i], rows[i] = ks.code(src[i], b), uint32(i)
		}
	}, launch(q.Device(), "group_pack", cl.Cost{BytesStreamed: streamed, Ops: int64(n) * 2}, wait))

	sortedK, sortedV, sev := sortPasses(q, s.K0, s.V0, s.K1, s.V1, s.Hist, n, RadixBits(q.Device()), codeBits(ks.Range()), []*cl.Event{pack})
	flags, excl := s.K1, s.V1
	if sortedK == s.K1 {
		flags, excl = s.K0, s.V0
	}
	fev := GroupBoundaryFlags(q, flags, sortedK, nil, n, []*cl.Event{sev})
	scanned = PrefixSum(q, excl, flags, s.Spine, s.Total, n, []*cl.Event{fev})

	d, e, f, r := ids.I32(), excl.U32(), flags.U32(), sortedV.U32()
	done = q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[r[i]] = int32(e[i] + f[i])
		}
	}, launch(q.Device(), "group_ids_scatter",
		cl.Cost{BytesStreamed: int64(n) * 12, BytesRandom: int64(n) * 4}, []*cl.Event{scanned}))
	return scanned, done
}
