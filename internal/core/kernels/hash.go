package kernels

import (
	"math"
	"math/bits"

	"repro/internal/cl"
)

// The lookup table of §4.1.4, after He et al. [19]: a slots stage that
// gives every distinct build key a dense id, then per-key counting, a prefix
// sum into bucket starts and a scatter of row ids. Grouping uses the dense
// ids directly as group ids; joins use the buckets.
//
// The paper fills the slots by parallel hashing — compare-and-swap along six
// hash functions, restarting with a larger table when a row finds no slot.
// This engine addresses them deterministically instead, in one of two ways
// chosen from what one KeyRange launch measures of the keys:
//
//   - identity, when the keys' range is small enough (IdentityWords): a
//     bitmap over [min, max] — the engine's own selection representation,
//     §4.1.2 — plus a per-word popcount rank directory, and a key's id is the
//     number of set bits before its own;
//   - sorted, for every other key set: the distinct key codes in ascending
//     order, built by the radix sort of §4.1.3 (SortedSlots), and a key's id
//     is its position, found by binary search.
//
// Either way a key's id is its rank among the distinct keys, the same on
// every device and thread count, and nothing can fail: no compare-and-swap,
// no fail flag, no restart. Everything above the slots reads either
// addressing through Slots.

// Slots is the slots stage of the lookup table as the kernels see it: one
// structure under one of two addressings. Identity (Bits != nil): key word k
// of a key (k, b) owns bit (k-Min)*Prev + b of Bits, and its dense id is the
// number of set bits before it — Rank[word] plus a popcount — so ids number
// the keys key-major, in (k, b) order. Sorted (Keys != nil, single-word keys
// only): Keys holds the Distinct codes k-Min in ascending order, and a key's
// id is its code's position, so ids number the keys in k order. (The sort and
// run paths of Group number composite pairs prev-major, in (b, k) order:
// KeySpace.code.)
type Slots struct {
	Bits, Rank *cl.Buffer
	Keys       *cl.Buffer
	Distinct   int    // sorted addressing: the number of codes in Keys
	Min        uint32 // smallest key word (int32 order)
	Span       uint32 // largest key word - Min
	Prev       uint32 // composite keys: b < Prev; 1 for single-word keys
}

// SlotBytes is the byte budget of identity addressing over n keys: 12 bytes
// for each slot of the smallest power of two at least 1.4n + 8 — the size of
// the over-allocated slot arrays of §4.1.4's parallel hashing, which the
// budget was first priced against — or the device's local memory size (a
// §4.2 build constant) where that is larger. The sorted addressing's codes,
// at most n words, stay below it too.
func SlotBytes(dev *cl.Device, n int) int64 {
	want, slots := int(float64(n)*1.4)+8, 8
	for slots < want {
		slots <<= 1
	}
	return max(12*int64(slots), int64(dev.Const.LocalMemSize))
}

// IdentityWords is the addressing rule, a pure function of what the build
// observes and the device's build constants: the bitmap length in words when
// n keys spanning keyRange distinct addresses take identity addressing, 0
// when they are sorted (or, grouped, numbered inside runs). Identity addressing is chosen when bitmap plus rank
// directory occupy no more than SlotBytes — which holds, whatever n, for a
// structure the size of local memory: a handful of keys spread over a small
// range (140 part positions in [0, 20 000)) is probed by every row of the
// other side, and a structure of that size stays in the cores' nearest
// cache.
func IdentityWords(dev *cl.Device, n int, keyRange uint64) int {
	words := (keyRange + 31) / 32
	if keyRange == 0 || keyRange > 1<<32 || int64(8*words) > SlotBytes(dev, n) {
		return 0
	}
	return int(words)
}

// codeBits is the width of the packed codes 0..keyRange-1.
func codeBits(keyRange uint64) int { return max(1, bits.Len64(keyRange-1)) }

// probeBytes is the data-dependent volume of one probe for the cost model:
// bitmap word and rank word, or a word for each step of the binary search.
func (s Slots) probeBytes() int64 {
	if s.Bits != nil {
		return 8
	}
	return 4 * int64(bits.Len(uint(s.Distinct)))
}

// slotView is Slots with the buffer views resolved, for use inside kernels,
// which branch on the addressing before their row loop and copy the view they
// take into a local first: ident's look-ups are small enough to be inlined
// into the loop, a sorted one is a binary search.
type slotView struct {
	ident  identView // ident.bits != nil under identity addressing
	sorted sortedView
}

func (s Slots) view() *slotView {
	if s.Bits != nil {
		return &slotView{ident: identView{bits: s.Bits.U32(), rank: s.Rank.U32(), min: s.Min, span: s.Span, prev: s.Prev}}
	}
	return &slotView{sorted: sortedView{keys: s.Keys.U32()[:s.Distinct], min: s.Min}}
}

// identView is the identity addressing of Slots.
type identView struct {
	bits, rank      []uint32
	min, span, prev uint32
}

// sortedView is the sorted addressing of Slots.
type sortedView struct {
	keys []uint32
	min  uint32
}

// gid finds the dense id of key (a, b) in the bitmap, or -1; b is 0 for
// single-word keys. A key is absent when it lies outside [min, max] — a below
// min wraps around to a huge unsigned distance — or its bit is clear.
func (v identView) gid(a, b uint32) int32 {
	d := a - v.min
	if d > v.span {
		return -1
	}
	d = d*v.prev + b
	w, sh := v.bits[d>>5], d&31
	if w>>sh&1 == 0 {
		return -1
	}
	return int32(v.rank[d>>5] + uint32(bits.OnesCount32(w&(1<<sh-1))))
}

// has is 1 iff single-word key a is in the bitmap — gid(a, 0) >= 0 as a flag,
// without a branch (an absent key tests bit 0 and masks the answer out):
// whether a probe key is present is exactly what an existence join cannot
// predict.
func (v identView) has(a uint32) uint32 {
	d := a - v.min
	in := b2u(d <= v.span)
	d &= -in
	return in & (v.bits[d>>5] >> (d & 31))
}

// gid finds the dense id of key a among the sorted codes, or -1. a-min is a
// bijection of the 32-bit words, so a key outside the build's range finds no
// code of its own. The search halves the candidates without a branch: whether
// a probe key is present is what the branch predictor cannot know, and a
// branching search over 1 373 codes took twice as long a probe.
func (v sortedView) gid(a uint32) int32 {
	c, keys := a-v.min, v.keys
	n := len(keys)
	if n == 0 {
		return -1
	}
	base := 0
	for n > 1 {
		half := n >> 1
		base += half & -int(b2u(keys[base+half] <= c))
		n -= half
	}
	if keys[base] != c {
		return -1
	}
	return int32(base)
}

// wordAt is the second key word of row i: prev[i], or 0 for single-word keys
// (nil prev).
func wordAt(prev []uint32, i int) uint32 {
	if prev == nil {
		return 0
	}
	return prev[i]
}

// KeySpace is what one KeyRange launch observes of n key words: their range in
// int32 order and, for composite keys (k, b), the bound Prev on b (1 for
// single-word keys; the zero KeySpace is "not measured"). Float keys are
// measured by their bit patterns, read as int32 like any key word: equality
// is bit equality. Runs says that the second words are non-decreasing in row
// order in runs of at most MaxRefineRun rows, where GroupByRuns gives the sort
// path's ids.
type KeySpace struct {
	Min, Span, Prev uint32
	Runs            bool
}

// Range is the number of addresses the composite keys span, 0 if unmeasured.
func (k KeySpace) Range() uint64 { return (uint64(k.Span) + 1) * uint64(k.Prev) }

// KeyRange enqueues the fused min/max reduction over n > 0 key words in int32
// order: work-item g leaves the min and max of its span in partials[3g] and
// partials[3g+1] (MaxInt32/MinInt32 for an empty span), and FoldKeyRange folds
// them on the host, which has to read the result back anyway to pick the
// addressing. For composite keys, partials[3g+2] is its span's run verdict
// (shortRuns). The decision is taken from this measurement, so an append can
// never leave it stale. partials needs KeyRangeWords words.
func KeyRange(q *cl.Queue, partials, col, prev *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	return keyRange(q, partials, col, prev, nil, n, wait)
}

// KeyRanges is KeyRange over the key columns of a grouped region, none of
// them refining previous ids: cols[0] is measured exactly as KeyRange
// measures a single-word key, into the same words, and the min and max of
// every later column follow, two words per work-item and column. partials
// needs KeyRangesWords words; FoldKeyRanges folds them.
func KeyRanges(q *cl.Queue, partials *cl.Buffer, cols []*cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	return keyRange(q, partials, cols[0], nil, cols[1:], n, wait)
}

// KeyRangeWords is the size of KeyRange's partials buffer: min, max and the
// run verdict per work-item.
func KeyRangeWords(dev *cl.Device) int {
	_, _, gsz := Geometry(dev)
	return 3 * gsz
}

// KeyRangesWords is the size of KeyRanges' partials buffer over keys columns.
func KeyRangesWords(dev *cl.Device, keys int) int {
	_, _, gsz := Geometry(dev)
	return KeyRangeWords(dev) + 2*gsz*(keys-1)
}

func keyRange(q *cl.Queue, partials, col, prev *cl.Buffer, more []*cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	src, p := col.I32()[:n], partials.I32()
	var pv []int32
	streamed := int64(n) * 4 * int64(1+len(more))
	if prev != nil {
		// shortRuns reads all of prev when its ids come in short runs —
		// the input the run path takes — and a few rows otherwise.
		pv = prev.I32()[:n]
		streamed += int64(n) * 4
	}
	others := make([][]int32, len(more))
	for k, c := range more {
		others[k] = c.I32()[:n]
	}
	_, _, gsz := Geometry(q.Device())
	base := KeyRangeWords(q.Device())
	return q.EnqueueKernel(func(t *cl.Thread) {
		g := 3 * t.Global
		p[g], p[g+1] = minMaxI32(src, t)
		p[g+2] = shortRuns(pv, t)
		for k, o := range others {
			m := base + 2*(k*gsz+t.Global)
			p[m], p[m+1] = minMaxI32(o, t)
		}
	}, launch(q.Device(), "key_range", n, cl.Cost{
		BytesStreamed: streamed, Ops: int64(n) * 2 * int64(1+len(more)),
	}, wait))
}

// minMaxI32 is KeyRange's reduction over one work-item's span of src.
func minMaxI32(src []int32, t *cl.Thread) (mn, mx int32) {
	lo, hi, step := t.Span(len(src))
	mn, mx = math.MaxInt32, math.MinInt32
	for i := lo; i < hi; i += step {
		mn, mx = min(mn, src[i]), max(mx, src[i])
	}
	return mn, mx
}

// shortRuns is KeyRange's run measurement over one work-item's rows of prev:
// 1 iff every row's id is at least its predecessor's and differs from the id
// MaxRefineRun rows back — given the first, the second says that no run of
// equal ids is longer than MaxRefineRun. It stops at the first row that fails,
// so on ids in no order it reads a few rows; 0 for single-word keys.
func shortRuns(prev []int32, t *cl.Thread) int32 {
	if prev == nil {
		return 0
	}
	lo, hi, step := t.Span(len(prev))
	for i := lo; i < hi; i += step {
		if i > 0 && prev[i] < prev[i-1] || i >= MaxRefineRun && prev[i] == prev[i-MaxRefineRun] {
			return 0
		}
	}
	return 1
}

// FoldKeyRange folds KeyRange's partials, read back to the host. nprev bounds
// the second key word, 1 for single-word keys.
func FoldKeyRange(dev *cl.Device, partials []uint32, nprev uint32) KeySpace {
	_, _, gsz := Geometry(dev)
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	runs := true
	for i := 0; i < 3*gsz; i += 3 {
		lo, hi = min(lo, int32(partials[i])), max(hi, int32(partials[i+1]))
		runs = runs && partials[i+2] == 1
	}
	return KeySpace{Min: uint32(lo), Span: uint32(hi) - uint32(lo), Prev: nprev, Runs: runs}
}

// FoldKeyRanges folds KeyRanges' partials over keys columns, read back to the
// host: the first key's KeySpace is the one FoldKeyRange gives a single-word
// key, the later ones carry their range alone.
func FoldKeyRanges(dev *cl.Device, partials []uint32, keys int) []KeySpace {
	_, _, gsz := Geometry(dev)
	ks := make([]KeySpace, keys)
	ks[0] = FoldKeyRange(dev, partials, 1)
	for j := 1; j < keys; j++ {
		p := partials[KeyRangeWords(dev)+2*gsz*(j-1):]
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for i := 0; i < 2*gsz; i += 2 {
			lo, hi = min(lo, int32(p[i])), max(hi, int32(p[i+1]))
		}
		ks[j] = KeySpace{Min: uint32(lo), Span: uint32(hi) - uint32(lo), Prev: 1}
	}
	return ks
}

// IdentitySet enqueues the identity-addressed insertion: every row ORs its
// key's bit into the (zeroed) bitmap, gathered in a register while a
// work-item's rows stay in one word — one atomic a word on sorted keys — and
// AtomicOrU32 tests before it stores, so on a low-cardinality build all rows
// but the first few only read shared lines. There is nothing to verify and
// nothing that can fail: no check round, no pessimistic round, no restart.
// prev is nil for single-word keys.
func IdentitySet(q *cl.Queue, s Slots, col, prev *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	bm, src := s.Bits.U32(), col.U32()
	var pv []uint32
	streamed := int64(n) * 4
	if prev != nil {
		pv = prev.U32()
		streamed *= 2
	}
	kmin, mul := s.Min, s.Prev
	addresses := (int64(s.Span) + 1) * int64(mul)
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		word, set := uint32(0), uint32(0)
		for i := lo; i < hi; i += step {
			d := (src[i]-kmin)*mul + wordAt(pv, i)
			if d>>5 != word && set != 0 {
				cl.AtomicOrU32(&bm[word], set)
				set = 0
			}
			word, set = d>>5, set|1<<(d&31)
		}
		if set != 0 {
			cl.AtomicOrU32(&bm[word], set)
		}
	}, launch(q.Device(), "identity_set", n, cl.Cost{
		BytesStreamed: streamed, BytesRandom: int64(n) * 4,
		// A bit is stored once; rows finding it set do not touch it.
		Atomics: min(int64(n), addresses), AtomicTargets: (addresses + 31) / 32,
	}, wait))
}

// IdentityRank enqueues the rank scan over the words-long bitmap: rank[w] =
// set bits in words before w, and the grand total — the distinct-key count —
// lands in total[0]. partials needs gsz+1 words.
func IdentityRank(q *cl.Queue, s Slots, partials, total *cl.Buffer, words int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	bm, rank, p := s.Bits.U32(), s.Rank.U32(), partials.U32()

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(words)
		var c uint32
		for w := lo; w < hi; w++ {
			c += uint32(bits.OnesCount32(bm[w]))
		}
		p[t.Global] = c
	}, launch(dev, "identity_rank_count", words, cl.Cost{BytesStreamed: int64(words) * 4}, wait))

	ev2 := scanSpine(q, "identity_rank_scan", partials, total, []*cl.Event{ev1})

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(words)
		run := p[t.Global]
		for w := lo; w < hi; w++ {
			rank[w] = run
			run += uint32(bits.OnesCount32(bm[w]))
		}
	}, launch(dev, "identity_rank_assign", words, cl.Cost{BytesStreamed: int64(words) * 8}, []*cl.Event{ev2}))
}

// HashLookupGids enqueues gids[i] = dense id of row i's key — the group-id
// assignment via table look-ups (§4.1.6). Keys are assumed present (the
// table was built over the same key words); prev is nil for single-word keys,
// and so under sorted addressing.
func HashLookupGids(q *cl.Queue, gids *cl.Buffer, s Slots, col, prev *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	v := s.view()
	var pv []uint32
	if prev != nil {
		pv = prev.U32()
	}
	src := col.U32()
	g := gids.I32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		if id := v.ident; id.bits != nil {
			for i := lo; i < hi; i += step {
				g[i] = id.gid(src[i], wordAt(pv, i))
			}
			return
		}
		so := v.sorted
		for i := lo; i < hi; i += step {
			g[i] = so.gid(src[i])
		}
	}, launch(q.Device(), "hash_lookup_gid", n,
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * s.probeBytes()}, wait))
}

// HashBucketCount enqueues the per-distinct-key cardinality count: for each
// build row, atomically increment counts[gid(row)]. counts has ndistinct
// words and must be zeroed.
func HashBucketCount(q *cl.Queue, counts, gids *cl.Buffer, n int, ndistinct int, wait []*cl.Event) *cl.Event {
	c := counts.U32()
	g := gids.I32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			cl.AtomicAddU32(&c[g[i]], 1)
		}
	}, launch(q.Device(), "hash_bucket_count", n, cl.Cost{
		BytesStreamed: int64(n) * 4, Atomics: int64(n), AtomicTargets: int64(ndistinct),
	}, wait))
}

// HashBucketScatter enqueues the row-id scatter into buckets: rowids[
// starts[gid] + cursor(gid)++ ] = row. cursors must be zeroed (ndistinct
// words); starts are the scanned bucket offsets.
func HashBucketScatter(q *cl.Queue, rowids, starts, cursors, gids *cl.Buffer, n int, ndistinct int, wait []*cl.Event) *cl.Event {
	r, s, cur := rowids.U32(), starts.U32(), cursors.U32()
	g := gids.I32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			gid := g[i]
			off := cl.AtomicAddU32(&cur[gid], 1)
			r[s[gid]+off] = uint32(i)
		}
	}, launch(q.Device(), "hash_bucket_scatter", n, cl.Cost{
		BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 4,
		Atomics: int64(n), AtomicTargets: int64(ndistinct),
	}, wait))
}
