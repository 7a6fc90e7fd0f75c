package kernels

import (
	"math"
	"math/bits"

	"repro/internal/cl"
)

// Parallel hashing (§4.1.4), building on Alcantara-style GPU hashing. The
// paper inserts in three rounds — *optimistic* (no synchronisation), *check*
// (did every key land?), *pessimistic* (compare-and-swap for the failed
// ones). This engine runs the pessimistic round alone: rows claim slots with
// compare-and-swap, "re-hash[ing] with six strong hash functions before
// reverting to linear probing" — the optimistic round won on no key shape
// measured (DESIGN.md, substitution table). There is no stash — if a row
// exhausts the table, the host restarts with an increased table size. Tables
// are over-allocated by the paper's factor 1.4 (§4.1.4: observed ~75% fill
// rate).
//
// On top of the slot table, the multi-stage lookup structure of He et al.
// [19] groups build-side row ids into per-key buckets: slot→dense-id
// enumeration, per-key counting, a prefix sum into bucket starts, and a
// scatter of row ids. Grouping uses the dense ids directly as group ids;
// joins use the buckets.
//
// The slot table has a second *addressing* for dense key sets (row positions,
// dictionary codes, code × previous-group-id composites): when the keys'
// measured range is small enough (IdentityWords), the slots are a bitmap over
// [min, max] — the engine's own selection representation, §4.1.2 — plus a
// per-word popcount rank directory, and a key addresses its slot by identity
// instead of by hashing. Everything above the slots reads either addressing
// through Slots.

// OverAllocate is the paper's hash-table over-allocation factor.
const OverAllocate = 1.4

// numHashFuncs is the number of strong hash functions probed before linear
// probing takes over (§4.1.4).
const numHashFuncs = 6

// hashConsts are the per-function multiply-shift constants (odd, high
// entropy). Two per function: one for each key word of composite keys.
var hashConsts = [numHashFuncs][2]uint32{
	{2654435761, 2246822519},
	{3266489917, 668265263},
	{374761393, 2654435789},
	{2146121005, 2447445397},
	{3644798167, 897767265},
	{1689344125, 2971215073},
}

// slotEmpty/slotUsed are the slot state values.
const (
	slotEmpty uint32 = 0
	slotUsed  uint32 = 1
)

// hashSlot computes probe position p for composite key (k1,k2): positions
// 0..5 use the six hash functions, later positions probe linearly from h5.
func hashSlot(k1, k2, mask uint32, p int) uint32 {
	if p < numHashFuncs {
		h := k1*hashConsts[p][0] ^ k2*hashConsts[p][1]
		h ^= h >> 15
		return h & mask
	}
	h := k1*hashConsts[numHashFuncs-1][0] ^ k2*hashConsts[numHashFuncs-1][1]
	h ^= h >> 15
	return (h + uint32(p-numHashFuncs+1)) & mask
}

// TableCapacity returns the power-of-two slot count for n keys under the
// 1.4× over-allocation rule.
func TableCapacity(n int) int {
	want := int(float64(n)*OverAllocate) + 8
	c := 8
	for c < want {
		c <<= 1
	}
	return c
}

// Slots is the slots stage of the lookup table as the kernels see it: one
// structure under one of two addressings. Hashed (§4.1.4): State/Keys1/
// (Keys2)/SlotGid over Capacity slots. Identity (Bits != nil): key word k of
// a key (k, b) owns bit (k-Min)*Prev + b of Bits, and its dense id is the
// number of set bits before it — Rank[word] plus a popcount — so ids number
// the keys key-major, in (k, b) order, whatever the thread count. (The sort
// and run paths number the same pairs prev-major, in (b, k) order:
// KeySpace.code.)
type Slots struct {
	State, Keys1, Keys2, SlotGid *cl.Buffer
	Capacity                     int

	Bits, Rank *cl.Buffer
	Min        uint32 // smallest key word (int32 order)
	Span       uint32 // largest key word - Min
	Prev       uint32 // composite keys: b < Prev; 1 for single-word keys
}

// SlotBytes bounds the device bytes of the slots stage over n keys under
// either addressing: the hashed state/keys/slot-id arrays, or the device's
// local memory size (a §4.2 build constant) where that is larger.
func SlotBytes(dev *cl.Device, n int) int64 {
	return max(12*int64(TableCapacity(n)), int64(dev.Const.LocalMemSize))
}

// IdentityWords is the addressing rule, a pure function of what the build
// observes and the device's build constants: the bitmap length in words when
// n keys spanning keyRange distinct addresses take identity addressing, 0
// when they stay hashed. Identity addressing is chosen when bitmap plus rank
// directory occupy no more device bytes than the hashed arrays would — or
// than the device's local memory holds, whatever n: a handful of keys spread
// over a small range (140 part positions in [0, 20 000)) is probed by every
// row of the other side, and a structure of that size stays in the cores'
// nearest cache where the hashed probe pays for its six hash functions.
// Either way the slots occupy at most SlotBytes.
func IdentityWords(dev *cl.Device, n int, keyRange uint64) int {
	words := (keyRange + 31) / 32
	if keyRange == 0 || keyRange > 1<<32 || int64(8*words) > SlotBytes(dev, n) {
		return 0
	}
	return int(words)
}

// hashedKeyBytes is what one distinct key occupies of the cache while a
// hashed table is built and read: hashing scatters the keys over the table, so
// each owns a line of its own in each of state, keys and slot ids.
// cacheResidentBytes is the working set up to which those lines are still
// served from the cores' private caches; past it every insert and look-up
// waits for a miss. Ablation A4 puts the crossover of the two paths between
// 16 k and 64 k distinct keys; this product puts the switch at 21 845.
const (
	hashedKeyBytes     = 3 * 64
	cacheResidentBytes = 4 << 20
)

// SortGroupBits is the grouping rule, a pure function of what the build
// observes like IdentityWords beside it: the width in bits of the packed
// composite code when Group sorts n rows and numbers the runs, 0 when it
// looks the ids up through the slots. Grouping sorts when the keys are
// integers whose composite range fits one word, identity addressing has
// refused that range, and the distinct keys the build estimates (distinct,
// from KeyRange's sample) would occupy more lines of a hashed table than
// stay cache-resident, while the sort streams whatever the keys are. The two
// rules meet at the local-memory clause of IdentityWords: a range whose
// bitmap fits local memory (131 072 addresses on the CPU) is never sorted,
// however many of its keys are distinct — its identity slots are smaller than
// the cache-resident bound by two orders of magnitude.
func SortGroupBits(dev *cl.Device, n int, keyRange uint64, distinct int) int {
	if keyRange == 0 || keyRange > 1<<32 || IdentityWords(dev, n, keyRange) > 0 ||
		int64(distinct)*hashedKeyBytes <= cacheResidentBytes {
		return 0
	}
	return codeBits(keyRange)
}

// codeBits is the width of the packed codes 0..keyRange-1.
func codeBits(keyRange uint64) int { return max(1, bits.Len64(keyRange-1)) }

// probeBytes is the data-dependent volume of one probe for the cost model:
// state, key and slot id when hashed; bitmap word and rank word otherwise.
func (s Slots) probeBytes() int64 {
	if s.Bits != nil {
		return 8
	}
	return 12
}

// slotView is Slots with the buffer views resolved, for use inside kernels,
// which branch on the addressing before their row loop: ident's look-ups are
// small enough to be inlined into it, a hashed one walks the probe sequence.
type slotView struct {
	st, k1, k2, sg []uint32
	mask           uint32
	capacity       int

	ident identView // ident.bits != nil under identity addressing
}

// identView is the identity addressing of a slotView.
type identView struct {
	bits, rank      []uint32
	min, span, prev uint32
}

func (s Slots) view() *slotView {
	if s.Bits != nil {
		return &slotView{ident: identView{bits: s.Bits.U32(), rank: s.Rank.U32(), min: s.Min, span: s.Span, prev: s.Prev}}
	}
	v := &slotView{st: s.State.U32(), k1: s.Keys1.U32(), sg: s.SlotGid.U32(),
		mask: uint32(s.Capacity - 1), capacity: s.Capacity}
	if s.Keys2 != nil {
		v.k2 = s.Keys2.U32()
	}
	return v
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

// wordAt is the second key word of row i: prev[i], or 0 for single-word keys
// (nil prev).
func wordAt(prev []uint32, i int) uint32 {
	if prev == nil {
		return 0
	}
	return prev[i]
}

// hashedGid walks the probe sequence of §4.1.4: the six hash functions, then
// linear probing, until the key or an empty slot.
func (v *slotView) hashedGid(a, b uint32) int32 {
	for p := 0; p < v.capacity; p++ {
		s := hashSlot(a, b, v.mask, p)
		if v.st[s] == slotEmpty {
			return -1
		}
		if v.k1[s] == a && (v.k2 == nil || v.k2[s] == b) {
			return int32(v.sg[s])
		}
	}
	return -1
}

// KeySpace is what one KeyRange launch observes of n key words: their range in
// int32 order and, for composite keys (k, b), the bound Prev on b (1 for
// single-word keys; the zero KeySpace is "not measured"). Distinct estimates
// the distinct keys; it is only taken where SortGroupBits reads it. Runs says
// that the second words are non-decreasing in row order in runs of at most
// MaxRefineRun rows, where GroupByRuns gives the sort path's ids.
type KeySpace struct {
	Min, Span, Prev uint32
	Distinct        int
	Runs            bool
}

// Range is the number of addresses the composite keys span, 0 if unmeasured.
func (k KeySpace) Range() uint64 { return (uint64(k.Span) + 1) * uint64(k.Prev) }

// KeyRange enqueues the fused min/max reduction over n > 0 key words in int32
// order: work-item g leaves the min and max of its span in partials[3g] and
// partials[3g+1] (MaxInt32/MinInt32 for an empty span), and FoldKeyRange folds
// them on the host, which has to read the result back anyway to pick the
// addressing. For composite keys, partials[3g+2] is its span's run verdict
// (shortRuns). The same launch copies a fixed-stride sample of keySampleLen(n)
// keys behind the partials — (key word, second word) pairs, the second word
// from prev for composite keys and 0 otherwise — for the distinct estimate.
// The decision is taken from this measurement, so an append can never leave it
// stale. partials needs KeyRangeWords words.
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

// KeyRangesWords is the size of KeyRanges' partials buffer over keys columns.
func KeyRangesWords(dev *cl.Device, n, keys int) int {
	_, _, gsz := Geometry(dev)
	return KeyRangeWords(dev, n) + 2*gsz*(keys-1)
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
	samples, stride := keySampleLen(n), keySampleStride(n)
	sample := p[3*gsz : 3*gsz+2*samples]
	base := KeyRangeWords(q.Device(), n)
	return q.EnqueueKernel(func(t *cl.Thread) {
		g := 3 * t.Global
		p[g], p[g+1] = minMaxI32(src, t)
		p[g+2] = shortRuns(pv, t)
		slo, shi := t.ChunkSpan(samples)
		copyKeySample(sample, src, pv, slo, shi, stride)
		for k, o := range others {
			m := base + 2*(k*gsz+t.Global)
			p[m], p[m+1] = minMaxI32(o, t)
		}
	}, launch(q.Device(), "key_range", n, cl.Cost{
		BytesStreamed: streamed, BytesRandom: int64(samples) * 8, Ops: int64(n) * 2 * int64(1+len(more)),
	}, wait))
}

// minMaxI32 is KeyRange's reduction over one work-item's span and
// copyKeySample its sampling step for samples lo..hi-1 (row j*stride each).
// They are functions, not loops in the kernel closure: with the sample's
// slices live in the closure the min/max loop over all n rows ran a fifth
// slower.
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

func copyKeySample(sample, src, prev []int32, lo, hi, stride int) {
	for j := lo; j < hi; j++ {
		sample[2*j], sample[2*j+1] = src[j*stride], 0
		if prev != nil {
			sample[2*j+1] = prev[j*stride]
		}
	}
}

// FoldKeyRange folds KeyRange's partials over n keys, read back to the host
// (and reordered in place): the range, and — where the range is one Group
// could sort — the distinct estimate from the sample. nprev bounds the second
// key word, 1 for single-word keys.
func FoldKeyRange(dev *cl.Device, partials []uint32, n int, nprev uint32) KeySpace {
	_, _, gsz := Geometry(dev)
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	runs := true
	for i := 0; i < 3*gsz; i += 3 {
		lo, hi = min(lo, int32(partials[i])), max(hi, int32(partials[i+1]))
		runs = runs && partials[i+2] == 1
	}
	ks := KeySpace{Min: uint32(lo), Span: uint32(hi) - uint32(lo), Prev: nprev, Runs: runs}
	if r := ks.Range(); r <= 1<<32 && IdentityWords(dev, n, r) == 0 {
		ks.Distinct = estimateDistinct(ks, partials[3*gsz:], n)
	}
	return ks
}

// FoldKeyRanges folds KeyRanges' partials over n rows of keys columns, read
// back to the host: the first key's KeySpace is the one FoldKeyRange gives a
// single-word key, the later ones carry their range alone.
func FoldKeyRanges(dev *cl.Device, partials []uint32, n, keys int) []KeySpace {
	_, _, gsz := Geometry(dev)
	ks := make([]KeySpace, keys)
	ks[0] = FoldKeyRange(dev, partials, n, 1)
	for j := 1; j < keys; j++ {
		p := partials[KeyRangeWords(dev, n)+2*gsz*(j-1):]
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

// HashInsertPessimistic enqueues the insertion round: rows claim slots with
// CAS along the probe sequence, spinning past in-flight claims; a row whose
// key is already there only reads, so a low-cardinality build shares lines. If a
// row exhausts the table, fail[0] is raised and the host restarts with a
// doubled table. keys2/prev are nil for single-word keys.
func HashInsertPessimistic(q *cl.Queue, state, keys1, keys2 *cl.Buffer, col, prev *cl.Buffer, fail *cl.Buffer, n, capacity int, wait []*cl.Event) *cl.Event {
	const slotClaimed uint32 = 2
	st, k1 := state.U32(), keys1.U32()
	var k2, pv []uint32
	if keys2 != nil {
		k2 = keys2.U32()
		pv = prev.U32()
	}
	src := col.U32()
	f := fail.U32()
	mask := uint32(capacity - 1)
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
	rows:
		for i := lo; i < hi; i += step {
			a := src[i]
			var b uint32
			if k2 != nil {
				b = pv[i]
			}
			for p := 0; p < capacity; p++ {
				s := hashSlot(a, b, mask, p)
				for {
					switch cl.AtomicLoadU32(&st[s]) {
					case slotEmpty:
						if cl.AtomicCASU32(&st[s], slotEmpty, slotClaimed) {
							cl.AtomicStoreU32(&k1[s], a)
							if k2 != nil {
								cl.AtomicStoreU32(&k2[s], b)
							}
							cl.AtomicStoreU32(&st[s], slotUsed)
							continue rows
						}
						continue // lost the race: re-inspect the slot
					case slotClaimed:
						continue // another row is writing its key: spin
					default: // slotUsed
					}
					break
				}
				if cl.AtomicLoadU32(&k1[s]) == a && (k2 == nil || cl.AtomicLoadU32(&k2[s]) == b) {
					continue rows
				}
			}
			cl.AtomicStoreU32(&f[0], 1)
		}
	}, launch(q.Device(), "hash_pessimistic", n, cl.Cost{
		BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 12,
		Atomics: int64(n), AtomicTargets: int64(capacity),
	}, wait))
}

// HashEnumerate enqueues the dense-id assignment over used slots: per-item
// counts of used slots, an exclusive scan, then slotGid[slot] = dense id.
// The distinct count lands in total[0]. partials needs gsz+1 words.
func HashEnumerate(q *cl.Queue, slotGid, state, partials, total *cl.Buffer, capacity int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	sg, st, p := slotGid.U32(), state.U32(), partials.U32()

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(capacity)
		var c uint32
		for s := lo; s < hi; s++ {
			if st[s] == slotUsed {
				c++
			}
		}
		p[t.Global] = c
	}, launch(dev, "hash_enum_count", capacity, cl.Cost{BytesStreamed: int64(capacity) * 4}, wait))

	ev2 := scanSpine(q, "hash_enum_scan", partials, total, []*cl.Event{ev1})

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(capacity)
		id := p[t.Global]
		for s := lo; s < hi; s++ {
			if st[s] == slotUsed {
				sg[s] = id
				id++
			}
		}
	}, launch(dev, "hash_enum_assign", capacity, cl.Cost{BytesStreamed: int64(capacity) * 8}, []*cl.Event{ev2}))
}

// HashLookupGids enqueues gids[i] = dense id of row i's key — the group-id
// assignment via table look-ups (§4.1.6). Keys are assumed present (the
// table was built over the same key words); prev is nil for single-word keys.
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
		for i := lo; i < hi; i += step {
			g[i] = v.hashedGid(src[i], wordAt(pv, i))
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
