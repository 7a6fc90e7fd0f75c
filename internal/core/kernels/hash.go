package kernels

import (
	"repro/internal/cl"
)

// Parallel hashing (§4.1.4), building on Alcantara-style GPU hashing: an
// *optimistic* round inserts all keys without synchronisation; a *check*
// round verifies every key landed; if any did not, a *pessimistic* round
// re-inserts the failed keys with compare-and-swap, "re-hash[ing] with six
// strong hash functions before reverting to linear probing". There is no
// stash — if the pessimistic round also fails, the host restarts with an
// increased table size. Tables are over-allocated by the paper's factor 1.4
// (§4.1.4: observed ~75% fill rate).
//
// On top of the slot table, the multi-stage lookup structure of He et al.
// [19] groups build-side row ids into per-key buckets: slot→dense-id
// enumeration, per-key counting, a prefix sum into bucket starts, and a
// scatter of row ids. Grouping uses the dense ids directly as group ids;
// joins use the buckets.

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

// HashInsertOptimistic enqueues the optimistic round: every row stores its
// key at its first probe position with plain (well, race-benign atomic)
// stores — colliding keys simply overwrite each other, to be caught by the
// check round. Only valid for single-word keys: a torn write across the two
// words of a composite key could manufacture a phantom key, so composite
// tables go straight to the pessimistic round.
//
// The store is test-before-store: a row that finds its key already in the
// slot skips both stores. On a low-cardinality build (three return flags
// over 60 k rows) every core then *reads* the same few lines shared instead
// of ping-ponging them exclusive with one locked store per row. A skipped
// store can only lose a key the way an executed one can — a colliding key
// overwrites the slot afterwards — and the check round probes for every
// row's key regardless, so the loss is caught exactly as before.
func HashInsertOptimistic(q *cl.Queue, state, keys1 *cl.Buffer, col *cl.Buffer, n, capacity int, wait []*cl.Event) *cl.Event {
	st, k1 := state.U32(), keys1.U32()
	src := col.U32()
	mask := uint32(capacity - 1)
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			k := src[i]
			s := hashSlot(k, 0, mask, 0)
			if cl.AtomicLoadU32(&st[s]) == slotUsed && cl.AtomicLoadU32(&k1[s]) == k {
				continue
			}
			cl.AtomicStoreU32(&k1[s], k)
			cl.AtomicStoreU32(&st[s], slotUsed)
		}
	}, launch(q.Device(), "hash_optimistic",
		cl.Cost{BytesStreamed: int64(n) * 4, BytesRandom: int64(n) * 8}, wait))
}

// HashCheck enqueues the verification round: each row probes for its key
// and raises fail[0] when it is missing (§4.1.4's second round).
func HashCheck(q *cl.Queue, state, keys1, keys2 *cl.Buffer, col, prev *cl.Buffer, fail *cl.Buffer, n, capacity int, wait []*cl.Event) *cl.Event {
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
				if cl.AtomicLoadU32(&st[s]) == slotEmpty {
					break
				}
				if cl.AtomicLoadU32(&k1[s]) == a && (k2 == nil || cl.AtomicLoadU32(&k2[s]) == b) {
					continue rows
				}
			}
			cl.AtomicStoreU32(&f[0], 1)
		}
	}, launch(q.Device(), "hash_check",
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 8}, wait))
}

// HashInsertPessimistic enqueues the synchronised round: rows claim slots
// with CAS along the probe sequence, spinning past in-flight claims. If a
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
	}, launch(q.Device(), "hash_pessimistic", cl.Cost{
		BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 12,
		Atomics: int64(n), AtomicTargets: int64(capacity),
	}, wait))
}

// HashEnumerate enqueues the dense-id assignment over used slots: per-item
// counts of used slots, an exclusive scan, then slotGid[slot] = dense id.
// The distinct count lands in total[0]. partials needs gsz+1 words.
func HashEnumerate(q *cl.Queue, slotGid, state, partials, total *cl.Buffer, capacity int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	sg, st, p, tot := slotGid.U32(), state.U32(), partials.U32(), total.U32()

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(capacity)
		var c uint32
		for s := lo; s < hi; s++ {
			if st[s] == slotUsed {
				c++
			}
		}
		p[t.Global] = c
	}, launch(dev, "hash_enum_count", cl.Cost{BytesStreamed: int64(capacity) * 4}, wait))

	ev2 := q.EnqueueKernel(func(t *cl.Thread) {
		if t.Global != 0 {
			return
		}
		var run uint32
		for i := 0; i < gsz; i++ {
			v := p[i]
			p[i] = run
			run += v
		}
		p[gsz] = run
		tot[0] = run
	}, launch(dev, "hash_enum_scan", cl.Cost{BytesStreamed: int64(gsz) * 8}, []*cl.Event{ev1}))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.ChunkSpan(capacity)
		id := p[t.Global]
		for s := lo; s < hi; s++ {
			if st[s] == slotUsed {
				sg[s] = id
				id++
			}
		}
	}, launch(dev, "hash_enum_assign", cl.Cost{BytesStreamed: int64(capacity) * 8}, []*cl.Event{ev2}))
}

// HashLookupGids enqueues gids[i] = dense id of row i's key — the group-id
// assignment via hash look-ups (§4.1.6). Keys are assumed present (the
// table was built over the same column).
func HashLookupGids(q *cl.Queue, gids *cl.Buffer, state, keys1, keys2, slotGid *cl.Buffer, col, prev *cl.Buffer, n, capacity int, wait []*cl.Event) *cl.Event {
	st, k1, sg := state.U32(), keys1.U32(), slotGid.U32()
	var k2, pv []uint32
	if keys2 != nil {
		k2 = keys2.U32()
		pv = prev.U32()
	}
	src := col.U32()
	g := gids.I32()
	mask := uint32(capacity - 1)
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			a := src[i]
			var b uint32
			if k2 != nil {
				b = pv[i]
			}
			g[i] = -1
			for p := 0; p < capacity; p++ {
				s := hashSlot(a, b, mask, p)
				if st[s] == slotEmpty {
					break
				}
				if k1[s] == a && (k2 == nil || k2[s] == b) {
					g[i] = int32(sg[s])
					break
				}
			}
		}
	}, launch(q.Device(), "hash_lookup_gid",
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 12}, wait))
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
	}, launch(q.Device(), "hash_bucket_count", cl.Cost{
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
	}, launch(q.Device(), "hash_bucket_scatter", cl.Cost{
		BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 4,
		Atomics: int64(n), AtomicTargets: int64(ndistinct),
	}, wait))
}
