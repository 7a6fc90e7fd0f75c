package core

import (
	"sync"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
	"repro/internal/ops"
)

// devHashTable is the device-resident multi-stage lookup table of §4.1.4,
// built in the stages its consumers ask for:
//
//   - slots: every distinct key's dense id (tab, ndistinct), under one of two
//     addressings (kernels.Slots): identity over a dense key range, or the
//     sorted distinct keys. Existence probes stop here.
//   - gids: the per-build-row dense ids, looked up through the slots.
//     Grouping stops here (lookupGids hands the ids to the caller).
//   - buckets: the per-key row-id buckets joins iterate (starts/rowids, after
//     He et al. [19]). Only HashProbe asks for them.
//
// Each stage is enqueued once and chained to the previous one by events.
type devHashTable struct {
	e *Engine
	// col is the key column the table was built over; nil only for
	// grouping's tables (groupByIdentity), which stop at the gids stage and
	// are neither cached nor released through Release.
	col        *bat.BAT
	ndistinct  int
	buildRows  int
	uniqueKeys bool // every key occurs once: every bucket has exactly one row
	shared     bool // lives in the Memory Manager's hash cache (see release)

	tab   kernels.Slots
	slots *cl.Event // the slots stage has landed

	// pins and readers are guarded by the Memory Manager's lock. A pin keeps
	// the pressure protocol off the table while host code is enqueueing work
	// on it; readers are the probe kernels still in flight on its buffers
	// (the table-side twin of NoteConsumer).
	pins    int
	readers []*cl.Event

	// mu serialises the bucket stage: concurrent probes of one cached table
	// build it exactly once.
	mu      sync.Mutex
	starts  *cl.Buffer // ndistinct+1 scanned bucket offsets
	rowids  *cl.Buffer // buildRows row ids grouped by bucket
	buckets *cl.Event  // the bucket stage has landed; nil until requested
}

// BuildRows implements ops.HashTable.
func (h *devHashTable) BuildRows() int { return h.buildRows }

// Release implements ops.HashTable. Cached tables are released by the
// Memory Manager instead; Release on a cached table is a no-op until the
// cache drops it.
func (h *devHashTable) Release() {
	h.e.mm.mu.Lock()
	cached := h.e.mm.hashCache[h.col] == h
	h.e.mm.mu.Unlock()
	if !cached {
		h.release()
	}
}

// buffers lists every device buffer the table owns, under either addressing
// and at any stage (unbuilt ones are nil).
func (h *devHashTable) buffers() []*cl.Buffer {
	t := h.tab
	return []*cl.Buffer{t.Bits, t.Rank, t.Keys, h.starts, h.rowids}
}

// release frees the table once nothing enqueued can still touch it: its own
// stages and every probe noted by noteReader. A table with a single owner —
// the operator that built it — gives its bytes back to the free-list; a
// cached one (shared) can be dropped by the pressure protocol between
// another session's lookup and its pin, so its bytes go to the garbage
// collector, which keeps them alive for such a straggler.
func (h *devHashTable) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	_ = h.slots.Wait()
	_ = h.buckets.Wait()
	h.e.mm.mu.Lock()
	readers := h.readers
	h.readers = nil
	h.e.mm.mu.Unlock()
	for _, r := range readers {
		_ = r.Wait()
	}
	for _, b := range h.buffers() {
		switch {
		case b == nil:
		case h.shared:
			_ = b.Release()
		default:
			h.e.mm.Release(b)
		}
	}
}

// pin holds the table against the pressure protocol until unpin: host code
// that allocates between acquiring a (possibly cached) table and noting the
// kernels it enqueued on it must not have makeRoom pick that very table.
func (h *devHashTable) pin() {
	h.e.mm.mu.Lock()
	h.pins++
	h.e.mm.mu.Unlock()
}

func (h *devHashTable) unpin() {
	h.e.mm.mu.Lock()
	h.pins--
	h.e.mm.mu.Unlock()
}

// noteReader records that ev reads the table's buffers, so release waits for
// it and makeRoom leaves the table alone while it is in flight.
func (h *devHashTable) noteReader(ev *cl.Event) {
	h.e.mm.mu.Lock()
	defer h.e.mm.mu.Unlock()
	kept := h.readers[:0]
	for _, r := range h.readers {
		if !r.Done() {
			kept = append(kept, r)
		}
	}
	h.readers = append(kept, ev)
}

// idleLocked reports whether the pressure protocol may drop the table: no
// pin and no reader in flight. The Memory Manager's lock must be held.
func (h *devHashTable) idleLocked() bool {
	if h.pins > 0 {
		return false
	}
	for _, r := range h.readers {
		if !r.Done() {
			return false
		}
	}
	return true
}

// BuildHash builds the parallel multi-stage hash table over col (§4.1.4),
// buckets included: the only consumer of an ops.HashTable is HashProbe.
// Tables over columns that are not Ocelot-owned intermediates are cached in
// the Memory Manager and reused by later joins (§5.2.6).
func (e *Engine) BuildHash(col *bat.BAT) (ops.HashTable, error) {
	h, err := e.slotTable(col)
	if err != nil {
		return nil, err
	}
	if err := h.ensureBuckets(); err != nil {
		h.Release()
		return nil, err
	}
	return h, nil
}

// slotTable returns the table over col with its slots stage enqueued: the
// cached one for base columns, a fresh one otherwise.
func (e *Engine) slotTable(col *bat.BAT) (*devHashTable, error) {
	cacheable := !col.OcelotOwned
	if cacheable {
		e.mm.mu.Lock()
		if ht := e.mm.hashCache[col]; ht != nil {
			e.mm.mu.Unlock()
			return ht, nil
		}
		e.mm.mu.Unlock()
	}
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, err
	}
	ht, err := e.buildSlots(colBuf, col.Len(), wait)
	if err != nil {
		return nil, err
	}
	ht.col = col
	e.mm.NoteConsumer(col, ht.slots)
	if cacheable {
		ht.shared = true
		e.mm.mu.Lock()
		e.mm.hashCache[col] = ht
		e.mm.mu.Unlock()
	}
	return ht, nil
}

// InvalidateHash drops the cached hash table of a column, forcing the next
// BuildHash to rebuild. Benchmarks of the build phase (Fig. 5e/f) use it
// between runs; the storage-layer free callback covers the production path.
func (e *Engine) InvalidateHash(col *bat.BAT) {
	e.mm.mu.Lock()
	ht := e.mm.hashCache[col]
	delete(e.mm.hashCache, col)
	e.mm.mu.Unlock()
	if ht != nil {
		ht.release()
	}
}

// buildSlots runs the slots stage over a device buffer of n single-word keys:
// one measurement, then identity addressing where kernels.IdentityWords says
// the keys' range is dense, the sorted addressing for everything else.
func (e *Engine) buildSlots(colBuf *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
	ks, err := e.measureKeys(colBuf, nil, 0, n, wait)
	if err != nil {
		return nil, err
	}
	if words := kernels.IdentityWords(e.dev, n, ks.Range()); words > 0 {
		return e.buildIdentitySlots(kernels.Slots{Min: ks.Min, Span: ks.Span, Prev: ks.Prev}, words, colBuf, nil, n, wait)
	}
	return e.buildSortedSlots(ks, colBuf, n, wait)
}

// measureKeys is the one measurement Group and the slots stage decide from:
// the range of n key words — for composite keys times nprev, the bound on
// prev's ids — and the run verdict. One reduction launch on the device,
// folded here; the zero KeySpace for no rows.
func (e *Engine) measureKeys(colBuf, prev *cl.Buffer, nprev, n int, wait []*cl.Event) (ks kernels.KeySpace, err error) {
	if n == 0 || (prev != nil && nprev <= 0) {
		return ks, nil
	}
	words := kernels.KeyRangeWords(e.dev)
	partials, err := e.mm.Alloc(words * 4)
	if err != nil {
		return ks, err
	}
	ev := kernels.KeyRange(e.q, partials, colBuf, prev, n, wait)
	host, err := e.hostView(partials, words*4, []*cl.Event{ev})
	if err == nil {
		if prev == nil {
			nprev = 1
		}
		ks = kernels.FoldKeyRange(e.dev, mem.U32(host), uint32(nprev)) // before the release: host may be the buffer
	}
	e.mm.Release(partials)
	return ks, err
}

// buildIdentitySlots is the slots stage under identity addressing: zero the
// bitmap, set every key's bit, rank-scan.
func (e *Engine) buildIdentitySlots(tab kernels.Slots, words int, colBuf, prev *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
	sc := &scratchSet{mm: e.mm}
	tab.Bits = sc.alloc(words)
	tab.Rank = sc.alloc(words)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, sc.err
	}
	zero := kernels.Fill(e.q, tab.Bits, words, 0, nil)
	ev := kernels.IdentitySet(e.q, tab, colBuf, prev, n, append([]*cl.Event{zero}, wait...))
	rev := kernels.IdentityRank(e.q, tab, sp, total, words, []*cl.Event{ev})
	nd32, err := e.readU32(total, []*cl.Event{rev})
	if err != nil {
		sc.releaseAll()
		return nil, err
	}
	e.releaseAfter(rev, sp, total)
	return &devHashTable{
		e: e, ndistinct: int(nd32), buildRows: n, tab: tab,
		slots: rev, uniqueKeys: int(nd32) == n,
	}, nil
}

// buildSortedSlots is the slots stage under the sorted addressing
// (kernels.SortedSlots): the keys' distinct codes in ascending order, one word
// a build row at most. An empty build side has no code and no kernel.
func (e *Engine) buildSortedSlots(ks kernels.KeySpace, colBuf *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
	sc, s := e.sortScratch(n)
	keys := sc.alloc(n + 1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, sc.err
	}
	ht := &devHashTable{e: e, buildRows: n, tab: kernels.Slots{Keys: keys, Min: ks.Min, Span: ks.Span, Prev: 1}}
	if n == 0 {
		sc.releaseAll(keys)
		ht.uniqueKeys, ht.slots = true, e.q.EnqueueMarker(wait)
		return ht, nil
	}
	scanned, done := kernels.SortedSlots(e.q, keys, colBuf, ks, s, n, wait)
	boundaries, err := e.readU32(s.Total, []*cl.Event{scanned})
	if err != nil {
		sc.releaseAll()
		return nil, err
	}
	e.releaseAfter(done, s.K0, s.V0, s.K1, s.V1, s.Hist, s.Spine, s.Total)
	ht.ndistinct = int(boundaries) + 1
	ht.tab.Distinct, ht.uniqueKeys, ht.slots = ht.ndistinct, ht.ndistinct == n, done
	return ht, nil
}

// scratchSet tracks buffers allocated during a multi-kernel build so error
// paths can release everything with one call.
type scratchSet struct {
	mm   *MemoryManager
	bufs []*cl.Buffer
	err  error
}

// alloc allocates words*4 bytes from the Memory Manager, remembering the
// buffer; after a failure it returns nil and latches the error. The contents
// are UNDEFINED: kernels must fully write what they read, or the caller uses
// allocZeroed.
func (s *scratchSet) alloc(words int) *cl.Buffer { return s.get(words, false) }

// allocZeroed allocates words*4 guaranteed-zero bytes, for flag words that
// kernels only ever raise.
func (s *scratchSet) allocZeroed(words int) *cl.Buffer { return s.get(words, true) }

func (s *scratchSet) get(words int, zeroed bool) *cl.Buffer {
	if s.err != nil {
		return nil
	}
	b, err := s.mm.alloc(words*4, zeroed)
	if err != nil {
		s.err = err
		return nil
	}
	s.bufs = append(s.bufs, b)
	return b
}

// releaseAll frees every tracked buffer except those in keep.
func (s *scratchSet) releaseAll(keep ...*cl.Buffer) {
	for _, b := range s.bufs {
		kept := false
		for _, k := range keep {
			if b == k {
				kept = true
				break
			}
		}
		if !kept && b != nil {
			_ = b.Release()
		}
	}
}

// lookupGids enqueues the gids stage: the dense id of every build row's key,
// looked up through the slots (§4.1.6's group-id assignment). The caller owns
// the returned n+1-word buffer; colBuf/prev are the key words the slots were
// built from.
func (h *devHashTable) lookupGids(colBuf, prev *cl.Buffer, wait []*cl.Event) (*cl.Buffer, *cl.Event, error) {
	gids, err := h.e.mm.Alloc((h.buildRows + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	deps := append([]*cl.Event{h.slots}, wait...)
	ev := kernels.HashLookupGids(h.e.q, gids, h.tab, colBuf, prev, h.buildRows, deps)
	return gids, ev, nil
}

// ensureBuckets enqueues the bucket stage — per-row gid lookup, counts, scan,
// scatter (He et al.'s lookup structure, §4.1.4) — unless it already has
// been. The table re-acquires its key column through the Memory Manager, so a
// cached table whose column was evicted since the slots stage simply uploads
// it again instead of holding a raw buffer across stages.
func (h *devHashTable) ensureBuckets() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.buckets != nil {
		return nil
	}
	e := h.e
	// The allocations below may run the pressure protocol, which must not
	// pick this (possibly cached) table as its victim while mu is held.
	h.pin()
	defer h.unpin()

	colBuf, wait, err := e.valuesOf(h.col)
	if err != nil {
		return err
	}
	n, nd := h.buildRows, h.ndistinct
	sc := &scratchSet{mm: e.mm}
	counts := sc.alloc(nd + 1)
	starts := sc.alloc(nd + 2)
	sp := sc.alloc(spineWords(e.dev))
	totalB := sc.alloc(1)
	cursors := sc.alloc(nd + 1)
	rowids := sc.alloc(n + 1)
	if sc.err != nil {
		sc.releaseAll()
		return sc.err
	}
	gids, gev, err := h.lookupGids(colBuf, nil, wait)
	if err != nil {
		sc.releaseAll()
		return err
	}
	e.mm.NoteConsumer(h.col, gev)
	zc := kernels.Fill(e.q, counts, nd, 0, nil)
	cev := kernels.HashBucketCount(e.q, counts, gids, n, nd, []*cl.Event{gev, zc})
	sev := kernels.PrefixSum(e.q, starts, counts, sp, totalB, nd, []*cl.Event{cev})
	// Terminate starts with the grand total once the scan lands.
	st, tb := starts.U32(), totalB.U32()
	sev = e.q.EnqueueHost("starts_terminate", func() error {
		st[nd] = tb[0]
		return nil
	}, []*cl.Event{sev})
	zcur := kernels.Fill(e.q, cursors, nd, 0, nil)
	rev := kernels.HashBucketScatter(e.q, rowids, starts, cursors, gids, n, nd, []*cl.Event{sev, zcur})
	e.releaseAfter(rev, gids, counts, sp, totalB, cursors)
	h.starts, h.rowids, h.buckets = starts, rowids, rev
	return nil
}
