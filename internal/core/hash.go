package core

import (
	"fmt"
	"sync"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
	"repro/internal/ops"
)

// devHashTable is the device-resident multi-stage hash lookup table of
// §4.1.4, built in the stages its consumers ask for:
//
//   - slots: the slot table and the dense-id enumeration (tab, ndistinct),
//     under one of two addressings (kernels.Slots): hashed, or identity over
//     a dense key range. Existence probes stop here.
//   - gids: the per-build-row dense ids, looked up through the slots.
//     Grouping stops here (lookupGids hands the ids to the caller).
//   - buckets: the per-key row-id buckets joins iterate (starts/rowids, after
//     He et al. [19]). Only HashProbe and the spilling join ask for them.
//
// Each stage is enqueued once and chained to the previous one by events.
type devHashTable struct {
	e *Engine
	// col is the key column the table was built over; nil for tables over a
	// raw key buffer (spill partitions), whose owner supplies the buffer to
	// every stage itself.
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
	cached := h.col != nil && h.e.mm.hashCache[h.col] == h
	h.e.mm.mu.Unlock()
	if !cached {
		h.release()
	}
}

// buffers lists every device buffer the table owns, under either addressing
// and at any stage (unbuilt ones are nil).
func (h *devHashTable) buffers() []*cl.Buffer {
	t := h.tab
	return []*cl.Buffer{t.State, t.Keys1, t.Keys2, t.SlotGid, t.Bits, t.Rank, h.starts, h.rowids}
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
	if err := h.ensureBuckets(nil, nil); err != nil {
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
	ht, err := e.buildSlots(col.Name, colBuf, nil, 0, col.Len(), orderedKeys(col), wait)
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

// orderedKeys reports whether b's key words are integers (values, codes or
// positions), whose numeric range buildSlots may measure; float columns are
// keyed by bit pattern, and the range of bit patterns says nothing about how
// dense the keys are.
func orderedKeys(b *bat.BAT) bool { return b.T != bat.F32 }

// buildSlots runs the slots stage over a device buffer of n keys. prev, when
// non-nil, supplies the second word of composite keys (group refinement): the
// previous group ids, all below nprev.
func (e *Engine) buildSlots(name string, colBuf, prev *cl.Buffer, nprev, n int, ordered bool, wait []*cl.Event) (*devHashTable, error) {
	ks, err := e.measureKeys(colBuf, prev, nprev, n, ordered, wait)
	if err != nil {
		return nil, err
	}
	return e.slotsFor(name, ks, colBuf, prev, n, wait)
}

// slotsFor is the slots stage over keys already measured: identity addressing
// when kernels.IdentityWords says their range is dense, the paper's hashed
// insertion for everything else — floats and unmeasured keys included, whose
// zero KeySpace has no range.
func (e *Engine) slotsFor(name string, ks kernels.KeySpace, colBuf, prev *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
	if words := kernels.IdentityWords(e.dev, n, ks.Range()); words > 0 {
		tab := kernels.Slots{Min: ks.Min, Span: ks.Span, Prev: ks.Prev}
		return e.buildIdentitySlots(tab, words, colBuf, prev, n, wait)
	}
	return e.buildHashedSlots(name, colBuf, prev, n, wait)
}

// buildHashedSlots is the slots stage of §4.1.4: the synchronised insertion
// and the dense-id enumeration, restarting with a doubled table when a row
// exhausts its probe sequence.
func (e *Engine) buildHashedSlots(name string, colBuf, prev *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
	capacity := kernels.TableCapacity(n)
	for attempt := 0; ; attempt++ {
		ht, retry, err := e.tryBuildSlots(colBuf, prev, n, capacity, wait)
		if err != nil {
			return nil, err
		}
		if !retry {
			return ht, nil
		}
		// "if the pessimistic approach fails for at least one key, we
		// restart with an increased table size" (§4.1.4).
		capacity *= 2
		if attempt > 28 {
			return nil, fmt.Errorf("core: hash build of %q cannot converge", name)
		}
	}
}

// measureKeys is the one measurement Group and the slots stage decide from:
// the range of n integer key words (ordered, see orderedKeys) — for composite
// keys times nprev, the bound on prev's ids — and the distinct estimate. One
// reduction launch on the device, folded here. Floats are not measured.
func (e *Engine) measureKeys(colBuf, prev *cl.Buffer, nprev, n int, ordered bool, wait []*cl.Event) (ks kernels.KeySpace, err error) {
	if !ordered || n == 0 || (prev != nil && nprev <= 0) {
		return ks, nil
	}
	words := kernels.KeyRangeWords(e.dev, n)
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
		ks = kernels.FoldKeyRange(e.dev, mem.U32(host), n, uint32(nprev)) // before the release: host may be the buffer
	}
	e.mm.Release(partials)
	return ks, err
}

// buildIdentitySlots is the slots stage under identity addressing: zero the
// bitmap, set every key's bit, rank-scan. No round can fail, so there is no
// fail word to read back and nothing to restart.
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

func (e *Engine) tryBuildSlots(colBuf, prev *cl.Buffer, n, capacity int, wait []*cl.Event) (*devHashTable, bool, error) {
	sc := &scratchSet{mm: e.mm}
	state := sc.alloc(capacity)
	keys1 := sc.alloc(capacity)
	var keys2 *cl.Buffer
	if prev != nil {
		keys2 = sc.alloc(capacity)
	}
	// The fail flag is only ever *raised* by the insertion kernel, so it
	// must start zero — a fresh allocation, not recycled scratch.
	fail := sc.allocZeroed(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, false, sc.err
	}

	zero := kernels.Fill(e.q, state, capacity, 0, wait)
	ev := kernels.HashInsertPessimistic(e.q, state, keys1, keys2, colBuf, prev, fail, n, capacity, []*cl.Event{zero})
	failed, err := e.readU32(fail, []*cl.Event{ev})
	if err != nil || failed != 0 {
		sc.releaseAll()
		return nil, err == nil, err // a raised flag alone asks for a bigger table
	}

	// Enumerate distinct keys into dense ids.
	slotGid := sc.alloc(capacity)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, false, sc.err
	}
	eev := kernels.HashEnumerate(e.q, slotGid, state, sp, total, capacity, []*cl.Event{ev})
	nd32, err := e.readU32(total, []*cl.Event{eev})
	if err != nil {
		sc.releaseAll()
		return nil, false, err
	}
	e.releaseAfter(eev, sp, fail, total)

	return &devHashTable{
		e: e, ndistinct: int(nd32), buildRows: n,
		tab:   kernels.Slots{State: state, Keys1: keys1, Keys2: keys2, SlotGid: slotGid, Capacity: capacity},
		slots: eev, uniqueKeys: int(nd32) == n,
	}, false, nil
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
// been. colBuf is the key buffer of a raw-buffer table (valid once wait has
// landed); with nil the table re-acquires its key column through the Memory
// Manager, so a cached table whose column was evicted since the slots stage
// simply uploads it again instead of holding a raw buffer across stages.
func (h *devHashTable) ensureBuckets(colBuf *cl.Buffer, wait []*cl.Event) error {
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

	if colBuf == nil {
		var err error
		if colBuf, wait, err = e.valuesOf(h.col); err != nil {
			return err
		}
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
	if h.col != nil {
		e.mm.NoteConsumer(h.col, gev)
	}
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
