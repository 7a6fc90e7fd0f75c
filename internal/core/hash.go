package core

import (
	"fmt"
	"sync"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// devHashTable is the device-resident multi-stage hash lookup table of
// §4.1.4, built in the stages its consumers ask for:
//
//   - slots: the slot table (state/keys) and the dense-id enumeration
//     (slotGid, ndistinct). Existence probes stop here.
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
	capacity   int
	ndistinct  int
	buildRows  int
	uniqueKeys bool // every key occurs once: every bucket has exactly one row

	state   *cl.Buffer
	keys1   *cl.Buffer
	keys2   *cl.Buffer // non-nil only for composite (group refinement) keys
	slotGid *cl.Buffer
	slots   *cl.Event // the slots stage has landed
	pins    int       // guarded by the Memory Manager's lock

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

func (h *devHashTable) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	_ = h.slots.Wait()
	_ = h.buckets.Wait()
	for _, b := range []*cl.Buffer{h.state, h.keys1, h.keys2, h.slotGid, h.starts, h.rowids} {
		if b != nil {
			_ = b.Release()
		}
	}
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
	ht, err := e.buildSlots(col.Name, colBuf, nil, col.Len(), wait)
	if err != nil {
		return nil, err
	}
	ht.col = col
	e.mm.NoteConsumer(col, ht.slots)
	if cacheable {
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

// buildSlots runs the slots stage over a device buffer of n keys: the
// optimistic/check/pessimistic insertion (§4.1.4) and the dense-id
// enumeration, restarting with a doubled table on a failed pessimistic
// round. prev, when non-nil, supplies the second word of composite keys
// (group refinement) — composite builds skip the optimistic round, since a
// torn two-word write could manufacture a phantom key.
func (e *Engine) buildSlots(name string, colBuf, prev *cl.Buffer, n int, wait []*cl.Event) (*devHashTable, error) {
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

// scratchSet tracks buffers allocated during a multi-kernel build so error
// paths can release everything with one call.
type scratchSet struct {
	mm   *MemoryManager
	bufs []*cl.Buffer
	err  error
}

// alloc allocates words*4 bytes from the Memory Manager's scratch free-list,
// remembering the buffer; after a failure it returns nil and latches the
// error. The contents are UNDEFINED (recycled): kernels must fully write
// what they read, or the caller uses allocZeroed.
func (s *scratchSet) alloc(words int) *cl.Buffer {
	return s.record(func() (*cl.Buffer, error) { return s.mm.AllocScratch(words * 4) })
}

// allocZeroed allocates words*4 guaranteed-zero bytes, bypassing the
// free-list (a fresh allocation is zeroed by construction). Used for flag
// words that kernels only ever raise — zeroing them with an extra Fill
// kernel would perturb the virtual timeline of simulated devices.
func (s *scratchSet) allocZeroed(words int) *cl.Buffer {
	return s.record(func() (*cl.Buffer, error) { return s.mm.Alloc(words * 4) })
}

func (s *scratchSet) record(alloc func() (*cl.Buffer, error)) *cl.Buffer {
	if s.err != nil {
		return nil
	}
	b, err := alloc()
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
	// The fail flag is only ever *raised* by the insertion kernels, so it
	// must start zero — a fresh allocation, not recycled scratch.
	fail := sc.allocZeroed(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, false, sc.err
	}

	zero := kernels.Fill(e.q, state, capacity, 0, wait)
	var ev *cl.Event
	if prev == nil {
		// Optimistic round, then the check round (§4.1.4).
		ev = kernels.HashInsertOptimistic(e.q, state, keys1, colBuf, n, capacity, []*cl.Event{zero})
		ev = kernels.HashCheck(e.q, state, keys1, nil, colBuf, nil, fail, n, capacity, []*cl.Event{ev})
		failed, err := e.readU32(fail, []*cl.Event{ev})
		if err != nil {
			sc.releaseAll()
			return nil, false, err
		}
		if failed != 0 {
			// Pessimistic round over all keys (idempotent for the ones that
			// already landed).
			z2 := kernels.Fill(e.q, fail, 1, 0, nil)
			ev = kernels.HashInsertPessimistic(e.q, state, keys1, nil, colBuf, nil, fail, n, capacity, []*cl.Event{ev, z2})
			if failed, err = e.readU32(fail, []*cl.Event{ev}); err != nil {
				sc.releaseAll()
				return nil, false, err
			}
			if failed != 0 {
				sc.releaseAll()
				return nil, true, nil
			}
		}
	} else {
		// Composite keys go straight to the synchronised round (see the
		// function comment on buildSlots).
		ev = kernels.HashInsertPessimistic(e.q, state, keys1, keys2, colBuf, prev, fail, n, capacity, []*cl.Event{zero})
		failed, err := e.readU32(fail, []*cl.Event{ev})
		if err != nil {
			sc.releaseAll()
			return nil, false, err
		}
		if failed != 0 {
			sc.releaseAll()
			return nil, true, nil
		}
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
		e: e, capacity: capacity, ndistinct: int(nd32), buildRows: n,
		state: state, keys1: keys1, keys2: keys2, slotGid: slotGid,
		slots: eev, uniqueKeys: int(nd32) == n,
	}, false, nil
}

// lookupGids enqueues the gids stage: the dense id of every build row's key,
// looked up through the slots (§4.1.6's group-id assignment). The caller owns
// the returned n+1-word buffer; colBuf/prev are the key words the slots were
// built from.
func (h *devHashTable) lookupGids(colBuf, prev *cl.Buffer, wait []*cl.Event) (*cl.Buffer, *cl.Event, error) {
	gids, err := h.e.mm.AllocScratch((h.buildRows + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	deps := append([]*cl.Event{h.slots}, wait...)
	ev := kernels.HashLookupGids(h.e.q, gids, h.state, h.keys1, h.keys2, h.slotGid, colBuf, prev,
		h.buildRows, h.capacity, deps)
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
	e.mm.mu.Lock()
	h.pins++
	e.mm.mu.Unlock()
	defer func() {
		e.mm.mu.Lock()
		h.pins--
		e.mm.mu.Unlock()
	}()

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
