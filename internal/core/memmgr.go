// Package core implements Ocelot, the paper's contribution: a single set of
// hardware-oblivious relational operators (§4.1) written against the kernel
// programming model, a Memory Manager that hides device memory architecture
// from the operator host code (§3.3), and the lazy, event-driven execution
// model of §3.4. The same engine instance runs unchanged on the CPU driver
// and on the simulated discrete-GPU driver; the only difference is the
// *cl.Device it is constructed with.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/mem"
)

// payloadKind distinguishes how a BAT's content is represented on the
// device. Selection results are bitmaps (§4.1.1) that are "never exposed in
// the interface and only passed via Memory Manager references"; everything
// else is a plain value array.
type payloadKind int

const (
	kindValues payloadKind = iota
	kindBitmap
)

// entry is the Memory Manager's record for one BAT.
type entry struct {
	kind payloadKind
	// domain is the number of rows a bitmap spans (its bit count); for
	// values it equals the element count.
	domain int
	// buf is the device buffer holding the payload; nil when evicted or
	// offloaded.
	buf *cl.Buffer
	// matBuf caches the materialised oid list of a bitmap (lazily built
	// when an operator needs positions).
	matBuf *cl.Buffer
	// offload holds the payload bytes while the buffer is offloaded to the
	// host to free device memory (§3.3: "we cannot simply drop these
	// buffers, as they contain computed content").
	offload []byte
	// isBase marks device *caches* of host-resident BATs: under memory
	// pressure they are dropped (the host copy is authoritative) rather
	// than offloaded.
	isBase bool
	// producer is the event that writes the payload; matProducer the one
	// writing matBuf.
	producer    *cl.Event
	matProducer *cl.Event
	// consumers are events reading the payload, kept so the manager knows
	// when discarding device state is safe (the paper's footnote 5).
	consumers []*cl.Event
	pins      int
	lastUse   uint64
}

func (e *entry) bytes() int64 {
	var n int64
	if e.buf != nil {
		n += e.buf.Size()
	}
	if e.matBuf != nil {
		n += e.matBuf.Size()
	}
	return n
}

// MemoryManager is Ocelot's storage interface between BATs and device
// buffers (§3.3): it keeps a registry of buffers for BATs, acts as a device
// cache for host-resident (base) BATs, evicts in LRU order under memory
// pressure — cached base BATs first, then offloading intermediates to the
// host — and tracks producer/consumer events per buffer for the lazy
// execution model (§3.4).
type MemoryManager struct {
	ctx *cl.Context
	q   *cl.Queue
	dev *cl.Device

	mu      sync.Mutex
	entries map[*bat.BAT]*entry
	tick    uint64

	// hashCache keeps built hash tables of non-Ocelot-owned (base) columns
	// (§5.2.6: "we maintain a cache of all built hash tables of base tables
	// in the Memory Manager").
	hashCache map[*bat.BAT]*devHashTable

	// scratchFree recycles the backing bytes of released transient scratch
	// buffers (the counts/offsets/spine/total quartet every Join, ThetaJoin,
	// Group and Aggr call allocates), keyed by exact byte size. Only the
	// host bytes are kept: the device capacity of a recycled buffer is
	// released normally and re-reserved on reuse, so capacity accounting —
	// and the §3.3 pressure protocol — is identical to allocating fresh.
	scratchMu    sync.Mutex
	scratchFree  map[int][][]byte
	scratchBytes int64
	scratchHits  int64
	scratchMiss  int64

	// stats
	evictions int64
	offloads  int64
	reloads   int64
}

// Bounds for the scratch free-list: per-size stack depth and total retained
// host bytes. Overflow is simply dropped to the garbage collector.
const (
	maxScratchFreePerSize = 8
	maxScratchFreeBytes   = 256 << 20
)

// NewMemoryManager creates a manager on the given context/queue and
// registers the storage-layer callback so BAT deletion eagerly drops cache
// entries (§4.3).
func NewMemoryManager(ctx *cl.Context, q *cl.Queue) *MemoryManager {
	m := &MemoryManager{
		ctx:         ctx,
		q:           q,
		dev:         ctx.Device(),
		entries:     make(map[*bat.BAT]*entry),
		hashCache:   make(map[*bat.BAT]*devHashTable),
		scratchFree: make(map[int][][]byte),
	}
	bat.OnFree(m.onBATFree)
	return m
}

// Stats returns (evictions of cached base BATs, intermediate offloads,
// reloads of offloaded intermediates).
func (m *MemoryManager) Stats() (evictions, offloads, reloads int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions, m.offloads, m.reloads
}

// Entries returns the number of registered BATs (tests/diagnostics).
func (m *MemoryManager) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

func (m *MemoryManager) onBATFree(b *bat.BAT) {
	m.mu.Lock()
	e := m.entries[b]
	delete(m.entries, b)
	ht := m.hashCache[b]
	delete(m.hashCache, b)
	m.mu.Unlock()
	if e != nil {
		releaseEntry(e)
	}
	if ht != nil {
		ht.release()
	}
}

// PurgeDeviceCache force-releases every *cache* the manager keeps on the
// device: cached copies of host-resident base BATs, the hash-table cache,
// and materialised-oid caches of bitmaps. It exists for exactly one
// situation — the device has latched dead — where the cached bytes are
// unreachable anyway and releasing them is pure bookkeeping that keeps the
// allocation accounting exact (a corpse must report zero bytes, not hold its
// caches forever). Resident Ocelot-owned intermediates are deliberately NOT
// touched: their registration must stay so a later Release/Sync fails
// loudly instead of silently re-uploading never-written host bytes; their
// buffers are released when the owning session closes. Idempotent and cheap
// once the caches are empty.
func (m *MemoryManager) PurgeDeviceCache() {
	m.mu.Lock()
	var ents []*entry
	for b, e := range m.entries {
		if e.isBase && e.pins == 0 {
			// Host copy is authoritative: the device cache is disposable.
			// (A pinned cache still gates a draining command; the next
			// purge catches it.)
			delete(m.entries, b)
			ents = append(ents, e)
			continue
		}
		if e.matBuf != nil {
			// A rebuildable cache even on live entries; on a dead device
			// it is unreadable, so shed it.
			_ = e.matBuf.Release()
			e.matBuf = nil
			e.matProducer = nil
		}
	}
	var hts []*devHashTable
	for b, ht := range m.hashCache {
		delete(m.hashCache, b)
		hts = append(hts, ht)
	}
	m.mu.Unlock()
	for _, e := range ents {
		releaseEntry(e)
	}
	for _, ht := range hts {
		ht.release()
	}
}

func releaseEntry(e *entry) {
	if e.buf != nil {
		_ = e.buf.Release()
		e.buf = nil
	}
	if e.matBuf != nil {
		_ = e.matBuf.Release()
		e.matBuf = nil
	}
	e.offload = nil
}

// Alloc obtains a device buffer of n bytes, making room by evicting cached
// base BATs in LRU order and then offloading intermediate results to the
// host — the §3.3 pressure protocol. Pinned entries are never touched.
func (m *MemoryManager) Alloc(n int) (*cl.Buffer, error) {
	drained := false
	for {
		buf, err := m.ctx.CreateBuffer(n)
		if err == nil {
			return buf, nil
		}
		if !errors.Is(err, cl.ErrOutOfDeviceMemory) {
			return nil, err
		}
		if m.makeRoom() {
			continue
		}
		if !drained {
			// Nothing evictable in the registry, but in-flight operators may
			// hold transient scratch that their completion callbacks free.
			// Drain the queue once — the lazy pipeline's one forced wait —
			// and retry the pressure protocol.
			_ = m.q.Finish()
			drained = true
			continue
		}
		return nil, fmt.Errorf("allocating %d bytes: %w", n, err)
	}
}

// AllocScratch obtains a transient device buffer of n bytes, reusing the
// backing bytes of a previously recycled buffer of the same size when one is
// available. Capacity is charged exactly as Alloc charges it; on a capacity
// refusal the recycled bytes are dropped and the call falls through to
// Alloc's pressure protocol.
//
// The contents of a recycled buffer are UNDEFINED (OpenCL cl_mem
// semantics): every kernel consuming scratch must fully write what it later
// reads, or clear it with kernels.Fill first. Flag words that kernels only
// ever raise (the hash build's fail word) must come from plain Alloc, which
// is zeroed by construction.
func (m *MemoryManager) AllocScratch(n int) (*cl.Buffer, error) {
	m.scratchMu.Lock()
	stack := m.scratchFree[n]
	if len(stack) == 0 {
		m.scratchMiss++
		m.scratchMu.Unlock()
		return m.Alloc(n)
	}
	data := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	m.scratchFree[n] = stack[:len(stack)-1]
	m.scratchBytes -= int64(n)
	m.scratchHits++
	m.scratchMu.Unlock()
	buf, err := m.ctx.CreateBufferRecycling(data)
	if err == nil {
		return buf, nil
	}
	return m.Alloc(n)
}

// ReleaseScratch releases a scratch buffer and keeps its backing bytes for
// reuse by AllocScratch. The caller must guarantee no enqueued command still
// reads or writes the buffer — unlike plain Release, the memory WILL be
// handed to a future command. Device capacity is returned immediately.
func (m *MemoryManager) ReleaseScratch(b *cl.Buffer) {
	if b == nil {
		return
	}
	data := b.Bytes()
	if b.Release() != nil || b.HostAlias() || len(data) == 0 {
		return
	}
	n := len(data)
	m.scratchMu.Lock()
	if len(m.scratchFree[n]) < maxScratchFreePerSize &&
		m.scratchBytes+int64(n) <= maxScratchFreeBytes {
		m.scratchFree[n] = append(m.scratchFree[n], data)
		m.scratchBytes += int64(n)
	}
	m.scratchMu.Unlock()
}

// FlushScratch drops every recycled backing array to the garbage collector.
// Call it when an engine is retired: the storage layer's OnFree listener
// keeps the MemoryManager reachable for process lifetime, so a discarded
// engine would otherwise pin up to maxScratchFreeBytes of host memory.
func (m *MemoryManager) FlushScratch() {
	m.scratchMu.Lock()
	clear(m.scratchFree)
	m.scratchBytes = 0
	m.scratchMu.Unlock()
}

// ScratchStats returns (free-list hits, misses) of AllocScratch.
func (m *MemoryManager) ScratchStats() (hits, misses int64) {
	m.scratchMu.Lock()
	defer m.scratchMu.Unlock()
	return m.scratchHits, m.scratchMiss
}

// makeRoom frees one victim and reports whether anything was freed.
func (m *MemoryManager) makeRoom() bool {
	m.mu.Lock()
	// Pass 1: drop the LRU cached base BAT (host copy is authoritative).
	if victim, e := m.lruLocked(true); victim != nil {
		m.evictions++
		delete(m.entries, victim)
		m.mu.Unlock()
		waitEvents(e)
		releaseEntry(e)
		return true
	}
	// Pass 2: drop a cached hash table nobody is enqueueing on or probing.
	for b, ht := range m.hashCache {
		if ht.idleLocked() {
			delete(m.hashCache, b)
			m.mu.Unlock()
			ht.release()
			return true
		}
	}
	// Pass 3: offload the LRU intermediate to the host.
	victim, e := m.lruLocked(false)
	if victim == nil {
		m.mu.Unlock()
		return false
	}
	m.offloads++
	m.mu.Unlock()
	waitEvents(e)
	m.offloadEntry(e)
	return true
}

// lruLocked picks the least-recently-used unpinned entry with device memory,
// restricted to base caches when base is true (and to intermediates
// otherwise).
func (m *MemoryManager) lruLocked(base bool) (*bat.BAT, *entry) {
	var victim *bat.BAT
	var ve *entry
	for b, e := range m.entries {
		if e.isBase != base || e.pins > 0 || e.bytes() == 0 {
			continue
		}
		if ve == nil || e.lastUse < ve.lastUse {
			victim, ve = b, e
		}
	}
	return victim, ve
}

func waitEvents(e *entry) {
	_ = e.producer.Wait()
	_ = e.matProducer.Wait()
	for _, c := range e.consumers {
		_ = c.Wait()
	}
}

// offloadEntry copies an intermediate's payload back to host memory and
// releases its device buffers. The materialised-oid cache is simply dropped
// (it can be recomputed from the offloaded payload).
func (m *MemoryManager) offloadEntry(e *entry) {
	if e.buf != nil {
		host := mem.Alloc(int(e.buf.Size()))
		_ = m.q.EnqueueRead(host, e.buf, nil).Wait()
		e.offload = host
		_ = e.buf.Release()
		e.buf = nil
	}
	if e.matBuf != nil {
		_ = e.matBuf.Release()
		e.matBuf = nil
	}
}

func (m *MemoryManager) touch(e *entry) {
	m.tick++
	e.lastUse = m.tick
}

// ensure returns (creating if needed) the entry for b.
func (m *MemoryManager) ensure(b *bat.BAT) *entry {
	e := m.entries[b]
	if e == nil {
		e = &entry{kind: kindValues, domain: b.Len()}
		m.entries[b] = e
	}
	return e
}

// HasDeviceCopy reports whether b currently has a resident device buffer —
// the residency fact operator placement needs to cost transfers (§7).
func (m *MemoryManager) HasDeviceCopy(b *bat.BAT) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[b]
	return e != nil && e.buf != nil
}

// BindValues registers a freshly produced device buffer as b's payload.
func (m *MemoryManager) BindValues(b *bat.BAT, buf *cl.Buffer, producer *cl.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.ensure(b)
	e.kind = kindValues
	e.domain = b.Len()
	e.buf = buf
	e.producer = producer
	m.touch(e)
}

// BindBitmap registers a selection-result bitmap spanning domain rows as
// b's payload (§4.1.1: bitmaps travel only through Memory Manager
// references).
func (m *MemoryManager) BindBitmap(b *bat.BAT, buf *cl.Buffer, domain int, producer *cl.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.ensure(b)
	e.kind = kindBitmap
	e.domain = domain
	e.buf = buf
	e.producer = producer
	m.touch(e)
}

// IsBitmap reports whether b's payload is a selection bitmap, and its
// domain.
func (m *MemoryManager) IsBitmap(b *bat.BAT) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[b]
	if e == nil || e.kind != kindBitmap {
		return 0, false
	}
	return e.domain, true
}

// ValuesForRead returns the device buffer holding b's values, uploading the
// host heap on a miss (the device-cache behaviour of §3.3; zero-copy on
// host-resident devices) and reloading offloaded payloads. The returned
// events must be passed in the wait-list of consuming kernels; consuming
// events should be reported back via NoteConsumer.
func (m *MemoryManager) ValuesForRead(b *bat.BAT) (*cl.Buffer, []*cl.Event, error) {
	if b.T == bat.Void {
		return nil, nil, fmt.Errorf("core: void BAT %q has no value payload", b.Name)
	}
	m.mu.Lock()
	e := m.entries[b]
	if e != nil && e.kind == kindBitmap {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("core: BAT %q holds a bitmap, not values", b.Name)
	}
	if e != nil && e.buf != nil {
		m.touch(e)
		buf, prod := e.buf, e.producer
		m.mu.Unlock()
		return buf, []*cl.Event{prod}, nil
	}
	var offload []byte
	if e != nil {
		offload = e.offload
	}
	m.mu.Unlock()

	// Miss: upload from the offloaded copy or from the host heap.
	src := offload
	isBase := false
	if src == nil {
		if b.OcelotOwned {
			return nil, nil, fmt.Errorf("core: BAT %q is Ocelot-owned but has no device payload", b.Name)
		}
		src = b.Bytes()
		isBase = true
	}
	var buf *cl.Buffer
	var err error
	var ev *cl.Event
	if !m.dev.Discrete {
		buf, err = m.ctx.CreateBufferFromHost(src)
		if err != nil {
			return nil, nil, err
		}
		ev = cl.CompletedEvent(nil)
	} else {
		buf, err = m.Alloc(len(src))
		if err != nil {
			return nil, nil, err
		}
		ev = m.q.EnqueueWrite(buf, src, nil)
	}

	m.mu.Lock()
	e = m.ensure(b)
	if e.buf != nil {
		// Lost a (single-threaded engine: impossible) race; keep existing.
		old := buf
		buf, ev = e.buf, e.producer
		m.mu.Unlock()
		_ = old.Release()
		return buf, []*cl.Event{ev}, nil
	}
	e.buf = buf
	e.producer = ev
	e.isBase = isBase
	if offload != nil {
		e.offload = nil
		m.reloads++
	}
	m.touch(e)
	m.mu.Unlock()
	return buf, []*cl.Event{ev}, nil
}

// BitmapForRead returns b's bitmap payload (reloading it if offloaded).
func (m *MemoryManager) BitmapForRead(b *bat.BAT) (*cl.Buffer, int, []*cl.Event, error) {
	m.mu.Lock()
	e := m.entries[b]
	if e == nil || e.kind != kindBitmap {
		m.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("core: BAT %q has no bitmap payload", b.Name)
	}
	if e.buf != nil {
		m.touch(e)
		buf, prod, dom := e.buf, e.producer, e.domain
		m.mu.Unlock()
		return buf, dom, []*cl.Event{prod}, nil
	}
	offload, dom := e.offload, e.domain
	m.mu.Unlock()
	if offload == nil {
		return nil, 0, nil, fmt.Errorf("core: bitmap of %q lost", b.Name)
	}
	buf, err := m.Alloc(len(offload))
	if err != nil {
		return nil, 0, nil, err
	}
	ev := m.q.EnqueueWrite(buf, offload, nil)
	m.mu.Lock()
	e.buf = buf
	e.producer = ev
	e.offload = nil
	m.reloads++
	m.touch(e)
	m.mu.Unlock()
	return buf, dom, []*cl.Event{ev}, nil
}

// NoteConsumer records that ev reads b's payload, so the manager can decide
// when discarding device state is safe (§3.4's consumer events).
func (m *MemoryManager) NoteConsumer(b *bat.BAT, ev *cl.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[b]
	if e == nil {
		return
	}
	// Prune completed consumers opportunistically.
	kept := e.consumers[:0]
	for _, c := range e.consumers {
		if !c.Done() {
			kept = append(kept, c)
		}
	}
	e.consumers = append(kept, ev)
	m.touch(e)
}

// Pin prevents b's device state from being evicted or offloaded; the paper
// exposes the same mechanism by bumping a BAT's reference count (§3.3).
func (m *MemoryManager) Pin(b *bat.BAT) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ensure(b).pins++
}

// Unpin releases a Pin.
func (m *MemoryManager) Unpin(b *bat.BAT) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[b]; e != nil && e.pins > 0 {
		e.pins--
	}
}

// Drop releases all device state for b (the operator host-code's resource
// cleanup on release/error paths, §3.2).
func (m *MemoryManager) Drop(b *bat.BAT) {
	m.mu.Lock()
	e := m.entries[b]
	delete(m.entries, b)
	m.mu.Unlock()
	if e != nil {
		waitEvents(e)
		releaseEntry(e)
	}
}

// sortedEntriesForTest returns BAT names by LRU order (oldest first); used
// only by tests.
func (m *MemoryManager) sortedEntriesForTest() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	type rec struct {
		name string
		use  uint64
	}
	var rs []rec
	for b, e := range m.entries {
		rs = append(rs, rec{b.Name, e.lastUse})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].use < rs[j].use })
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}
