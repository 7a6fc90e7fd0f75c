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
	"sync"
	"sync/atomic"

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

	// scratchFree is the one free-list behind Alloc: the backing bytes of
	// every buffer handed back through Release — operator outputs, bitmaps,
	// materialised oid lists, hash tables and transient scratch alike — keyed
	// by exact byte size. Only the host bytes are kept: the device capacity of
	// a recycled buffer is released at once and re-reserved on reuse, so
	// capacity accounting — and the §3.3 pressure protocol — is identical to
	// allocating fresh.
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

// Bounds for the free-list: per-size stack depth and total retained host
// bytes. Overflow is simply dropped to the garbage collector.
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
		waitEvents(e)
		m.releaseEntry(e, !e.isBase)
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
		m.releaseEntry(e, false)
	}
	for _, ht := range hts {
		ht.release()
	}
}

// releaseEntry gives up an entry's device state. Only a release asked for by
// the value's single owner (owned: Drop of an intermediate — every reader has
// returned and noted its kernels, and the caller has waited on them) recycles
// the bytes. A shared base-BAT cache, or whatever the pressure protocol takes
// on its own initiative, can be overtaken by an operator that fetched the
// buffer and has not yet noted its kernel: those bytes go to the garbage
// collector, which keeps them alive for it.
func (m *MemoryManager) releaseEntry(e *entry, owned bool) {
	for _, b := range []*cl.Buffer{e.buf, e.matBuf} {
		if owned {
			m.Release(b)
		} else if b != nil {
			_ = b.Release()
		}
	}
	e.buf, e.matBuf, e.offload = nil, nil, nil
}

// Alloc obtains a device buffer of n bytes — the one allocator behind every
// operator output, bitmap, materialised oid list, hash table and scratch
// buffer. A released buffer's bytes of the same size are reused when the
// free-list has them; either way the device capacity is charged in full,
// making room by evicting cached base BATs in LRU order and then offloading
// intermediates to the host (the §3.3 pressure protocol; pinned entries are
// never touched). The contents are UNDEFINED (OpenCL cl_mem semantics): every
// kernel must fully write what is later read, or clear it with kernels.Fill.
func (m *MemoryManager) Alloc(n int) (*cl.Buffer, error) { return m.alloc(n, false) }

// AllocZeroed is Alloc with every byte zero, for the few words kernels only
// ever raise (the hash build's fail flag). The runtime zeroes them, as a fresh
// CreateBuffer does: a Fill launch would perturb simulated devices' timelines.
func (m *MemoryManager) AllocZeroed(n int) (*cl.Buffer, error) { return m.alloc(n, true) }

func (m *MemoryManager) alloc(n int, zeroed bool) (*cl.Buffer, error) {
	data := m.takeFree(n)
	if zeroed {
		clear(data)
	}
	drained := false
	for {
		var buf *cl.Buffer
		var err error
		if data != nil {
			buf, err = m.ctx.CreateBufferRecycling(data)
		} else {
			buf, err = m.ctx.CreateBuffer(n)
		}
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

// takeFree pops recycled backing bytes of exactly n bytes, or returns nil.
func (m *MemoryManager) takeFree(n int) []byte {
	m.scratchMu.Lock()
	defer m.scratchMu.Unlock()
	stack := m.scratchFree[n]
	if len(stack) == 0 {
		m.scratchMiss++
		return nil
	}
	data := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	m.scratchFree[n] = stack[:len(stack)-1]
	m.scratchBytes -= int64(n)
	m.scratchHits++
	return data
}

// Release ends a buffer's life and keeps its backing bytes for a later Alloc
// of the same size; device capacity is returned at once. The memory WILL be
// handed to a future command, so nothing enqueued may still touch the buffer:
// entries wait on their producer and every recorded consumer first (hence
// ocelotlint's consumernote rule), operator scratch is released from a
// callback gated on the operator's last event (releaseAfter). Where that
// cannot be shown, the buffer's own Release leaves the bytes to the collector.
func (m *MemoryManager) Release(b *cl.Buffer) {
	if b == nil {
		return
	}
	data := b.Detach()
	n := len(data)
	if n == 0 {
		return
	}
	if poisonFreed.Load() {
		for i := range data {
			data[i] = 0xA5
		}
	}
	m.scratchMu.Lock()
	if len(m.scratchFree[n]) < maxScratchFreePerSize &&
		m.scratchBytes+int64(n) <= maxScratchFreeBytes {
		m.scratchFree[n] = append(m.scratchFree[n], data)
		m.scratchBytes += int64(n)
	}
	m.scratchMu.Unlock()
}

// PoisonFreed makes every Memory Manager overwrite bytes as they enter its
// free-list, so a command still reading a released buffer computes a visibly
// wrong answer (or trips the race detector) instead of reading stale but
// plausible values. For the equivalence suites' TestMain only.
func PoisonFreed() { poisonFreed.Store(true) }

var poisonFreed atomic.Bool

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

// ScratchStats returns the free-list (hits, misses) of Alloc.
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
		m.releaseEntry(e, false)
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
	host := e.offload
	if e.buf != nil {
		host = mem.Alloc(int(e.buf.Size()))
		_ = m.q.EnqueueRead(host, e.buf, nil).Wait()
	}
	m.releaseEntry(e, false)
	e.offload = host
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
	m.bind(b, kindValues, buf, b.Len(), producer)
}

// BindBitmap registers a selection-result bitmap spanning domain rows as
// b's payload (§4.1.1: bitmaps travel only through Memory Manager
// references).
func (m *MemoryManager) BindBitmap(b *bat.BAT, buf *cl.Buffer, domain int, producer *cl.Event) {
	m.bind(b, kindBitmap, buf, domain, producer)
}

func (m *MemoryManager) bind(b *bat.BAT, kind payloadKind, buf *cl.Buffer, domain int, producer *cl.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.ensure(b)
	e.kind, e.domain, e.buf, e.producer = kind, domain, buf, producer
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
// events must be passed in the wait-list of consuming kernels, and every
// consuming kernel's event reported back via NoteConsumer: an intermediate's
// bytes are reused once its recorded consumers are done (see Release).
func (m *MemoryManager) ValuesForRead(b *bat.BAT) (*cl.Buffer, []*cl.Event, error) {
	if b.T == bat.Void {
		return nil, nil, fmt.Errorf("core: void BAT %q has no value payload", b.Name)
	}
	buf, _, wait, err := m.forRead(b, kindValues)
	return buf, wait, err
}

// BitmapForRead returns b's bitmap payload (reloading it if offloaded) and
// its domain, under the same contract as ValuesForRead.
func (m *MemoryManager) BitmapForRead(b *bat.BAT) (*cl.Buffer, int, []*cl.Event, error) {
	return m.forRead(b, kindBitmap)
}

// forRead returns b's resident payload of the given kind with its domain,
// first making it resident if need be: an offloaded payload is reloaded, the
// host heap of a base BAT (values only) uploaded.
func (m *MemoryManager) forRead(b *bat.BAT, kind payloadKind) (*cl.Buffer, int, []*cl.Event, error) {
	m.mu.Lock()
	e := m.entries[b]
	if (e == nil && kind == kindBitmap) || (e != nil && e.kind != kind) {
		m.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("core: BAT %q does not hold the bitmap/values payload asked for", b.Name)
	}
	var src []byte
	if e != nil {
		if e.buf != nil {
			m.touch(e)
			buf, prod, dom := e.buf, e.producer, e.domain
			m.mu.Unlock()
			return buf, dom, []*cl.Event{prod}, nil
		}
		src = e.offload
	}
	m.mu.Unlock()

	reload := src != nil
	if !reload {
		if kind == kindBitmap || b.OcelotOwned {
			return nil, 0, nil, fmt.Errorf("core: BAT %q is Ocelot-owned but has no device payload", b.Name)
		}
		src = b.Bytes()
	}
	var buf *cl.Buffer
	var err error
	var ev *cl.Event
	if !m.dev.Discrete {
		buf, err = m.ctx.CreateBufferFromHost(src)
		ev = cl.CompletedEvent(nil)
	} else if buf, err = m.Alloc(len(src)); err == nil {
		ev = m.q.EnqueueWrite(buf, src, nil)
	}
	if err != nil {
		return nil, 0, nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	e = m.ensure(b)
	if e.buf != nil {
		// Another session uploaded the same base BAT meanwhile; keep its copy.
		_ = buf.Release()
		return e.buf, e.domain, []*cl.Event{e.producer}, nil
	}
	e.buf, e.producer = buf, ev
	if reload {
		e.offload = nil
		m.reloads++
	} else {
		e.isBase = true
	}
	m.touch(e)
	return buf, e.domain, []*cl.Event{ev}, nil
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

// handOver ends the manager's ownership of the bytes behind buf — b's value
// buffer, or for a bitmap its materialised oid list, with every writer done —
// and returns them to become b's host heap: the zero-copy hand-over of §3.4,
// for host-resident devices only. The entry goes on reading the same bytes
// through a zero-copy alias, like the cache of any host-resident BAT, so a
// later operator still finds them and they can never enter the free-list.
func (m *MemoryManager) handOver(b *bat.BAT, buf *cl.Buffer) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[b]
	if e == nil || (e.buf != buf && e.matBuf != buf) {
		return nil, fmt.Errorf("core: BAT %q lost its device payload during sync", b.Name)
	}
	if buf.HostAlias() {
		return buf.Bytes(), nil // a reloaded offload copy: host bytes already
	}
	data := buf.Detach()
	alias, err := m.ctx.CreateBufferFromHost(data)
	if err != nil {
		return nil, err
	}
	if e.matBuf == buf {
		e.matBuf = alias
	} else {
		e.buf, e.isBase = alias, true
	}
	return data, nil
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
		m.releaseEntry(e, !e.isBase)
	}
}
