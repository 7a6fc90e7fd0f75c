package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
)

// Engine is one Ocelot configuration: the hardware-oblivious operator set
// bound to a single device. Constructing it with the CPU driver yields the
// paper's "Ocelot on CPU" configuration, with the GPU driver "Ocelot on
// GPU" — the operator host code below is byte-for-byte identical in both
// cases (§3.2: "host-code is written completely device-independent").
type Engine struct {
	dev *cl.Device
	ctx *cl.Context
	q   *cl.Queue
	mm  *MemoryManager
	// profile, when set via SetProfile, drives algorithm selection (the
	// §7 future-work hook); nil falls back to device-class defaults.
	profile *Profile

	// Partition-wise join control and statistics (spill.go). spillBudget
	// overrides the device budget: 0 automatic, >0 forced bytes, <0 disabled.
	spillBudget atomic.Int64
	spillJoins  atomic.Int64
	spillParts  atomic.Int64
	spillBytes  atomic.Int64
}

// New creates an Ocelot engine on the given device.
func New(dev *cl.Device) *Engine {
	ctx := cl.NewContext(dev)
	q := cl.NewQueue(ctx)
	return &Engine{dev: dev, ctx: ctx, q: q, mm: NewMemoryManager(ctx, q)}
}

// Name implements ops.Operators.
func (e *Engine) Name() string {
	return fmt.Sprintf("Ocelot[%s]", e.dev.Const.Class)
}

// Module implements ops.Operators: the MAL module the rewriter binds
// Ocelot-routed instructions to.
func (e *Engine) Module() string { return "ocelot" }

// Device returns the engine's device.
func (e *Engine) Device() *cl.Device { return e.dev }

// Queue returns the engine's command queue (examples and tests).
func (e *Engine) Queue() *cl.Queue { return e.q }

// Memory returns the engine's Memory Manager.
func (e *Engine) Memory() *MemoryManager { return e.mm }

// Finish drains all outstanding device work (clFinish).
func (e *Engine) Finish() error { return e.q.Finish() }

// PurgeDeviceCache drops the Memory Manager's device-side caches (base
// copies, hash tables, materialised bitmaps). Call it when the device has
// latched dead so the corpse's allocation accounting returns to zero.
func (e *Engine) PurgeDeviceCache() { e.mm.PurgeDeviceCache() }

// spineWords returns the size (in words) of the per-launch partials scratch
// used by scan/reduce kernels. Reduce's fixed-partition float sum needs at
// least kernels.SumChunks slots regardless of the launch geometry.
func spineWords(dev *cl.Device) int {
	_, _, gsz := kernels.Geometry(dev)
	words := gsz + 2
	if r := kernels.ReducePartialWords(dev); r > words {
		words = r
	}
	return words
}

// spine allocates the partials scratch buffer. Its size is fixed per device,
// so the free-list serves it with near-perfect reuse.
func (e *Engine) spine() (*cl.Buffer, error) {
	return e.mm.Alloc(spineWords(e.dev) * 4)
}

// releaseAfter schedules buffer releases once ev has completed, keeping the
// lazy pipeline intact (no host-side waits on the operator path). The
// backing bytes are recycled through the Memory Manager's free-list, so ev
// must postdate every command that reads or writes the buffers — which
// every call site guarantees by passing the operator's final consumer event.
func (e *Engine) releaseAfter(ev *cl.Event, bufs ...*cl.Buffer) {
	e.q.EnqueueHost("release_scratch", func() error {
		for _, b := range bufs {
			e.mm.Release(b)
		}
		return nil
	}, []*cl.Event{ev})
}

// hostView waits for wait and returns the first n bytes of buf as the host
// sees them: on a host-resident device the buffer's own bytes (mapped — valid
// until the buffer is released), on a discrete one a copy transferred through
// the normal event machinery, so on simulated devices it costs a PCIe round
// trip on the virtual timeline.
func (e *Engine) hostView(buf *cl.Buffer, n int, wait []*cl.Event) ([]byte, error) {
	if !e.dev.Discrete {
		return buf.Bytes()[:n], cl.WaitAll(wait...)
	}
	host := mem.Alloc(n)
	return host, e.q.EnqueueRead(host, buf, wait).Wait()
}

// readU32 reads a single word of a device buffer on the host. This is the
// one place operator host code blocks: result *sizes* must be known to
// allocate result BATs (the paper's operators face the same constraint when
// materialising).
func (e *Engine) readU32(buf *cl.Buffer, wait []*cl.Event) (uint32, error) {
	host, err := e.hostView(buf, 4, wait)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(host), nil
}

// candidate is the device-side view of a candidate list argument.
type candidate struct {
	n     int  // candidate rows
	dense bool // the full range [seq, seq+n)
	seq   uint32
	buf   *cl.Buffer // materialised oid list when !dense
	wait  []*cl.Event
}

// resolveCand normalises a candidate BAT: nil → the full column, Void → a
// dense range, selection bitmaps → their (cached) materialised oid list,
// OID lists → their value buffer.
func (e *Engine) resolveCand(cand *bat.BAT, colLen int) (candidate, error) {
	switch {
	case cand == nil:
		return candidate{n: colLen, dense: true}, nil
	case cand.T == bat.Void:
		return candidate{n: cand.Len(), dense: true, seq: cand.Seq}, nil
	}
	if _, isBM := e.mm.IsBitmap(cand); isBM {
		buf, wait, err := e.materializedOIDs(cand)
		if err != nil {
			return candidate{}, err
		}
		return candidate{n: cand.Len(), buf: buf, wait: wait}, nil
	}
	buf, wait, err := e.mm.ValuesForRead(cand)
	if err != nil {
		return candidate{}, err
	}
	return candidate{n: cand.Len(), buf: buf, wait: wait}, nil
}

// materializedOIDs returns (building and caching it if necessary) the oid
// list of a bitmap-backed candidate BAT — the transparent bitmap
// materialisation of §4.1.1/§4.1.2.
func (e *Engine) materializedOIDs(b *bat.BAT) (*cl.Buffer, []*cl.Event, error) {
	e.mm.mu.Lock()
	ent := e.mm.entries[b]
	if ent != nil && ent.matBuf != nil {
		buf, prod := ent.matBuf, ent.matProducer
		e.mm.touch(ent)
		e.mm.mu.Unlock()
		return buf, []*cl.Event{prod}, nil
	}
	e.mm.mu.Unlock()

	bm, domain, wait, err := e.mm.BitmapForRead(b)
	if err != nil {
		return nil, nil, err
	}
	out, err := e.mm.Alloc((b.Len() + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	sp, err := e.spine()
	if err != nil {
		e.mm.Release(out)
		return nil, nil, err
	}
	ev := kernels.Materialize(e.q, out, bm, sp, domain, wait)
	e.releaseAfter(ev, sp)
	e.mm.NoteConsumer(b, ev)

	e.mm.mu.Lock()
	ent = e.mm.ensure(b)
	ent.matBuf = out
	ent.matProducer = ev
	e.mm.touch(ent)
	e.mm.mu.Unlock()
	return out, []*cl.Event{ev}, nil
}

// Sync implements the explicit synchronisation operator of §3.4: it waits
// on the BAT's producer events and hands the payload — for bitmaps their
// materialised oid list, since bitmaps are never exposed — and with it the
// ownership back to MonetDB. Until here the BAT had no heap. A host-resident
// device hands over the buffer's own bytes (the paper's zero-copy path: no
// allocation, no copy; the Memory Manager keeps reading them through an
// alias and never recycles them); a discrete device's payload is transferred
// into a heap allocated at this moment.
func (e *Engine) Sync(b *bat.BAT) error {
	if b == nil || !b.OcelotOwned {
		return nil
	}
	//lint:transfer both branches wait for the payload before returning
	buf, wait, err := e.valuesOf(b)
	if err != nil {
		return err
	}
	var heap []byte
	if !e.dev.Discrete {
		if err = cl.WaitAll(wait...); err == nil {
			heap, err = e.mm.handOver(b, buf)
		}
	} else {
		heap = mem.Alloc(int(b.HeapBytes()))
		err = e.q.EnqueueRead(heap, buf, wait).Wait()
	}
	if err != nil {
		return err
	}
	b.HandOver(heap)
	return nil
}

// Release implements ops.Operators: it drops the BAT's device state.
func (e *Engine) Release(b *bat.BAT) {
	if b != nil {
		e.mm.Drop(b)
	}
}

// valuesOf uploads/locates the value payload of any non-void column. For
// bitmap-backed candidate BATs the values *are* the qualifying oids, so the
// (cached) materialised list serves as the payload — this is how selection
// results flow into joins and semijoins without ever exposing the bitmap
// (§4.1.1).
func (e *Engine) valuesOf(b *bat.BAT) (*cl.Buffer, []*cl.Event, error) {
	if _, isBM := e.mm.IsBitmap(b); isBM {
		return e.materializedOIDs(b)
	}
	return e.mm.ValuesForRead(b)
}
