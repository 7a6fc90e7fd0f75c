package cl

import (
	"fmt"
	"sync"

	"repro/internal/mem"
)

// Context owns the buffers created on one device, mirroring cl_context. All
// Ocelot state for a device — the Memory Manager's cache, every intermediate
// result — lives in buffers of a single context.
type Context struct {
	dev *Device

	mu      sync.Mutex
	buffers map[*Buffer]struct{}
}

// NewContext creates a context on the given device.
func NewContext(dev *Device) *Context {
	return &Context{dev: dev, buffers: make(map[*Buffer]struct{})}
}

// Device returns the context's device.
func (c *Context) Device() *Device { return c.dev }

// LiveBuffers returns the number of unreleased buffers in the context.
func (c *Context) LiveBuffers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buffers)
}

// Buffer is a device memory object (cl_mem). On non-discrete devices a
// buffer may alias host memory (zero-copy, §3.3); on discrete devices it
// counts against the device's global memory capacity and must be populated
// through explicit transfers.
type Buffer struct {
	ctx  *Context
	size int64
	data []byte
	// hostAlias is true when data aliases memory owned by the host (only on
	// non-discrete devices): releasing the buffer must not recycle it, and
	// transfers to/from it are no-ops.
	hostAlias bool

	mu       sync.Mutex
	released bool
}

// CreateBuffer allocates a zeroed device buffer of n bytes. On discrete
// devices the allocation is charged against the device capacity and the call
// fails with ErrOutOfDeviceMemory when it does not fit.
func (c *Context) CreateBuffer(n int) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("cl: negative buffer size %d", n)
	}
	if err := c.dev.reserve(int64(n)); err != nil {
		return nil, err
	}
	b := &Buffer{ctx: c, size: int64(n), data: mem.Alloc(n)}
	c.track(b)
	return b, nil
}

// CreateBufferFromHost makes host memory visible to the device. On
// non-discrete devices this is the zero-copy path the paper highlights for
// CPU execution (§3.3): the buffer aliases the host bytes directly. On
// discrete devices the contents are copied into a fresh device allocation
// (the caller is expected to account for the transfer separately via
// Queue.EnqueueWrite if it wants the copy on the timeline; this convenience
// constructor performs an immediate, untimed copy and is used by tests).
func (c *Context) CreateBufferFromHost(host []byte) (*Buffer, error) {
	if !c.dev.Discrete {
		b := &Buffer{ctx: c, size: int64(len(host)), data: host, hostAlias: true}
		c.track(b)
		return b, nil
	}
	b, err := c.CreateBuffer(len(host))
	if err != nil {
		return nil, err
	}
	copy(b.data, host)
	return b, nil
}

// CreateBufferRecycling is CreateBuffer over a backing array the caller
// took back from an earlier buffer with Detach: the device capacity is
// charged as usual and the buffer behaves identically, but no memory is
// allocated. Unlike CreateBuffer the contents are UNDEFINED — whatever the
// previous use left there, exactly like a freshly created cl_mem in real
// OpenCL — so callers must fully write whatever they later read (zeroing
// multi-megabyte buffers per operation would cost more memory bandwidth than
// the recycling saves). The Memory Manager's free-list is the one user.
func (c *Context) CreateBufferRecycling(data []byte) (*Buffer, error) {
	if err := c.dev.reserve(int64(len(data))); err != nil {
		return nil, err
	}
	b := &Buffer{ctx: c, size: int64(len(data)), data: data}
	c.track(b)
	return b, nil
}

func (c *Context) track(b *Buffer) {
	c.mu.Lock()
	c.buffers[b] = struct{}{}
	c.mu.Unlock()
}

// Release returns the buffer's device memory to the allocator. Releasing
// twice is an error; releasing a zero-copy alias only detaches it from the
// context.
//
// Release gives the backing bytes up to the garbage collector, which is what
// makes it safe while commands are still enqueued on the buffer: kernels
// capture buffer views when they are *enqueued*, so an in-flight consumer
// keeps the array alive and reads the final, correct content; only the
// device-capacity bookkeeping changes. Detach is the other way to end a
// buffer, for an owner that wants the bytes back.
func (b *Buffer) Release() error {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return ErrReleased
	}
	b.released = true
	b.mu.Unlock()

	b.ctx.mu.Lock()
	delete(b.ctx.buffers, b)
	b.ctx.mu.Unlock()
	if !b.hostAlias {
		b.ctx.dev.release(b.size)
	}
	return nil
}

// Detach releases the buffer and transfers its backing bytes to the caller,
// to become a result's host heap (the zero-copy hand-over of §3.4 on
// host-resident devices) or the backing of a later CreateBufferRecycling.
// Unlike Release this removes the safety net: the bytes will be written
// again, so every enqueued command that reads or writes the buffer must have
// completed — the Memory Manager guarantees it by waiting on the producer
// and every recorded consumer event first. It returns nil for a zero-copy
// alias (those bytes are the host's) and for an already released buffer.
func (b *Buffer) Detach() []byte {
	if b.Release() != nil || b.hostAlias {
		return nil
	}
	return b.data
}

// Size returns the buffer's length in bytes.
func (b *Buffer) Size() int64 { return b.size }

// HostAlias reports whether the buffer aliases host memory (zero-copy).
func (b *Buffer) HostAlias() bool { return b.hostAlias }

// Bytes exposes the buffer's backing store. Kernels receive buffers as
// arguments and view them through the typed accessors below; host code must
// only touch a buffer's bytes after synchronising on its producer events
// (enforced by the Ocelot Memory Manager's ownership rules, §3.4).
func (b *Buffer) Bytes() []byte { return b.data }

// I32 views the buffer as []int32.
func (b *Buffer) I32() []int32 { return mem.I32(b.data) }

// U32 views the buffer as []uint32.
func (b *Buffer) U32() []uint32 { return mem.U32(b.data) }

// F32 views the buffer as []float32.
func (b *Buffer) F32() []float32 { return mem.F32(b.data) }
