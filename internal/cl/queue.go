package cl

import (
	"sync"
	"time"
)

// Queue is a command queue on one device, mirroring cl_command_queue in
// out-of-order mode: commands are only ordered by their wait-lists, which is
// what lets the driver interleave independent kernels and transfers
// (Figure 3 of the paper). Every Enqueue* call returns immediately with an
// Event; Ocelot's operators are lazy (§3.4) — they enqueue and move on, and
// only the sync operator waits.
type Queue struct {
	ctx *Context
	dev *Device

	mu sync.Mutex
	// pending holds only in-flight commands: completed events are dropped
	// eagerly by the scheduler (see forget), so the set stays bounded by the
	// number of commands actually outstanding rather than growing until the
	// next Finish.
	pending  map[*Event]struct{}
	firstErr error
}

// NewQueue creates a command queue on the context's device.
func NewQueue(ctx *Context) *Queue {
	return &Queue{ctx: ctx, dev: ctx.dev, pending: make(map[*Event]struct{})}
}

// Context returns the queue's context.
func (q *Queue) Context() *Context { return q.ctx }

// Device returns the queue's device.
func (q *Queue) Device() *Device { return q.dev }

// Finish blocks until every command enqueued so far has completed and
// returns the first error among them (clFinish semantics). Errors of
// already-completed commands were latched as they finished; a second Finish
// starts clean.
func (q *Queue) Finish() error {
	q.mu.Lock()
	first := q.firstErr
	q.firstErr = nil
	pending := make([]*Event, 0, len(q.pending))
	for ev := range q.pending {
		pending = append(pending, ev)
	}
	clear(q.pending)
	q.mu.Unlock()
	for _, ev := range pending {
		if err := ev.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PendingCommands reports the number of enqueued-but-unfinished commands
// (diagnostics and tests; the regression guard for unbounded growth).
func (q *Queue) PendingCommands() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

func (q *Queue) remember(ev *Event) {
	q.mu.Lock()
	q.pending[ev] = struct{}{}
	q.mu.Unlock()
}

// forget drops a completed command from the tracking set, latching its error
// for the next Finish. Events already claimed by a concurrent Finish are
// left to that Finish (their error must not resurface afterwards).
func (q *Queue) forget(ev *Event, err error) {
	q.mu.Lock()
	if _, ok := q.pending[ev]; ok {
		delete(q.pending, ev)
		if err != nil && q.firstErr == nil {
			q.firstErr = err
		}
	}
	q.mu.Unlock()
}

// submit is the shared command machinery: it assigns a virtual schedule
// (simulated devices know the duration up front from the cost model), then
// registers the command with the dependency-counting scheduler. The command
// — work, or for a kernel launch — runs, measuring real time on real devices,
// as soon as its last dependency completes; with no incomplete dependencies
// it is fired immediately onto the device's worker pool. No goroutine is
// parked waiting for dependencies. c carries the command half (name, and
// work or launch); submit owns it from here.
func (q *Queue) submit(c *Event, deps []*Event, virtDur time.Duration, copyEngine bool) *Event {
	c.q = q
	if ferr := q.dev.faultCommand(); ferr != nil && !c.cleanup {
		// The command is scheduled normally but its work is replaced by the
		// injected failure, so dependents and Finish observe it through the
		// ordinary dependency-error propagation.
		c.work, c.launch = func() error { return ferr }, nil
	}
	if c.launch != nil {
		c.launch.ev = c
	}
	if q.dev.Simulated {
		ready := depsReady(deps)
		c.vStart, c.vEnd = q.dev.scheduleVirtual(ready, virtDur, copyEngine)
	}
	q.remember(c)
	c.pending.Store(1) // enqueue guard: nothing fires before registration ends
	for _, d := range deps {
		if d == nil {
			continue
		}
		c.pending.Add(1)
		if !d.subscribe(c) {
			// Dependency already complete: account for it synchronously.
			c.noteDepErr(d.Err())
			c.pending.Add(-1)
		}
	}
	if c.pending.Add(-1) == 0 {
		q.dev.executor().fire(c)
	}
	return c
}

// pause blocks the caller for d. time.Sleep rounds up to the timer's
// granularity (a 30 µs sleep takes over a millisecond on some kernels), so
// it only covers the part of the wait beyond a millisecond; the rest spins
// to the deadline.
func pause(d time.Duration) {
	deadline := time.Now().Add(d)
	if d > time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(deadline) {
	}
}

// EnqueueKernel schedules a kernel launch. The returned event completes when
// the kernel has (functionally) finished; on simulated devices its virtual
// span is computed from l.Cost at enqueue time.
func (q *Queue) EnqueueKernel(fn KernelFunc, l Launch) *Event {
	q.dev.countKernel()
	if q.dev.LaunchPause > 0 {
		// Emulates the fixed per-launch framework overhead of the beta Intel
		// OpenCL SDK the paper measured on the CPU (§5.3.2, Figure 7d).
		pause(q.dev.LaunchPause)
	}
	var virt time.Duration
	if q.dev.Simulated {
		virt = q.dev.Perf.KernelDuration(l.Cost)
	}
	r := newLaunchRun(q.dev, fn, l)
	return q.submit(&Event{name: r.name, launch: r}, l.Wait, virt, false)
}

// EnqueueWrite copies host bytes into a device buffer. On zero-copy buffers
// aliasing the same memory it degenerates to a no-op; on discrete devices it
// occupies the copy engine for the modelled PCIe duration.
func (q *Queue) EnqueueWrite(dst *Buffer, src []byte, wait []*Event) *Event {
	data := dst.data // captured at enqueue, like kernel views
	return q.transfer("write", dst, src, wait, func() error {
		if dst.hostAlias && len(src) > 0 && len(data) > 0 && &data[0] == &src[0] {
			return nil // already the same memory
		}
		copy(data, src)
		return nil
	})
}

// EnqueueRead copies a device buffer back into host bytes. This is the
// operation behind Ocelot's sync operator (§3.4): handing a result BAT back
// to MonetDB maps or transfers the buffer to the host.
func (q *Queue) EnqueueRead(dst []byte, src *Buffer, wait []*Event) *Event {
	data := src.data
	return q.transfer("read", src, dst, wait, func() error {
		if src.hostAlias && len(dst) > 0 && len(data) > 0 && &data[0] == &dst[0] {
			return nil
		}
		copy(dst, data)
		return nil
	})
}

// EnqueueCopy copies between two device buffers on the device itself (no
// PCIe traffic; modelled at device memory bandwidth).
func (q *Queue) EnqueueCopy(dst, src *Buffer, wait []*Event) *Event {
	var virt time.Duration
	if q.dev.Simulated {
		virt = time.Duration(float64(2*src.size) / q.dev.Perf.MemBandwidth * float64(time.Second))
	}
	dstData, srcData := dst.data, src.data
	return q.submit(&Event{name: "copy", work: func() error {
		copy(dstData, srcData)
		return nil
	}}, wait, virt, false)
}

// transfer implements the shared host↔device copy path with PCIe accounting
// on discrete devices.
func (q *Queue) transfer(name string, buf *Buffer, host []byte, wait []*Event, work func() error) *Event {
	n := int64(len(host))
	if buf != nil && buf.size < n {
		n = buf.size
	}
	var virt time.Duration
	if q.dev.Discrete {
		q.dev.countTransfer(n)
		if q.dev.Simulated {
			virt = q.dev.Perf.TransferDuration(n)
		}
	}
	return q.submit(&Event{name: name, work: work}, wait, virt, true)
}

// EnqueueHost schedules a host-side callback ordered by the wait-list. It
// occupies no device engine time (virtual duration zero) and is used by the
// runtime for bookkeeping that must respect the event graph.
func (q *Queue) EnqueueHost(name string, fn func() error, wait []*Event) *Event {
	return q.submit(&Event{name: name, work: fn}, wait, 0, false)
}

// EnqueueCleanup schedules a host-side callback that runs once every event
// in wait has completed, whether they succeeded or not, and also on a device
// that has died: freeing bookkeeping must not depend on the hardware
// answering (Kill). Scratch releases go through it, so a failed command
// chain does not strand the buffers its commands used.
func (q *Queue) EnqueueCleanup(name string, fn func(), wait []*Event) *Event {
	return q.submit(&Event{name: name, work: func() error { fn(); return nil }, cleanup: true}, wait, 0, false)
}

// EnqueueMarker returns an event that completes when all the given events
// have completed, without performing any work.
func (q *Queue) EnqueueMarker(wait []*Event) *Event {
	return q.submit(&Event{name: "marker", work: func() error { return nil }}, wait, 0, false)
}
