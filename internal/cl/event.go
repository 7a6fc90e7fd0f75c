package cl

import (
	"sync"
	"sync/atomic"
	"time"
)

// Event tracks one enqueued device operation (kernel launch, transfer, or
// host callback), mirroring OpenCL's event model that Ocelot's lazy
// execution is built on (§3.4). Events are returned by every Enqueue* call
// and may be passed in the wait-list of later calls; the runtime guarantees
// an operation only starts once every event in its wait-list has completed.
//
// The event *is* the enqueued command: besides the completion state callers
// observe it carries the work and the dependency counter the scheduler fires
// it by (pool.go), so an enqueue costs one object.
type Event struct {
	name string

	mu        sync.Mutex
	err       error
	completed bool
	// done is closed on completion. It is made by the first Wait that finds
	// the operation still running: most events are only ever waited on by
	// the scheduler, through waiters, and never need it.
	done chan struct{}
	// waiter0/waiters are commands whose wait-list includes this event;
	// completion decrements each one's pending-dependency counter (see
	// pool.go). This is what lets the scheduler fire commands without
	// parking a goroutine per enqueue. The single-waiter case — a linear
	// kernel chain — stays allocation-free via the inline slot.
	waiter0 *Event
	waiters []*Event

	// Virtual schedule on the device timeline, in nanoseconds since device
	// creation. For simulated devices these are assigned at enqueue time by
	// the cost model; for real devices vEnd-vStart equals the measured
	// duration.
	vStart, vEnd int64
	realDur      time.Duration

	// The command half, unused by CompletedEvent. Exactly one of work (a
	// transfer, host callback or marker) and launch (a kernel) is set.
	// pending starts at 1 (the enqueue guard) plus one per registered
	// dependency; whichever decrement reaches zero fires the command, exactly
	// once. depErr (guarded by mu) is the first error among the dependencies.
	q       *Queue
	work    func() error
	launch  *launchRun
	pending atomic.Int32
	depErr  error
}

// CompletedEvent returns an already-completed event with the given error.
// Useful as a degenerate dependency.
func CompletedEvent(err error) *Event {
	return &Event{name: "completed", err: err, completed: true}
}

// Name returns the label the operation was enqueued under.
func (e *Event) Name() string { return e.name }

// Wait blocks until the operation has finished (functionally) and returns
// its error, if any.
func (e *Event) Wait() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if !e.completed {
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		e.mu.Unlock()
		<-done
		e.mu.Lock()
	}
	defer e.mu.Unlock()
	return e.err
}

// Done reports, without blocking, whether the operation has completed.
func (e *Event) Done() bool {
	if e == nil {
		return true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.completed
}

// Err returns the operation's error without blocking; it is only meaningful
// after Wait (or on an event known to be complete).
func (e *Event) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// VirtualSpan returns the operation's (start, end) on the device's virtual
// timeline. On simulated devices it is available immediately after enqueue.
func (e *Event) VirtualSpan() (start, end time.Duration) {
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.vStart), time.Duration(e.vEnd)
}

// Duration returns the operation's duration: virtual for simulated devices,
// measured for real ones.
func (e *Event) Duration() time.Duration {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.realDur > 0 {
		return e.realDur
	}
	return time.Duration(e.vEnd - e.vStart)
}

// subscribe registers a command to be notified on completion; it reports
// false — without registering — when the event has already completed (the
// caller then accounts for the dependency synchronously).
func (e *Event) subscribe(c *Event) bool {
	e.mu.Lock()
	if e.completed {
		e.mu.Unlock()
		return false
	}
	if e.waiter0 == nil {
		e.waiter0 = c
	} else {
		e.waiters = append(e.waiters, c)
	}
	e.mu.Unlock()
	return true
}

// complete marks the operation finished and notifies subscribed commands.
// It returns the commands that became runnable — one directly (for the
// caller to chain into without spawning) plus any others — so a linear
// kernel chain completes with no allocation at all.
func (e *Event) complete(err error) (next *Event, more []*Event) {
	e.mu.Lock()
	e.err = err
	e.completed = true
	done := e.done
	w0, ws := e.waiter0, e.waiters
	e.waiter0, e.waiters = nil, nil
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
	if w0 != nil && w0.depDone(err) {
		next = w0
	}
	for _, c := range ws {
		if !c.depDone(err) {
			continue
		}
		if next == nil {
			next = c
		} else {
			more = append(more, c)
		}
	}
	return next, more
}

// WaitAll waits for every event and returns the first error encountered.
func WaitAll(events ...*Event) error {
	var first error
	for _, ev := range events {
		if err := ev.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// depsReady returns the latest virtual end time across the dependencies.
// Valid for simulated devices, where virtual spans are assigned at enqueue.
func depsReady(deps []*Event) int64 {
	var ready int64
	for _, d := range deps {
		if d == nil {
			continue
		}
		d.mu.Lock()
		if d.vEnd > ready {
			ready = d.vEnd
		}
		d.mu.Unlock()
	}
	return ready
}
