package cl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the persistent per-device executor. The runtime used
// to spawn one goroutine per enqueued command (parked on its wait-list) and
// fresh goroutines per work-group on every launch — exactly the per-launch
// framework overhead the paper measures against the beta Intel OpenCL SDK in
// §5.3.2 / Figure 7(d). The executor replaces that with:
//
//   - A fixed worker pool per device (one worker per Const.Cores, started
//     lazily, drained after an idle timeout or an explicit Device.Close).
//     Work-groups of a launch are pulled from a shared atomic cursor by the
//     launching goroutine and any recruited workers, so a tiny launch runs
//     entirely inline while a large one fans out across the pool.
//
//   - A dependency-counting command scheduler: each command carries a
//     pending-dependency counter and is fired exactly once, by whichever
//     event completion (or the enqueue itself) drops the counter to zero.
//     No goroutine exists for a command until it is runnable, and a linear
//     chain of dependent commands executes on a single goroutine.
//
//   - A free-list for work-group local memory, so LocalWords launches stop
//     allocating (and garbage-collecting) a scratch slice per group.

// workerIdleTimeout is how long a pool worker stays parked before retiring;
// the pool restarts lazily on the next launch, so an idle device holds no
// goroutines.
const workerIdleTimeout = 2 * time.Second

// maxLocalFree bounds the local-memory free-list length per device.
const maxLocalFree = 64

// poolWork is one unit handed to a parked worker: a ready command or an
// in-flight launch recruiting helpers.
type poolWork interface {
	// runInPool runs on a pool worker; t is that worker's own Thread, for
	// launches to hand to the work-items it executes.
	runInPool(x *executor, t *Thread)
}

// executor is the persistent per-device worker pool.
type executor struct {
	dev *Device

	// tasks is an unbuffered handoff channel: a send succeeds only when a
	// worker is parked on the other side, so offers never block and never
	// queue stale work behind a busy pool.
	tasks chan poolWork
	quit  chan struct{}

	mu      sync.Mutex
	workers int
	closed  bool
	wg      sync.WaitGroup

	// localFree recycles work-group local-memory scratch across launches.
	localMu   sync.Mutex
	localFree [][]uint32

	// localReuses counts free-list hits (introspection for tests).
	localReuses atomic.Int64
}

func newExecutor(d *Device) *executor {
	return &executor{
		dev:   d,
		tasks: make(chan poolWork),
		quit:  make(chan struct{}),
	}
}

// executor returns the device's pool, creating it lazily (and recreating it
// after a Close).
func (d *Device) executor() *executor {
	d.execMu.Lock()
	x := d.exec
	if x == nil {
		x = newExecutor(d)
		d.exec = x
	}
	d.execMu.Unlock()
	return x
}

// Close drains the device's worker pool: parked workers exit and in-flight
// work is waited for. The pool restarts lazily on the next launch, so Close
// is safe at any point; it exists so contexts can be torn down without
// leaving goroutines behind (workers also retire on their own after an idle
// timeout).
func (d *Device) Close() {
	d.execMu.Lock()
	x := d.exec
	d.exec = nil
	d.execMu.Unlock()
	if x != nil {
		x.close()
	}
}

func (x *executor) close() {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return
	}
	x.closed = true
	x.mu.Unlock()
	close(x.quit)
	x.wg.Wait()
}

func (x *executor) maxWorkers() int {
	if n := x.dev.Const.Cores; n > 0 {
		return n
	}
	return 1
}

// liveWorkers reports the current pool size (tests).
func (x *executor) liveWorkers() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.workers
}

// offer hands w to a parked worker, spawning one if the pool is below the
// device's core count. It never blocks; false means no worker is available
// and the caller must make progress itself.
func (x *executor) offer(w poolWork) bool {
	select {
	case x.tasks <- w:
		return true
	default:
	}
	x.mu.Lock()
	if x.closed || x.workers >= x.maxWorkers() {
		x.mu.Unlock()
		return false
	}
	x.workers++
	x.wg.Add(1)
	x.mu.Unlock()
	go x.worker(w)
	return true
}

func (x *executor) worker(first poolWork) {
	defer x.wg.Done()
	var t Thread // reused by every work-group this worker ever runs
	if first != nil {
		first.runInPool(x, &t)
	}
	timer := time.NewTimer(workerIdleTimeout)
	defer timer.Stop()
	for {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(workerIdleTimeout)
		select {
		case w := <-x.tasks:
			w.runInPool(x, &t)
		case <-x.quit:
			x.retire()
			return
		case <-timer.C:
			x.retire()
			return
		}
	}
}

func (x *executor) retire() {
	x.mu.Lock()
	x.workers--
	x.mu.Unlock()
}

// getLocal returns a zeroed local-memory slice of the given word count,
// reusing the smallest free-listed one that fits, so that a launch asking for
// a few words does not take the slice a launch asking for all of local
// memory will want next. Zeroing matches the fresh make([]uint32, words) the
// seed runtime performed per group. A miss stocks the list for every worker
// at once: a launch may have a group running on each of them, and only the
// first launch of a size should allocate, not whichever later one first
// happens to overlap two groups.
func (x *executor) getLocal(words int) []uint32 {
	x.localMu.Lock()
	best := -1
	for i, s := range x.localFree {
		if cap(s) >= words && (best < 0 || cap(s) < cap(x.localFree[best])) {
			best = i
		}
	}
	if best >= 0 {
		s := x.localFree[best]
		last := len(x.localFree) - 1
		x.localFree[best] = x.localFree[last]
		x.localFree[last] = nil
		x.localFree = x.localFree[:last]
		x.localMu.Unlock()
		x.localReuses.Add(1)
		s = s[:words]
		clear(s)
		return s
	}
	for i := 1; i < x.maxWorkers() && len(x.localFree) < maxLocalFree; i++ {
		x.localFree = append(x.localFree, make([]uint32, words))
	}
	x.localMu.Unlock()
	return make([]uint32, words)
}

func (x *executor) putLocal(s []uint32) {
	if cap(s) == 0 {
		return
	}
	x.localMu.Lock()
	if len(x.localFree) < maxLocalFree {
		x.localFree = append(x.localFree, s[:cap(s)])
	}
	x.localMu.Unlock()
}

// The scheduler half of Event: the dependency counter that replaces the
// seed's parked goroutine per command.

func (c *Event) noteDepErr(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.depErr == nil {
		c.depErr = err
	}
	c.mu.Unlock()
}

// depDone is called once per registered dependency as it completes; it
// reports whether the command became runnable.
func (c *Event) depDone(err error) bool {
	c.noteDepErr(err)
	return c.pending.Add(-1) == 0
}

func (c *Event) runInPool(x *executor, _ *Thread) { runCommands(c) }

// fire starts a runnable command without blocking the caller: a parked pool
// worker picks it up when one is available, otherwise a fresh goroutine runs
// it (and, via runCommands, every dependent it unblocks in sequence).
func (x *executor) fire(c *Event) {
	if !x.offer(c) {
		go runCommands(c)
	}
}

// runCommands executes c, completes it, and chains into one dependent that
// became runnable (firing any others): a linear pipeline of N dependent
// commands runs on a single goroutine with no per-command spawns or parks.
// A kernel whose work-groups are still running on pool workers when this
// goroutine has none left to run is not waited for: the worker that finishes
// the last group completes the launch and carries the chain on from there.
func runCommands(c *Event) {
	for c != nil {
		var err error
		c.mu.Lock()
		derr := c.depErr
		c.mu.Unlock()
		switch {
		case derr != nil:
			err = fmt.Errorf("%s: dependency failed: %w", c.name, derr)
		case c.launch != nil:
			c.launch.start = time.Now()
			if !c.launch.help(c.q.dev.executor(), &c.launch.own) {
				return
			}
			err = c.launch.finish()
		default:
			start := time.Now()
			err = c.work()
			c.measured(start)
		}
		c = c.finished(err)
	}
}

// measured records a real device's execution time of the command.
func (c *Event) measured(start time.Time) {
	if dev := c.q.dev; !dev.Simulated {
		dur := time.Since(start)
		c.mu.Lock()
		c.realDur = dur
		c.mu.Unlock()
		dev.advanceReal(dur)
	}
}

// finished completes the command's event, fires all but one of the commands
// that became runnable and returns that one for the caller to run itself.
func (c *Event) finished(err error) *Event {
	next, more := c.complete(err)
	c.q.forget(c, err)
	for _, r := range more {
		r.q.dev.executor().fire(r)
	}
	return next
}
