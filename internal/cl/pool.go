package cl

import (
	"fmt"
	"slices"
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
//     launching goroutine and by every worker with nothing else to do: a
//     launch of several groups is listed as open until its cursor is
//     exhausted, a worker looks at the list before it parks and is woken when
//     it grows, so an unclaimed group waits on an idle worker for one wake-up
//     at most. A one-group launch lists nothing and wakes nobody.
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

// executor is the persistent per-device worker pool.
type executor struct {
	dev *Device

	// tasks hands a ready command to a parked worker: unbuffered, so a send
	// succeeds only when a worker is parked on the other side, and fire
	// never blocks and never queues a command behind a busy pool.
	tasks chan *Event
	// wake holds a token per worker that must look at open again before parking.
	wake chan struct{}
	quit chan struct{}

	mu      sync.Mutex
	workers int
	closed  bool
	// open lists the running launches that may have unclaimed groups, oldest
	// first; exhausted ones are dropped by whoever holds mu next.
	open []*launchRun
	wg   sync.WaitGroup

	// localFree recycles work-group local-memory scratch across launches.
	localMu   sync.Mutex
	localFree [][]uint32

	// localReuses counts free-list hits (introspection for tests).
	localReuses atomic.Int64
}

func newExecutor(d *Device) *executor {
	x := &executor{
		dev:   d,
		tasks: make(chan *Event),
		quit:  make(chan struct{}),
	}
	x.wake = make(chan struct{}, x.maxWorkers())
	return x
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

// spawn starts a worker on c (nil: on whatever is open) unless the pool is
// closed or has a worker per core already.
func (x *executor) spawn(c *Event) bool {
	x.mu.Lock()
	ok := !x.closed && x.workers < x.maxWorkers()
	if ok {
		x.workers++
		x.wg.Add(1)
	}
	x.mu.Unlock()
	if ok {
		go x.worker(c)
	}
	return ok
}

// recruit brings one more worker to r, which has unclaimed groups. The
// launching goroutine lists r as open first, where every worker looks before
// it parks; a missing worker is spawned, a parked one woken by the token.
// Every claim that leaves further groups outstanding recruits again: a wide
// launch's wake-ups spread 1 → 2 → 4 over the pool, a two-group one costs one.
func (x *executor) recruit(r *launchRun, list bool) {
	if list {
		x.mu.Lock()
		x.open = append(slices.DeleteFunc(x.open, (*launchRun).exhausted), r)
		x.mu.Unlock()
	}
	if !x.spawn(nil) {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// nextOpen returns the oldest launch with an unclaimed group, or nil. A
// retiring worker leaves the pool under the lock it looked under, so a launch
// listed an instant later finds the pool short of a worker and spawns one.
func (x *executor) nextOpen(retiring bool) *launchRun {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.open = slices.DeleteFunc(x.open, (*launchRun).exhausted)
	if len(x.open) > 0 {
		return x.open[0]
	}
	if retiring {
		x.workers--
	}
	return nil
}

func (x *executor) worker(first *Event) {
	defer x.wg.Done()
	var t Thread // reused by every work-group this worker ever runs
	runCommands(first)
	// No Stop-and-drain before Reset: go.mod's go1.24 timers leave no stale tick.
	timer := time.NewTimer(workerIdleTimeout)
	defer timer.Stop()
	for retiring := false; ; {
		if r := x.nextOpen(retiring); r != nil {
			r.runInPool(x, &t)
			continue
		}
		if retiring {
			return
		}
		timer.Reset(workerIdleTimeout)
		select {
		case c := <-x.tasks:
			runCommands(c)
		case <-x.wake:
		case <-x.quit:
			retiring = true
		case <-timer.C:
			retiring = true
		}
	}
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

// fire starts a runnable command without blocking the caller: a parked pool
// worker picks it up when one is available, or one is spawned if the pool is
// below the device's core count; otherwise a fresh goroutine runs it (and,
// via runCommands, every dependent it unblocks in sequence).
func (x *executor) fire(c *Event) {
	select {
	case x.tasks <- c:
	default:
		if !x.spawn(c) {
			x.dev.unpooledCommands.Add(1)
			go runCommands(c)
		}
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
