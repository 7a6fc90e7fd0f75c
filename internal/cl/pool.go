package cl

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the host executor: one worker pool for the whole
// process. The paper maps each work-group onto one core (§2.3); here the CPU
// driver and the simulated GPU both run their work-groups on host
// goroutines, so they share the host's processors and draw from one pool.
// The runtime used to spawn one goroutine per enqueued command (parked on its
// wait-list) and fresh goroutines per work-group on every launch — exactly
// the per-launch framework overhead the paper measures against the beta
// Intel OpenCL SDK in §5.3.2 / Figure 7(d). The executor replaces that with:
//
//   - Ready work runs where a thread is already awake. A kernel launch whose
//     wait-list is complete at enqueue runs on the goroutine that enqueues
//     it; every other ready command, and every launch with unclaimed groups,
//     goes on one list that the pool's workers draw from.
//
//   - One worker pool (at most one worker per processor, GOMAXPROCS, started
//     lazily, retired after an idle timeout or an explicit Device.Close).
//     Work-groups of a launch are pulled from a shared atomic cursor by the
//     goroutine that runs the launch and by every worker that draws it from
//     the list. A worker with nothing to do polls the list for spinWindow,
//     yielding between polls, before it parks; at most max(1, GOMAXPROCS−1)
//     poll at once. A parked one is woken by a token when work is listed that
//     no spinning worker will take. A one-group launch lists nothing and
//     wakes nobody.
//
//   - A dependency-counting command scheduler: each command carries a
//     pending-dependency counter and is fired exactly once, by whichever
//     event completion (or the enqueue itself) drops the counter to zero.
//     No goroutine exists for a command until it is runnable, and a linear
//     chain of dependent commands executes on a single goroutine.

// workerIdleTimeout is how long a pool worker stays parked before retiring;
// the pool restarts lazily on the next launch, so an idle process holds no
// workers.
const workerIdleTimeout = 2 * time.Second

// spinWindow is how long an idle worker polls the list before it parks: above
// the 64 µs median (117 µs p90) it takes a parked worker to arrive on a
// two-vCPU host, so work listed within one window of the last costs no
// wake-up, and short enough that an idle engine stops burning CPU at once.
const spinWindow = 100 * time.Microsecond

// maxPoolWorkers bounds the pool whatever GOMAXPROCS says; it sizes the wake
// channel, which must hold a token for every parked worker.
const maxPoolWorkers = 256

// executor is the worker pool behind every device.
type executor struct {
	// wake holds a token per parked worker that must look at the list again
	// before parking. quit is closed while a drain waits for the workers.
	wake chan struct{}
	quit chan struct{}

	mu       sync.Mutex
	workers  int
	draining int // Device.Close calls waiting for the workers to retire
	// list is the work waiting for a thread, oldest first: ready commands
	// fire handed to the pool (removed by the worker that takes one) and
	// running launches that may have unclaimed groups (dropped, once
	// exhausted, by whoever holds mu next). listed mirrors len(list) for the
	// spinning workers, which poll it without the lock.
	list   []*Event
	listed atomic.Int32
	// queued counts the ready commands on list; spinning and parked count
	// the idle workers. fire lists a command only while the idle workers
	// outnumber the queued commands, so every listed command has a worker to
	// come for it; a worker takes queued commands before open launches.
	queued, spinning, parked int
	wg                       sync.WaitGroup
}

// host is the process's executor.
var host = &executor{wake: make(chan struct{}, maxPoolWorkers), quit: make(chan struct{})}

// Close drains the worker pool: idle workers exit and in-flight work is
// waited for. The pool is the host's, shared by every device, and restarts
// lazily on the next launch, so Close is safe at any point; it exists so
// contexts can be torn down without leaving goroutines behind (workers also
// retire on their own after an idle timeout). While a Close waits, ready
// commands start on goroutines of their own.
func (d *Device) Close() { host.drain() }

func (x *executor) drain() {
	x.mu.Lock()
	if x.draining++; x.draining == 1 {
		close(x.quit)
	}
	x.mu.Unlock()
	x.wg.Wait()
	x.mu.Lock()
	if x.draining--; x.draining == 0 {
		x.quit = make(chan struct{})
	}
	x.mu.Unlock()
}

// maxWorkers is the pool's size: a worker per processor.
func maxWorkers() int { return min(runtime.GOMAXPROCS(0), maxPoolWorkers) }

// liveWorkers reports the current pool size (tests).
func (x *executor) liveWorkers() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.workers
}

// spawn starts a worker on c (nil: on whatever is listed) unless a drain is
// waiting or the pool has a worker per processor already.
func (x *executor) spawn(c *Event) bool {
	x.mu.Lock()
	ok := x.draining == 0 && x.workers < maxWorkers()
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

// signalLocked wakes one parked worker, unless every parked worker has a
// token coming already.
func (x *executor) signalLocked() {
	if len(x.wake) < x.parked {
		x.wake <- struct{}{}
	}
}

// setListLocked replaces the list and publishes its length to the spinning
// workers.
func (x *executor) setListLocked(l []*Event) {
	x.list = l
	x.listed.Store(int32(len(l)))
}

// recruit brings one more worker to the launch c, which has unclaimed
// groups. The goroutine that claims its first group lists it, where every
// idle worker looks; a spinning worker finds it by itself, a parked one is
// woken by the token, and with no idle worker free one is spawned. Every
// claim that leaves further groups outstanding recruits again: a wide
// launch's helpers spread 1 → 2 → 4 over the pool, a two-group one costs one.
func (x *executor) recruit(c *Event, list bool) {
	x.mu.Lock()
	if list {
		x.setListLocked(append(slices.DeleteFunc(x.list, (*Event).exhausted), c))
	}
	free := x.spinning+x.parked > x.queued
	if free && x.queued >= x.spinning {
		x.signalLocked()
	}
	x.mu.Unlock()
	if !free {
		x.spawn(nil)
	}
}

// takeLocked returns the oldest queued command, removing it from the list,
// else the oldest launch with an unclaimed group, else nil. A worker that
// retires leaves the pool under the lock it found the list empty under, so
// work listed an instant later finds the pool short of a worker and spawns
// one.
func (x *executor) takeLocked() *Event {
	l := slices.DeleteFunc(x.list, (*Event).exhausted)
	var c *Event
	if i := slices.IndexFunc(l, (*Event).queuedCommand); i >= 0 {
		c = l[i]
		l = slices.Delete(l, i, i+1)
		x.queued--
	} else if len(l) > 0 {
		c = l[0]
	}
	x.setListLocked(l)
	return c
}

func (x *executor) worker(first *Event) {
	defer x.wg.Done()
	var t Thread // reused by every work-group this worker ever runs
	runCommands(first)
	// No Stop-and-drain before Reset: go.mod's go1.24 timers leave no stale tick.
	timer := time.NewTimer(workerIdleTimeout)
	defer timer.Stop()
	x.mu.Lock()
	for retiring, spun := false, false; ; {
		if c := x.takeLocked(); c != nil {
			x.mu.Unlock()
			if c.queuedCommand() {
				runCommands(c)
			} else {
				c.launch.runInPool(&t)
			}
			spun = false
			x.mu.Lock()
			continue
		}
		if retiring {
			x.workers--
			x.mu.Unlock()
			return
		}
		// Spinning never takes the last processor, so it keeps no runnable
		// goroutine waiting.
		if !spun && x.spinning < max(1, runtime.GOMAXPROCS(0)-1) {
			spun = true
			x.spinning++
			x.mu.Unlock()
			for end := time.Now().Add(spinWindow); x.listed.Load() == 0 && time.Now().Before(end); {
				runtime.Gosched()
			}
			x.mu.Lock()
			x.spinning--
			if x.listed.Load() > 0 && x.spinning == 0 {
				// About to take work: wake a parked worker to spin in this
				// one's place, so that the next group listed finds a worker
				// awake.
				x.signalLocked()
			}
			continue
		}
		x.parked++
		quit := x.quit
		x.mu.Unlock()
		timer.Reset(workerIdleTimeout)
		select {
		case <-x.wake:
			spun = false
		case <-quit:
			retiring = true
		case <-timer.C:
			retiring = true
		}
		x.mu.Lock()
		x.parked--
	}
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

// queuedCommand reports that c, taken from the executor's list, is a command
// fire listed rather than a running launch listed as open.
func (c *Event) queuedCommand() bool { return c.launch == nil || c.launch.next.Load() == 0 }

// exhausted reports that c is a launch whose every group has been claimed.
func (c *Event) exhausted() bool { return c.launch != nil && c.launch.exhausted() }

// depDone is called once per registered dependency as it completes; it
// reports whether the command became runnable.
func (c *Event) depDone(err error) bool {
	c.noteDepErr(err)
	return c.pending.Add(-1) == 0
}

// fire starts a runnable command without blocking the caller: it is listed
// for an idle pool worker when one is free for it, or a worker is spawned if
// the pool is below its size; otherwise a fresh goroutine runs it (and, via
// runCommands, every dependent it unblocks in sequence). That goroutine is
// the progress guarantee: a command starts even when every worker is inside
// a long group or blocked in a host callback.
func (x *executor) fire(c *Event) {
	x.mu.Lock()
	if x.spinning+x.parked > x.queued {
		x.queued++
		x.setListLocked(append(x.list, c))
		if x.queued > x.spinning {
			x.signalLocked()
		}
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()
	if !x.spawn(c) {
		c.q.dev.unpooledCommands.Add(1)
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
		case derr != nil && !c.cleanup:
			err = fmt.Errorf("%s: dependency failed: %w", c.name, derr)
		case c.launch != nil:
			c.launch.start = time.Now()
			if !c.launch.help(&c.launch.own) {
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
		host.fire(r)
	}
	return next
}
