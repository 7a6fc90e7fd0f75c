package cl

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestQueuePendingStaysBounded is the regression guard for the seed's
// unbounded Queue.pending growth: completed commands must be dropped eagerly
// by the scheduler, not accumulated until the next Finish. Across 10k
// enqueues the tracking set may only ever hold commands actually in flight.
func TestQueuePendingStaysBounded(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	var ev *Event
	const total, batch = 10000, 100
	for i := 0; i < total; i++ {
		ev = q.EnqueueHost("tick", func() error { return nil }, []*Event{ev})
		if (i+1)%batch == 0 {
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			// Everything enqueued so far has completed; allow a little slack
			// for forget() racing the Wait wake-up.
			if n := q.PendingCommands(); n > 16 {
				t.Fatalf("after %d enqueues: %d commands still tracked, want ~0", i+1, n)
			}
		}
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := q.PendingCommands(); n != 0 {
		t.Fatalf("after Finish: %d commands tracked, want 0", n)
	}
}

// TestPoolReusesLocalMemory asserts the executor's local-memory free-list is
// hit across launches instead of allocating a fresh slice per work-group.
func TestPoolReusesLocalMemory(t *testing.T) {
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	for i := 0; i < 8; i++ {
		ev := q.EnqueueKernel(func(th *Thread) {
			lm := th.LocalU32()
			if th.Local == 0 {
				// Local memory is shared within the group; only the first
				// item (items run sequentially without Barriers) sees it
				// in its freshly zeroed state.
				for j := range lm {
					if lm[j] != 0 {
						t.Errorf("local memory not zeroed at word %d", j)
						return
					}
				}
			}
			lm[th.Local] = uint32(th.Global) + 1
		}, Launch{Name: "localtouch", LocalWords: 64})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if n := dev.executor().localReuses.Load(); n == 0 {
		t.Fatal("local-memory free-list was never hit across 8 launches")
	}
}

// TestPoolWorkersDrainOnCloseAndRestart: Close drains the worker pool, and
// the pool restarts lazily so the device stays usable afterwards.
func TestPoolWorkersDrainOnCloseAndRestart(t *testing.T) {
	dev := NewCPUDevice(4)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	buf, err := ctx.CreateBuffer(64 * 4)
	if err != nil {
		t.Fatal(err)
	}
	s := buf.I32()
	launch := Launch{Name: "fan", Groups: 8, Local: 8}
	if err := q.EnqueueKernel(func(th *Thread) {
		AtomicAddI32(&s[th.Global%64], 1)
	}, launch).Wait(); err != nil {
		t.Fatal(err)
	}
	x := dev.executor()
	if n := x.liveWorkers(); n == 0 {
		t.Fatal("multi-group launch recruited no pool workers")
	}
	dev.Close()
	if n := x.liveWorkers(); n != 0 {
		t.Fatalf("%d workers alive after Close, want 0", n)
	}
	// The device restarts its pool lazily and keeps working.
	if err := q.EnqueueKernel(func(th *Thread) {
		AtomicAddI32(&s[th.Global%64], 1)
	}, launch).Wait(); err != nil {
		t.Fatalf("launch after Close: %v", err)
	}
	if s[0] != 2 {
		t.Fatalf("work lost across Close: s[0] = %d, want 2", s[0])
	}
	dev.Close()
}

// TestPoolWorkersRetireWhenIdle: with no work, the lazily started workers
// exit on their own after the idle timeout — an idle device holds no
// goroutines even without an explicit Close.
func TestPoolWorkersRetireWhenIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the worker idle timeout")
	}
	dev := NewCPUDevice(4)
	q := NewQueue(NewContext(dev))
	if err := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "fan", Groups: 8, Local: 4}).Wait(); err != nil {
		t.Fatal(err)
	}
	x := dev.executor()
	deadline := time.Now().Add(workerIdleTimeout + 5*time.Second)
	for x.liveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive well past the idle timeout", x.liveWorkers())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPanicInPooledGroupPropagates: a panic in one work-group of a pooled
// multi-group launch fails the launch, other groups still run, and the
// failure propagates to dependent commands as a dependency error.
func TestPanicInPooledGroupPropagates(t *testing.T) {
	dev := NewCPUDevice(4)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	buf, _ := ctx.CreateBuffer(4)
	s := buf.I32()
	bad := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 3 && th.Local == 0 {
			panic("group 3 exploded")
		}
		if th.Local == 0 {
			AtomicAddI32(&s[0], 1)
		}
	}, Launch{Name: "partial", Groups: 8, Local: 4})
	err := bad.Wait()
	if err == nil || !strings.Contains(err.Error(), "group 3 exploded") {
		t.Fatalf("want panic error from launch, got %v", err)
	}
	if got := s[0]; got != 7 {
		t.Fatalf("surviving groups ran %d times, want 7", got)
	}
	after := q.EnqueueKernel(func(*Thread) { AtomicAddI32(&s[0], 100) },
		Launch{Name: "dependent", Wait: []*Event{bad}})
	if err := after.Wait(); err == nil || !strings.Contains(err.Error(), "dependency failed") {
		t.Fatalf("dependent of failed launch: got %v, want dependency failure", err)
	}
	if s[0] != 7 {
		t.Fatal("dependent command ran despite failed dependency")
	}
}

// TestBrokenBarrierAbortsAcrossPooledGroups: a panicking work-item breaks
// its group's barrier (siblings unwind instead of deadlocking) while other
// groups of the pooled launch complete their barrier rounds normally.
func TestBrokenBarrierAbortsAcrossPooledGroups(t *testing.T) {
	dev := NewCPUDevice(2)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	buf, _ := ctx.CreateBuffer(4)
	s := buf.I32()
	ev := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 1 && th.Local == 2 {
			panic("sabotage")
		}
		th.Barrier()
		if th.Local == 0 {
			AtomicAddI32(&s[0], 1)
		}
		th.Barrier()
	}, Launch{Name: "multi_barrier", Groups: 4, Local: 4, Barriers: true})
	done := make(chan error, 1)
	go func() { done <- ev.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "sabotage") {
			t.Fatalf("want sabotage panic error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pooled barrier launch deadlocked after work-item panic")
	}
	if got := s[0]; got != 3 {
		t.Fatalf("%d healthy groups passed their barriers, want 3", got)
	}
}

// TestDeviceCloseIdempotentAndConcurrentSafe exercises Close without any
// prior launch and twice in a row.
func TestDeviceCloseIdempotentAndConcurrentSafe(t *testing.T) {
	dev := NewCPUDevice(2)
	dev.Close()
	dev.Close()
	q := NewQueue(NewContext(dev))
	if err := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "afterclose"}).Wait(); err != nil {
		t.Fatal(err)
	}
}

// warmPool runs one launch with a group per core and waits until every
// worker of the device exists.
func warmPool(t *testing.T, q *Queue) *executor {
	t.Helper()
	if err := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "warm"}).Wait(); err != nil {
		t.Fatal(err)
	}
	x := q.dev.executor()
	for deadline := time.Now().Add(10 * time.Second); x.liveWorkers() < x.maxWorkers(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("pool has %d workers, want %d", x.liveWorkers(), x.maxWorkers())
		}
	}
	return x
}

// waitFor yields until flag is set and reports whether that happened within
// the bound.
func waitFor(flag *atomic.Bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !flag.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSecondWorkerArrives: group 0 of a two-group launch cannot finish until
// somebody else runs group 1, so every repetition needs the second worker of
// a two-core device to arrive while the first is inside the launch. The
// launch is chained on a trivial two-group one, which puts the other worker
// where the old hand-off missed it: just done with a group, a few
// instructions short of parking. With recruiting by hand-off to an already
// parked worker (the parent of the commit that added this test) the offer is
// lost there, group 0 waits out the bound and the test fails within the
// first few repetitions at every GOMAXPROCS; with open launches listed it
// cannot.
func TestSecondWorkerArrives(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	warmPool(t, q)
	two := Launch{Name: "two", Groups: 2, Local: 1}
	for i := 0; i < 1000; i++ {
		var arrived atomic.Bool
		missed := false // written by group 0 only, read after Wait
		before := q.EnqueueKernel(func(*Thread) {}, two)
		rendezvous := two
		rendezvous.Wait = []*Event{before}
		if err := q.EnqueueKernel(func(th *Thread) {
			if th.Group == 1 {
				arrived.Store(true)
			} else if !waitFor(&arrived) {
				missed = true
			}
		}, rendezvous).Wait(); err != nil {
			t.Fatal(err)
		}
		if missed {
			t.Fatalf("repetition %d: group 1 was not claimed while group 0 ran: no second worker arrived", i)
		}
	}
	if s := q.dev.ExecutorStats(); s.Shared < 1000 {
		t.Fatalf("%+v: the 1000 rendezvous launches alone ran on two goroutines each", s)
	}
}

// TestStaleOpenLaunchIsHarmless: a worker that meets a launch in the open
// list after its last group was claimed — or after it completed — claims
// nothing, completes nothing, and forgets it.
func TestStaleOpenLaunchIsHarmless(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	x := warmPool(t, q)
	var ran atomic.Int32
	ev := q.EnqueueKernel(func(*Thread) { ran.Add(1) }, Launch{Name: "done", Groups: 2, Local: 1})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	stats := q.dev.ExecutorStats()
	x.mu.Lock()
	x.open = append(x.open, ev.launch)
	x.mu.Unlock()
	var th Thread
	ev.launch.runInPool(x, &th) // a worker that read the list before the prune
	x.wake <- struct{}{}
	if err := q.EnqueueKernel(func(*Thread) { ran.Add(1) }, Launch{Name: "after", Groups: 2, Local: 1}).Wait(); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("work-items ran %d times, want 4", n)
	}
	after := q.dev.ExecutorStats()
	if got := after.Shared + after.Alone - stats.Shared - stats.Alone; got != 1 {
		t.Fatalf("%d launches completed after the stale entry was listed, want 1", got)
	}
	if r := x.nextOpen(false); r != nil {
		t.Fatalf("exhausted launch %q still listed as open", r.name)
	}
}

// TestCloseWithLaunchOpen: Close waits for the workers inside an open launch
// and returns once it is done; the launch completes and the device restarts
// its pool for the next one.
func TestCloseWithLaunchOpen(t *testing.T) {
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	warmPool(t, q)
	var inside, release atomic.Bool
	var ran atomic.Int32
	ev := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 1 {
			inside.Store(true)
		}
		waitFor(&release)
		ran.Add(1)
	}, Launch{Name: "held", Groups: 2, Local: 1})
	if !waitFor(&inside) {
		t.Fatal("group 1 never started")
	}
	closed := make(chan struct{})
	go func() { dev.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a worker was inside a launch")
	case <-time.After(20 * time.Millisecond):
	}
	release.Store(true)
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the open launch finished")
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d groups ran, want 2", n)
	}
	warmPool(t, q)
	dev.Close()
}

// TestPanicInRecruitedGroupAbortsOnce: the panic of a group that a recruited
// worker runs fails the launch — completed once, by whoever finishes last —
// and its dependents, and the worker survives it.
func TestPanicInRecruitedGroupAbortsOnce(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	warmPool(t, q)
	before := q.dev.ExecutorStats()
	var recruited atomic.Bool
	bad := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 1 {
			recruited.Store(true)
			panic("recruit exploded")
		}
		if !waitFor(&recruited) {
			t.Error("group 1 was not run by a second goroutine")
		}
	}, Launch{Name: "half", Groups: 2, Local: 1})
	if err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "recruit exploded") {
		t.Fatalf("want the recruit's panic from the launch, got %v", err)
	}
	after := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "dependent", Wait: []*Event{bad}})
	if err := after.Wait(); err == nil || !strings.Contains(err.Error(), "dependency failed") {
		t.Fatalf("dependent of failed launch: got %v, want dependency failure", err)
	}
	if s := q.dev.ExecutorStats(); s.Shared-before.Shared != 1 || s.Alone != before.Alone {
		t.Fatalf("executor stats %+v after %+v: want exactly one more shared launch", s, before)
	}
	warmPool(t, q)
}

// TestOneGroupLaunchWakesNobody: a chain of one-group launches runs on the
// goroutine that carries the chain and recruits nobody. Only the gate is
// offered to the pool (which starts the first worker); a recruit would have
// found the pool below its size and started the second.
func TestOneGroupLaunchWakesNobody(t *testing.T) {
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	gate := make(chan struct{})
	ev := q.EnqueueHost("gate", func() error { <-gate; return nil }, nil)
	for i := 0; i < 100; i++ {
		ev = q.EnqueueKernel(func(*Thread) {}, Launch{Name: "one", Groups: 1, Local: 4, Wait: []*Event{ev}})
	}
	close(gate)
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	x := dev.executor()
	if n := x.liveWorkers(); n != 1 {
		t.Fatalf("%d workers after a chain of one-group launches, want the 1 that carried it", n)
	}
	if s := dev.ExecutorStats(); s != (ExecutorStats{}) {
		t.Fatalf("executor stats %+v, want all zero", s)
	}
	if r := x.nextOpen(false); r != nil {
		t.Fatal("a one-group launch was listed as open")
	}
}
