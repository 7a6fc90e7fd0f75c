package cl

import (
	"runtime"
	"strconv"
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

// TestLocalFreeListBoundedAcrossGeometries launches the two shapes a tile
// program takes on an 8-core CPU — one group holding every core's local
// memory (a launch below the grain) and one group per core holding one
// core's — and bounds what the local-memory free-list keeps: one buffer after
// the one-group launch, and no more than both launches ask for at once after
// any number of rounds of the two.
func TestLocalFreeListBoundedAcrossGeometries(t *testing.T) {
	dev := NewCPUDevice(8)
	q := NewQueue(NewContext(dev))
	coreWords := dev.Const.LocalMemSize / 4
	held := func() (bytes int) {
		x := dev.executor()
		x.localMu.Lock()
		defer x.localMu.Unlock()
		for _, s := range x.localFree {
			bytes += 4 * cap(s)
		}
		return bytes
	}
	run := func(n int) {
		groups, local := WorkLaunch(dev, n)
		words := coreWords * local / (4 * dev.Const.UnitsPerCore)
		ev := q.EnqueueKernel(func(th *Thread) {
			th.LocalU32()[th.Local] = 1
		}, Launch{Name: "tiles", Groups: groups, Local: local, LocalWords: words})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	whole := dev.Const.Cores * dev.Const.LocalMemSize
	run(1)
	if b := held(); b != whole {
		t.Fatalf("after a one-group launch the free-list holds %d bytes, want one %d-byte buffer", b, whole)
	}
	for range 10 {
		run(1 << 20)
		run(1)
	}
	if b := held(); b > 2*whole {
		t.Fatalf("after alternating geometries the free-list holds %d bytes, want at most %d", b, 2*whole)
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
// stop spinning within a few spin windows and, parked, exit on their own
// after the idle timeout — an idle device holds no goroutines even without
// an explicit Close.
func TestPoolWorkersRetireWhenIdle(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the worker idle timeout")
	}
	dev := NewCPUDevice(4)
	q := NewQueue(NewContext(dev))
	burst(t, q, Launch{Name: "fan", Groups: 8, Local: 4})
	x := dev.executor()
	waitNoSpinner(t)
	deadline := time.Now().Add(workerIdleTimeout + 5*time.Second)
	for x.liveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive well past the idle timeout", x.liveWorkers())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// burst runs 50 rounds of four launches of geometry l, some fired on the
// pool by a gate and some ready at enqueue, with gaps shorter and longer
// than a spin window between rounds, so that workers spin, park and wake.
func burst(t *testing.T, q *Queue, l Launch) {
	t.Helper()
	for i := 0; i < 50; i++ {
		gate, open := gated(q)
		gl := l
		gl.Wait = []*Event{gate}
		evs := []*Event{q.EnqueueKernel(func(*Thread) {}, gl), q.EnqueueKernel(func(*Thread) {}, gl)}
		open()
		evs = append(evs, q.EnqueueKernel(func(*Thread) {}, l), q.EnqueueKernel(func(*Thread) {}, l))
		if err := WaitAll(evs...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(i%3) * spinWindow)
	}
}

// waitNoSpinner fails unless, within a few spin windows, no worker of any
// device is spinning.
func waitNoSpinner(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(50 * spinWindow); spinners.Load() != 0; time.Sleep(spinWindow / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still spinning %v after the last launch", spinners.Load(), 50*spinWindow)
		}
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

// gated returns an incomplete event and the function that completes it. A
// launch that waits on it is fired by the completion on a pool worker,
// instead of running on the goroutine that enqueues it.
func gated(q *Queue) (*Event, func()) {
	ch := make(chan struct{})
	return q.EnqueueHost("gate", func() error { <-ch; return nil }, nil), func() { close(ch) }
}

// warmPool runs one launch with a group per core on the pool and waits until
// every worker of the device exists.
func warmPool(t *testing.T, q *Queue) *executor {
	t.Helper()
	gate, open := gated(q)
	ev := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "warm", Wait: []*Event{gate}})
	open()
	if err := ev.Wait(); err != nil {
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

// listedLaunch returns a launch with unclaimed groups on the executor's
// list, or nil.
func listedLaunch(x *executor) *Event {
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range x.list {
		if !c.exhausted() && !c.queuedCommand() {
			return c
		}
	}
	return nil
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
// cannot. Both launches wait on a gate, so that a completion fires them on
// the pool rather than on the test's goroutine.
func TestSecondWorkerArrives(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	warmPool(t, q)
	two := Launch{Name: "two", Groups: 2, Local: 1}
	for i := 0; i < 1000; i++ {
		var arrived atomic.Bool
		missed := false // written by group 0 only, read after Wait
		gate, open := gated(q)
		first := two
		first.Wait = []*Event{gate}
		before := q.EnqueueKernel(func(*Thread) {}, first)
		rendezvous := two
		rendezvous.Wait = []*Event{before}
		ev := q.EnqueueKernel(func(th *Thread) {
			if th.Group == 1 {
				arrived.Store(true)
			} else if !waitFor(&arrived) {
				missed = true
			}
		}, rendezvous)
		open()
		if err := ev.Wait(); err != nil {
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
// nothing, completes nothing, and forgets it. Both launches wait on a gate,
// so that a completion fires them on the pool.
func TestStaleOpenLaunchIsHarmless(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	x := warmPool(t, q)
	var ran atomic.Int32
	gate, open := gated(q)
	ev := q.EnqueueKernel(func(*Thread) { ran.Add(1) }, Launch{Name: "done", Groups: 2, Local: 1, Wait: []*Event{gate}})
	open()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	stats := q.dev.ExecutorStats()
	x.mu.Lock()
	x.setListLocked(append(x.list, ev))
	x.mu.Unlock()
	var th Thread
	ev.launch.runInPool(x, &th) // a worker that read the list before the prune
	x.wake <- struct{}{}
	gate, open = gated(q)
	last := q.EnqueueKernel(func(*Thread) { ran.Add(1) }, Launch{Name: "after", Groups: 2, Local: 1, Wait: []*Event{gate}})
	open()
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 4 {
		t.Fatalf("work-items ran %d times, want 4", n)
	}
	after := q.dev.ExecutorStats()
	if got := after.Shared + after.Alone - stats.Shared - stats.Alone; got != 1 {
		t.Fatalf("%d launches completed after the stale entry was listed, want 1", got)
	}
	if c := listedLaunch(x); c != nil {
		t.Fatalf("exhausted launch %q still listed as open", c.name)
	}
}

// TestCloseWithLaunchOpen: Close waits for the workers inside an open launch
// and returns once it is done; the launch completes and the device restarts
// its pool for the next one. The launch waits on a gate, so that both of its
// groups run on workers.
func TestCloseWithLaunchOpen(t *testing.T) {
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	warmPool(t, q)
	var inside, release atomic.Bool
	var ran atomic.Int32
	gate, open := gated(q)
	ev := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 1 {
			inside.Store(true)
		}
		waitFor(&release)
		ran.Add(1)
	}, Launch{Name: "held", Groups: 2, Local: 1, Wait: []*Event{gate}})
	open()
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
// and its dependents, and the worker survives it. The launch waits on a
// gate, so that a completion fires it on the pool.
func TestPanicInRecruitedGroupAbortsOnce(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	warmPool(t, q)
	before := q.dev.ExecutorStats()
	var recruited atomic.Bool
	gate, open := gated(q)
	bad := q.EnqueueKernel(func(th *Thread) {
		if th.Group == 1 {
			recruited.Store(true)
			panic("recruit exploded")
		}
		if !waitFor(&recruited) {
			t.Error("group 1 was not run by a second goroutine")
		}
	}, Launch{Name: "half", Groups: 2, Local: 1, Wait: []*Event{gate}})
	open()
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
	if listedLaunch(x) != nil {
		t.Fatal("a one-group launch was listed as open")
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() int {
	var buf [64]byte
	id, _ := strconv.Atoi(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1])
	return id
}

// TestReadyLaunchRunsOnEnqueuingGoroutine: a launch whose wait-list is
// complete runs on the goroutine that enqueues it — its first group there,
// and a one-group launch entirely, before EnqueueKernel returns.
func TestReadyLaunchRunsOnEnqueuingGoroutine(t *testing.T) {
	for _, groups := range []int{1, 2} {
		dev := NewCPUDevice(2)
		q := NewQueue(NewContext(dev))
		me := goid()
		var first atomic.Int64
		ev := q.EnqueueKernel(func(th *Thread) {
			if th.Group == 0 {
				first.Store(int64(goid()))
			}
		}, Launch{Name: "ready", Groups: groups, Local: 1, Wait: []*Event{CompletedEvent(nil)}})
		if groups == 1 && !ev.Done() {
			t.Fatal("a ready one-group launch had not completed when EnqueueKernel returned")
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int(first.Load()); got != me {
			t.Fatalf("%d groups: group 0 ran on goroutine %d, not the enqueuing %d", groups, got, me)
		}
		if s := dev.ExecutorStats(); s.Inline != 1 {
			t.Fatalf("%d groups: executor stats %+v, want 1 inline launch", groups, s)
		}
		dev.Close()
	}
}

// TestPendingLaunchReturnsBeforeRunning: a launch with an incomplete
// dependency is only registered by EnqueueKernel; the completion of the
// dependency runs it, off the enqueuing goroutine.
func TestPendingLaunchReturnsBeforeRunning(t *testing.T) {
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	gate, open := gated(q)
	var ran atomic.Bool
	ev := q.EnqueueKernel(func(*Thread) { ran.Store(true) }, Launch{Name: "pending", Groups: 1, Local: 1, Wait: []*Event{gate}})
	if ran.Load() || ev.Done() {
		t.Fatal("a launch ran before its dependency completed")
	}
	open()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("the launch completed without running")
	}
	if s := dev.ExecutorStats(); s.Inline != 0 {
		t.Fatalf("executor stats %+v, want no inline launch", s)
	}
	dev.Close()
}

// TestSpinningWorkersCapped: the simulated GPU has seven workers, but with
// two processors at most one of them spins at a time, so the other processor
// stays free for a runnable goroutine.
func TestSpinningWorkersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	waitNoSpinner(t)
	dev := NewGPUDevice(0)
	q := NewQueue(NewContext(dev))
	var peak atomic.Int32
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := spinners.Load(); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	burst(t, q, Launch{Name: "wide", Local: 4})
	close(stop)
	<-sampled
	if n := dev.executor().liveWorkers(); n < 2 {
		t.Fatalf("%d workers: the bursts never needed a second one", n)
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("%d workers spun at once with GOMAXPROCS 2, want at most 1", p)
	}
	dev.Close()
}
