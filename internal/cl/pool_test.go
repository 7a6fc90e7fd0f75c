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

// TestPoolWorkersDrainOnCloseAndRestart: Close drains the host's worker
// pool, and the pool restarts lazily so the device stays usable afterwards.
func TestPoolWorkersDrainOnCloseAndRestart(t *testing.T) {
	host.drain()
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
	if n := host.liveWorkers(); n == 0 {
		t.Fatal("multi-group launch recruited no pool workers")
	}
	dev.Close()
	if n := host.liveWorkers(); n != 0 {
		t.Fatalf("%d workers alive after Close, want 0", n)
	}
	// The pool restarts lazily and the device keeps working.
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
	waitNoSpinner(t)
	deadline := time.Now().Add(workerIdleTimeout + 5*time.Second)
	for host.liveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive well past the idle timeout", host.liveWorkers())
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

// waitNoSpinner fails unless, within a few spin windows, no worker is
// spinning.
func waitNoSpinner(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(50 * spinWindow); spinningWorkers() != 0; time.Sleep(spinWindow / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still spinning %v after the last launch", spinningWorkers(), 50*spinWindow)
		}
	}
}

// spinningWorkers reports how many workers are polling the list.
func spinningWorkers() int {
	host.mu.Lock()
	defer host.mu.Unlock()
	return host.spinning
}

// twoProcs gives the test at least two processors for its duration: the
// pool has a worker per processor, and a rendezvous of two groups on two
// workers needs the second.
func twoProcs(t *testing.T) {
	if p := runtime.GOMAXPROCS(0); p < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(p) })
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
// the pool has a worker per core of the device, or per processor if there
// are fewer.
func warmPool(t *testing.T, q *Queue) *executor {
	t.Helper()
	gate, open := gated(q)
	ev := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "warm", Wait: []*Event{gate}})
	open()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	want := min(maxWorkers(), q.dev.Const.Cores)
	for deadline := time.Now().Add(10 * time.Second); host.liveWorkers() < want; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("pool has %d workers, want %d", host.liveWorkers(), want)
		}
	}
	return host
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
// the pool to arrive while the first is inside the launch. The
// launch is chained on a trivial two-group one, which puts the other worker
// where the old hand-off missed it: just done with a group, a few
// instructions short of parking. With recruiting by hand-off to an already
// parked worker (the parent of the commit that added this test) the offer is
// lost there, group 0 waits out the bound and the test fails within the
// first few repetitions at every GOMAXPROCS; with open launches listed it
// cannot. Both launches wait on a gate, so that a completion fires them on
// the pool rather than on the test's goroutine.
func TestSecondWorkerArrives(t *testing.T) {
	twoProcs(t)
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
	ev.launch.runInPool(&th) // a worker that read the list before the prune
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
// and returns once it is done; the launch completes and the pool restarts
// for the next one. The launch waits on a gate, so that both of its groups
// run on workers.
func TestCloseWithLaunchOpen(t *testing.T) {
	twoProcs(t)
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
	twoProcs(t)
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
// offered to the pool, drained first (which starts the first worker); a
// recruit would have found the pool below its size and started the second.
func TestOneGroupLaunchWakesNobody(t *testing.T) {
	twoProcs(t)
	host.drain()
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
	x := host
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

// TestSpinningWorkersCapped: the simulated GPU's seven-group launches
// recruit the whole pool, but with two processors at most one worker spins
// at a time, so the other processor stays free for a runnable goroutine.
func TestSpinningWorkersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	host.drain()
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
			if n := int32(spinningWorkers()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	burst(t, q, Launch{Name: "wide", Local: 4})
	close(stop)
	<-sampled
	if n := host.liveWorkers(); n < 2 {
		t.Fatalf("%d workers: the bursts never needed a second one", n)
	}
	if p := peak.Load(); p > 1 {
		t.Fatalf("%d workers spun at once with GOMAXPROCS 2, want at most 1", p)
	}
	dev.Close()
}

// TestOneExecutorAcrossDevices: a CPU-driver launch and a GPU-model launch,
// busy at once and both with unclaimed groups, recruit from the one host
// pool: live workers never exceed GOMAXPROCS, and spinning ones never exceed
// max(1, GOMAXPROCS−1). (A pool per device held up to 2 + 7 workers here.)
// Each round holds every claimed group until the launches have had time to
// recruit all they could, then lets both finish, so that the workers spin
// between rounds. Both launches wait on a gate, so that completions fire
// them off the test's goroutine.
func TestOneExecutorAcrossDevices(t *testing.T) {
	host.drain()
	procs := runtime.GOMAXPROCS(0)
	queues := []*Queue{NewQueue(NewContext(NewCPUDevice(2))), NewQueue(NewContext(NewGPUDevice(0)))}
	var peakWorkers, peakSpinning int
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			host.mu.Lock()
			peakWorkers, peakSpinning = max(peakWorkers, host.workers), max(peakSpinning, host.spinning)
			host.mu.Unlock()
			runtime.Gosched()
		}
	}()
	for round := 0; round < 5; round++ {
		var release atomic.Bool
		var evs []*Event
		var opens []func()
		for _, q := range queues {
			gate, open := gated(q)
			evs = append(evs, q.EnqueueKernel(func(*Thread) { waitFor(&release) },
				Launch{Name: "busy", Groups: 64, Local: 1, Wait: []*Event{gate}}))
			opens = append(opens, open)
		}
		for _, open := range opens {
			open()
		}
		time.Sleep(20 * time.Millisecond)
		for _, ev := range evs {
			if ev.launch.exhausted() {
				t.Fatalf("round %d: launch on %s ran out of groups while they were held", round, ev.q.dev.Name)
			}
		}
		release.Store(true)
		if err := WaitAll(evs...); err != nil {
			t.Fatal(err)
		}
		time.Sleep(spinWindow / 2)
	}
	close(stop)
	<-sampled
	if peakWorkers > procs {
		t.Fatalf("%d pool workers alive at once with GOMAXPROCS %d", peakWorkers, procs)
	}
	if limit := max(1, procs-1); peakSpinning > limit {
		t.Fatalf("%d workers spun at once with GOMAXPROCS %d, want at most %d", peakSpinning, procs, limit)
	}
	if peakWorkers == 0 {
		t.Fatal("no pool worker ever ran: the check measured nothing")
	}
}
