package cl

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mem"
)

func devices() []*Device {
	return []*Device{NewCPUDevice(4), NewGPUDevice(64 << 20)}
}

func TestDeviceDefaults(t *testing.T) {
	cpu := NewCPUDevice(0)
	if cpu.Const.Cores <= 0 {
		t.Fatal("CPU device must default to >0 cores")
	}
	if cpu.Discrete || cpu.Simulated {
		t.Fatal("CPU device must be host-resident and real-timed")
	}
	gpu := NewGPUDevice(0)
	if gpu.GlobalMemSize != 2<<30 {
		t.Fatalf("GPU default memory = %d, want 2 GiB", gpu.GlobalMemSize)
	}
	if !gpu.Discrete || !gpu.Simulated {
		t.Fatal("GPU device must be discrete and simulated")
	}
	if g, l := DefaultLaunch(gpu); g != 7 || l != 4*48 {
		t.Fatalf("GPU default launch = (%d,%d), want (7,192) per §4.2", g, l)
	}
	if g, l := DefaultLaunch(cpu); g != cpu.Const.Cores || l != 8 {
		t.Fatalf("CPU default launch = (%d,%d), want (%d,8)", g, l, cpu.Const.Cores)
	}
}

func TestSimpleKernelOnAllDevices(t *testing.T) {
	// The paper's Listing 1: res[i] = inp[i] + cnst, identical source on
	// every device.
	for _, dev := range devices() {
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		const n = 10000
		host := mem.AllocI32(n)
		for i := range host {
			host[i] = int32(i)
		}
		inp, err := ctx.CreateBufferFromHost(mem.BytesOfI32(host))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ctx.CreateBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		in, out := inp.I32(), res.I32()
		const cnst = int32(7)
		ev := q.EnqueueKernel(func(th *Thread) {
			lo, hi, step := th.Span(n)
			for i := lo; i < hi; i += step {
				out[i] = in[i] + cnst
			}
		}, Launch{Name: "add_const", Cost: Cost{BytesStreamed: 8 * n}})
		if err := ev.Wait(); err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		for i := 0; i < n; i++ {
			if out[i] != int32(i)+cnst {
				t.Fatalf("%s: out[%d] = %d, want %d", dev.Name, i, out[i], int32(i)+cnst)
			}
		}
	}
}

func TestSpanCoversExactlyOnce(t *testing.T) {
	for _, dev := range devices() {
		for _, n := range []int{0, 1, 7, 64, 1000, 12345} {
			ctx := NewContext(dev)
			q := NewQueue(ctx)
			buf, err := ctx.CreateBuffer(4 * (n + 1))
			if err != nil {
				t.Fatal(err)
			}
			s := buf.I32()
			ev := q.EnqueueKernel(func(th *Thread) {
				lo, hi, step := th.Span(n)
				for i := lo; i < hi; i += step {
					AtomicAddI32(&s[i], 1)
				}
			}, Launch{Name: "cover"})
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if s[i] != 1 {
					t.Fatalf("%s n=%d: element %d visited %d times", dev.Name, n, i, s[i])
				}
			}
		}
	}
}

func TestGroupAndLocalSpanCover(t *testing.T) {
	for _, dev := range devices() {
		const n = 5003
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		buf, _ := ctx.CreateBuffer(4 * n)
		s := buf.I32()
		ev := q.EnqueueKernel(func(th *Thread) {
			glo, ghi := th.GroupSpan(n)
			lo, hi, step := th.LocalSpan(glo, ghi)
			for i := lo; i < hi; i += step {
				AtomicAddI32(&s[i], 1)
			}
		}, Launch{Name: "groupcover"})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if s[i] != 1 {
				t.Fatalf("%s: element %d visited %d times", dev.Name, i, s[i])
			}
		}
	}
}

func TestBarrierAndLocalMemoryReduction(t *testing.T) {
	// Tree reduction in local memory: the classic barrier-dependent kernel.
	for _, dev := range devices() {
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		const n = 1 << 14
		in, _ := ctx.CreateBuffer(4 * n)
		src := in.I32()
		var want int64
		for i := range src {
			src[i] = int32(i % 97)
			want += int64(i % 97)
		}
		groups, local := DefaultLaunch(dev)
		out, _ := ctx.CreateBuffer(4 * groups)
		partial := out.I32()
		ev := q.EnqueueKernel(func(th *Thread) {
			lmem := th.LocalI32()
			glo, ghi := th.GroupSpan(n)
			lo, hi, step := th.LocalSpan(glo, ghi)
			var sum int32
			for i := lo; i < hi; i += step {
				sum += src[i]
			}
			lmem[th.Local] = sum
			th.Barrier()
			for w := th.LocalSize; w > 1; {
				half := (w + 1) / 2
				if th.Local < w/2 {
					lmem[th.Local] += lmem[th.Local+half]
				}
				th.Barrier()
				w = half
			}
			if th.Local == 0 {
				partial[th.Group] = lmem[0]
			}
		}, Launch{Name: "reduce", Barriers: true, LocalWords: local, Groups: groups, Local: local})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		var got int64
		for _, p := range partial {
			got += int64(p)
		}
		if got != want {
			t.Fatalf("%s: reduction = %d, want %d", dev.Name, got, want)
		}
	}
}

func TestEventWaitListOrdering(t *testing.T) {
	for _, dev := range devices() {
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		buf, _ := ctx.CreateBuffer(4)
		s := buf.I32()
		// Chain of dependent kernels: each multiplies by 3 then adds 1.
		var ev *Event
		for k := 0; k < 20; k++ {
			ev = q.EnqueueKernel(func(th *Thread) {
				if th.Global == 0 {
					s[0] = s[0]*3 + 1
				}
			}, Launch{Name: "step", Wait: []*Event{ev}})
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		var want int32
		for k := 0; k < 20; k++ {
			want = want*3 + 1
		}
		if s[0] != want {
			t.Fatalf("%s: dependent chain = %d, want %d", dev.Name, s[0], want)
		}
	}
}

func TestKernelPanicPropagatesAsError(t *testing.T) {
	for _, dev := range devices() {
		q := NewQueue(NewContext(dev))
		ev := q.EnqueueKernel(func(th *Thread) {
			if th.Global == 1 {
				panic("boom")
			}
		}, Launch{Name: "panicky"})
		if err := ev.Wait(); err == nil {
			t.Fatalf("%s: expected error from panicking kernel", dev.Name)
		}
	}
}

func TestKernelPanicWithBarriersDoesNotDeadlock(t *testing.T) {
	for _, dev := range devices() {
		q := NewQueue(NewContext(dev))
		ev := q.EnqueueKernel(func(th *Thread) {
			if th.Global == 0 {
				panic("boom")
			}
			th.Barrier() // siblings must unwind, not deadlock
		}, Launch{Name: "panicky_barrier", Barriers: true})
		done := make(chan error, 1)
		go func() { done <- ev.Wait() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s: expected error", dev.Name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: launch deadlocked after work-item panic", dev.Name)
		}
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	bad := q.EnqueueKernel(func(*Thread) { panic("first") }, Launch{Name: "bad"})
	touched := int32(0)
	after := q.EnqueueKernel(func(*Thread) { atomic.StoreInt32(&touched, 1) },
		Launch{Name: "after", Wait: []*Event{bad}})
	if err := after.Wait(); err == nil {
		t.Fatal("dependent of failed kernel must fail")
	}
	if atomic.LoadInt32(&touched) != 0 {
		t.Fatal("dependent kernel must not run after dependency failure")
	}
}

func TestDeviceMemoryCapacity(t *testing.T) {
	gpu := NewGPUDevice(1 << 20) // 1 MiB
	ctx := NewContext(gpu)
	a, err := ctx.CreateBuffer(700 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateBuffer(700 << 10); !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("expected ErrOutOfDeviceMemory, got %v", err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateBuffer(700 << 10); err != nil {
		t.Fatalf("allocation after release failed: %v", err)
	}
	if err := a.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("double release: got %v", err)
	}
}

func TestZeroCopyOnCPUDevice(t *testing.T) {
	ctx := NewContext(NewCPUDevice(2))
	host := mem.AllocI32(16)
	buf, err := ctx.CreateBufferFromHost(mem.BytesOfI32(host))
	if err != nil {
		t.Fatal(err)
	}
	if !buf.HostAlias() {
		t.Fatal("CPU buffer from host memory must be zero-copy")
	}
	buf.I32()[3] = 99
	if host[3] != 99 {
		t.Fatal("zero-copy buffer does not alias host memory")
	}
	if got := ctx.Device().Allocated(); got != 0 {
		t.Fatalf("zero-copy alias charged %d bytes against device", got)
	}
}

func TestDiscreteBufferCopies(t *testing.T) {
	ctx := NewContext(NewGPUDevice(8 << 20))
	host := mem.AllocI32(16)
	host[0] = 5
	buf, err := ctx.CreateBufferFromHost(mem.BytesOfI32(host))
	if err != nil {
		t.Fatal(err)
	}
	if buf.HostAlias() {
		t.Fatal("discrete-device buffer must not alias host memory")
	}
	host[0] = 1
	if buf.I32()[0] != 5 {
		t.Fatal("discrete buffer shares memory with host")
	}
}

func TestReadWriteTransfers(t *testing.T) {
	for _, dev := range devices() {
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		buf, _ := ctx.CreateBuffer(64)
		src := make([]byte, 64)
		for i := range src {
			src[i] = byte(i)
		}
		w := q.EnqueueWrite(buf, src, nil)
		dst := make([]byte, 64)
		r := q.EnqueueRead(dst, buf, []*Event{w})
		if err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if dst[i] != byte(i) {
				t.Fatalf("%s: transfer round-trip failed at %d", dev.Name, i)
			}
		}
	}
}

func TestVirtualTimelineAdvancesWithCost(t *testing.T) {
	gpu := NewGPUDevice(64 << 20)
	ctx := NewContext(gpu)
	q := NewQueue(ctx)
	before := gpu.TimelineNow()
	ev := q.EnqueueKernel(func(*Thread) {}, Launch{
		Name: "costed",
		Cost: Cost{BytesStreamed: 1 << 30}, // 1 GiB at 100 GB/s ≈ 10 ms
	})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	span := gpu.TimelineNow() - before
	if span < 5*time.Millisecond || span > 50*time.Millisecond {
		t.Fatalf("virtual span = %v, want ≈10ms for 1 GiB at 100 GB/s", span)
	}
	s, e := ev.VirtualSpan()
	if e <= s {
		t.Fatalf("event virtual span (%v,%v) not positive", s, e)
	}
}

func TestVirtualCopyEngineOverlapsCompute(t *testing.T) {
	// A transfer with no dependencies must overlap a concurrent kernel —
	// the reordering freedom of Figure 3.
	gpu := NewGPUDevice(64 << 20)
	ctx := NewContext(gpu)
	q := NewQueue(ctx)
	k := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "long", Cost: Cost{BytesStreamed: 1 << 30}})
	buf, _ := ctx.CreateBuffer(1 << 20)
	tr := q.EnqueueWrite(buf, make([]byte, 1<<20), nil)
	if err := WaitAll(k, tr); err != nil {
		t.Fatal(err)
	}
	ks, _ := k.VirtualSpan()
	ts, te := tr.VirtualSpan()
	_ = ks
	ke, _ := k.VirtualSpan()
	_ = ke
	_, kEnd := k.VirtualSpan()
	if ts >= kEnd {
		t.Fatalf("independent transfer (start %v) serialised after kernel (end %v)", ts, kEnd)
	}
	if te <= ts {
		t.Fatal("transfer has empty span")
	}
}

func TestDependentTransferWaitsOnVirtualTimeline(t *testing.T) {
	gpu := NewGPUDevice(64 << 20)
	ctx := NewContext(gpu)
	q := NewQueue(ctx)
	k := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "producer", Cost: Cost{BytesStreamed: 1 << 28}})
	buf, _ := ctx.CreateBuffer(1 << 20)
	tr := q.EnqueueRead(make([]byte, 1<<20), buf, []*Event{k})
	if err := WaitAll(k, tr); err != nil {
		t.Fatal(err)
	}
	_, kEnd := k.VirtualSpan()
	ts, _ := tr.VirtualSpan()
	if ts < kEnd {
		t.Fatalf("dependent transfer started at %v before producer ended at %v", ts, kEnd)
	}
}

func TestAtomicsF32EmulationConcurrent(t *testing.T) {
	ctx := NewContext(NewCPUDevice(4))
	q := NewQueue(ctx)
	buf, _ := ctx.CreateBuffer(4)
	acc := buf.F32()
	const n = 100000
	ev := q.EnqueueKernel(func(th *Thread) {
		lo, hi, step := th.Span(n)
		for i := lo; i < hi; i += step {
			AtomicAddF32(&acc[0], 1)
		}
	}, Launch{Name: "f32add"})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if acc[0] != n {
		t.Fatalf("atomic float add = %v, want %d", acc[0], n)
	}
}

func TestAtomicMinMax(t *testing.T) {
	ctx := NewContext(NewCPUDevice(4))
	q := NewQueue(ctx)
	buf, _ := ctx.CreateBuffer(16)
	i32 := buf.I32()
	f32 := buf.F32()
	i32[0], i32[1] = 1<<30, -(1 << 30)
	f32[2], f32[3] = 1e30, -1e30
	const n = 8192
	ev := q.EnqueueKernel(func(th *Thread) {
		lo, hi, step := th.Span(n)
		for i := lo; i < hi; i += step {
			v := int32(i*2557%n) - n/2
			AtomicMinI32(&i32[0], v)
			AtomicMaxI32(&i32[1], v)
			AtomicMinF32(&f32[2], float32(v))
			AtomicMaxF32(&f32[3], float32(v))
		}
	}, Launch{Name: "minmax"})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	wantMin, wantMax := int32(1<<30), int32(-(1 << 30))
	for i := 0; i < n; i++ {
		v := int32(i*2557%n) - n/2
		if v < wantMin {
			wantMin = v
		}
		if v > wantMax {
			wantMax = v
		}
	}
	if i32[0] != wantMin || i32[1] != wantMax {
		t.Fatalf("atomic int min/max = %d/%d, want %d/%d", i32[0], i32[1], wantMin, wantMax)
	}
	if f32[2] != float32(wantMin) || f32[3] != float32(wantMax) {
		t.Fatalf("atomic float min/max = %v/%v, want %v/%v", f32[2], f32[3], float32(wantMin), float32(wantMax))
	}
}

func TestQueueFinishCollectsErrors(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	q.EnqueueKernel(func(*Thread) {}, Launch{Name: "good"})
	q.EnqueueKernel(func(*Thread) { panic("bad") }, Launch{Name: "bad"})
	if err := q.Finish(); err == nil {
		t.Fatal("Finish must surface kernel errors")
	}
	if err := q.Finish(); err != nil {
		t.Fatalf("second Finish should be clean, got %v", err)
	}
}

func TestMarkerAndHostCallback(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	var order []string
	var mu atomic.Int32
	k := q.EnqueueKernel(func(th *Thread) {
		if th.Global == 0 {
			mu.Store(1)
		}
	}, Launch{Name: "k"})
	h := q.EnqueueHost("host", func() error {
		if mu.Load() != 1 {
			t.Error("host callback ran before dependency")
		}
		order = append(order, "host")
		return nil
	}, []*Event{k})
	m := q.EnqueueMarker([]*Event{h})
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 {
		t.Fatal("host callback did not run")
	}
}

func TestLaunchPauseIsApplied(t *testing.T) {
	dev := NewCPUDevice(2)
	dev.LaunchPause = 20 * time.Millisecond
	q := NewQueue(NewContext(dev))
	start := time.Now()
	ev := q.EnqueueKernel(func(*Thread) {}, Launch{Name: "paused"})
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("LaunchPause not applied: %v", elapsed)
	}

	// A pause below the timer's granularity must cost about what it says:
	// time.Sleep alone turned 30 µs into over a millisecond. Every batch pays
	// at least its pauses, and the median of several stays within 3x of them:
	// a pause that sleeps misses the bound in every batch, while a neighbour
	// taking the cores for a moment slows only the batches it overlaps.
	const launches, each, batches = 200, 30 * time.Microsecond, 15
	dev.LaunchPause = each
	spent := make([]time.Duration, batches)
	for b := range spent {
		start = time.Now()
		for i := 0; i < launches; i++ {
			ev = q.EnqueueKernel(func(*Thread) {}, Launch{Name: "paused"})
		}
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		spent[b] = time.Since(start)
	}
	slices.Sort(spent)
	if spent[0] < launches*each || spent[batches/2] > 3*launches*each {
		t.Fatalf("batches of %d launches at %v took %v, outside [1x, 3x] of the pauses alone", launches, each, spent)
	}
}

func TestCostModelShapes(t *testing.T) {
	p := &GTX460Perf
	small := p.KernelDuration(Cost{BytesStreamed: 1 << 20})
	large := p.KernelDuration(Cost{BytesStreamed: 1 << 26})
	if large <= small {
		t.Fatal("cost must grow with volume")
	}
	// Contended atomics (few targets) must cost more than spread ones.
	spread := p.KernelDuration(Cost{Atomics: 1 << 20, AtomicTargets: 1 << 20})
	hot := p.KernelDuration(Cost{Atomics: 1 << 20, AtomicTargets: 4})
	if hot <= spread {
		t.Fatal("atomic contention must increase cost")
	}
	// Random access is slower than streaming.
	rnd := p.KernelDuration(Cost{BytesRandom: 1 << 26})
	str := p.KernelDuration(Cost{BytesStreamed: 1 << 26})
	if rnd <= str {
		t.Fatal("random access must be slower than streaming")
	}
	// Multi-pass scales the footprint.
	one := p.KernelDuration(Cost{BytesStreamed: 1 << 24, Passes: 1})
	four := p.KernelDuration(Cost{BytesStreamed: 1 << 24, Passes: 4})
	if four < 3*one {
		t.Fatalf("4 passes (%v) should cost ~4x one pass (%v)", four, one)
	}
}

func TestTransferCounters(t *testing.T) {
	gpu := NewGPUDevice(16 << 20)
	ctx := NewContext(gpu)
	q := NewQueue(ctx)
	buf, _ := ctx.CreateBuffer(1 << 10)
	if err := q.EnqueueWrite(buf, make([]byte, 1<<10), nil).Wait(); err != nil {
		t.Fatal(err)
	}
	n, b := gpu.Transfers()
	if n != 1 || b != 1<<10 {
		t.Fatalf("transfer counters = (%d,%d), want (1,1024)", n, b)
	}
	cpu := NewCPUDevice(2)
	cctx := NewContext(cpu)
	cq := NewQueue(cctx)
	cbuf, _ := cctx.CreateBuffer(1 << 10)
	if err := cq.EnqueueWrite(cbuf, make([]byte, 1<<10), nil).Wait(); err != nil {
		t.Fatal(err)
	}
	if n, _ := cpu.Transfers(); n != 0 {
		t.Fatalf("CPU device must not count PCIe transfers, got %d", n)
	}
}

func TestChunkSpanContiguousOnBothClasses(t *testing.T) {
	// Order-sensitive primitives need contiguous per-item chunks on every
	// device class — ChunkSpan must ignore the access-pattern constant.
	for _, dev := range devices() {
		ctx := NewContext(dev)
		q := NewQueue(ctx)
		const n = 4099
		buf, _ := ctx.CreateBuffer(4 * (n + 1))
		s := buf.I32()
		ev := q.EnqueueKernel(func(th *Thread) {
			lo, hi := th.ChunkSpan(n)
			for i := lo; i < hi; i++ {
				s[i] = int32(th.Global)
			}
		}, Launch{Name: "chunks"})
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		// Each item's region must be one contiguous run, runs ascending.
		prev := int32(-1)
		for i := 0; i < n; i++ {
			if s[i] < prev {
				t.Fatalf("%s: owner ids not monotone at %d: %d after %d", dev.Name, i, s[i], prev)
			}
			prev = s[i]
		}
	}
}

func TestEventDoneNonBlocking(t *testing.T) {
	q := NewQueue(NewContext(NewCPUDevice(2)))
	release := make(chan struct{})
	ev := q.EnqueueHost("slow", func() error {
		<-release
		return nil
	}, nil)
	if ev.Done() {
		t.Fatal("event reported done while work is blocked")
	}
	close(release)
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if !ev.Done() {
		t.Fatal("completed event must report done")
	}
	var nilEv *Event
	if !nilEv.Done() {
		t.Fatal("nil event counts as done")
	}
}

func TestReleasedBufferKeepsCapturedViews(t *testing.T) {
	// The lazy pipeline's contract: Release only affects accounting; views
	// captured before the release keep reading the final content.
	gpu := NewGPUDevice(16 << 20)
	ctx := NewContext(gpu)
	buf, _ := ctx.CreateBuffer(64)
	view := buf.I32()
	view[3] = 42
	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
	if view[3] != 42 {
		t.Fatal("captured view lost its content after release")
	}
	if gpu.Allocated() != 0 {
		t.Fatal("release did not return capacity")
	}
}
