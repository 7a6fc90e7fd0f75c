package cl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
)

// KernelFunc is the body of a kernel: the operation on (a chunk of) the
// input performed by a single work-item, exactly as in the paper's §2.3. A
// kernel is invoked once per work-item of a launch; it learns its position
// in the NDRange from the Thread, and accesses global memory through the
// buffer slices it closes over.
type KernelFunc func(t *Thread)

// Launch describes the geometry and cost of one kernel launch.
type Launch struct {
	// Name labels the launch for events and diagnostics.
	Name string
	// Groups is the number of work-groups; Local is the work-group size.
	// Zero values select the device's default geometry (see DefaultLaunch).
	Groups, Local int
	// LocalWords is the number of 32-bit words of local (work-group shared)
	// memory to allocate per group.
	LocalWords int
	// Barriers must be set when the kernel calls Thread.Barrier. Work-items
	// of a group then execute as concurrent goroutines synchronised by a
	// cyclic barrier; otherwise the items of a group run sequentially on one
	// goroutine — which is also how work-groups map onto a CPU core (§2.3:
	// "mapping the threads of a single work-group onto the same core").
	Barriers bool
	// Cost is the analytic footprint used by simulated devices.
	Cost Cost
	// Wait lists the events that must complete before the kernel may start.
	Wait []*Event
}

// DefaultLaunch returns the paper's device-dependent scheduling rule (§4.2):
// one work-group per core, each of size 4×n_a, so every kernel is invoked
// exactly 4×n_c×n_a times and each invocation owns a sequential chunk of
// ~n/(4·n_c·n_a) elements.
func DefaultLaunch(dev *Device) (groups, local int) {
	return dev.Const.Cores, 4 * dev.Const.UnitsPerCore
}

// Thread is the execution context handed to each kernel invocation: its ids
// within the NDRange, the device build constants, the work-group barrier and
// local memory.
type Thread struct {
	// Global is the invocation's unique id in [0, GlobalSize).
	Global int
	// Local is the id within the work-group, Group the work-group id.
	Local, Group int
	// GlobalSize, LocalSize and NumGroups describe the launch geometry.
	GlobalSize, LocalSize, NumGroups int
	// Const carries the device build constants (the paper's injected
	// pre-processor constants, §4.2).
	Const BuildConstants

	bar      *barrier
	localMem []uint32
}

// Span partitions n elements across the launch's work-items using the memory
// access pattern preferred by the device class (§4.2, Figure 4): on CPUs a
// thread scans one contiguous chunk (prefetch/cache friendly); on GPUs the
// threads stride across the input so neighbouring threads touch neighbouring
// addresses (coalescing friendly). The kernel iterates
//
//	for i := lo; i < hi; i += step { ... }
func (t *Thread) Span(n int) (lo, hi, step int) {
	if t.Const.Class == ClassGPU {
		return t.Global, n, t.GlobalSize
	}
	chunk := (n + t.GlobalSize - 1) / t.GlobalSize
	lo = t.Global * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi, 1
}

// ChunkSpan partitions n elements into contiguous per-item chunks regardless
// of device class. Order-sensitive primitives (prefix sums, stable radix
// scatter) need each work-item to own a contiguous range so that per-item
// offsets translate into in-order writes; order-insensitive kernels should
// prefer Span, which picks the device's fastest pattern.
func (t *Thread) ChunkSpan(n int) (lo, hi int) {
	chunk := (n + t.GlobalSize - 1) / t.GlobalSize
	lo = t.Global * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// GroupSpan partitions n elements contiguously across work-groups and
// returns this group's [lo, hi) range. Kernels that build per-group partial
// results (histograms, partial aggregates) take their group's range and
// stride it across the group's work-items.
func (t *Thread) GroupSpan(n int) (lo, hi int) {
	chunk := (n + t.NumGroups - 1) / t.NumGroups
	lo = t.Group * chunk
	hi = lo + chunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Barrier synchronises all work-items of the group. The launch must have
// been enqueued with Barriers set.
func (t *Thread) Barrier() {
	if t.bar == nil {
		panic("cl: Barrier called in a launch without Barriers set")
	}
	t.bar.await()
}

// LocalU32 returns the group's local memory as []uint32. All work-items of a
// group observe the same memory; distinct groups have distinct memory.
func (t *Thread) LocalU32() []uint32 { return t.localMem }

// LocalI32 returns the group's local memory viewed as []int32.
func (t *Thread) LocalI32() []int32 { return mem.I32(mem.BytesOfU32(t.localMem)) }

// LocalF32 returns the group's local memory viewed as []float32.
func (t *Thread) LocalF32() []float32 { return mem.F32(mem.BytesOfU32(t.localMem)) }

// launchRun is one kernel launch, from enqueue to completion: what to run
// (fixed at enqueue) and the shared state of the run. The goroutine that
// fires the command and the pool workers it recruits pull group indices from
// next until the launch is exhausted; whichever of them finishes the last
// group completes the command's event — nobody blocks waiting for the others.
// This replaces the seed's goroutine-per-work-group model with a constant
// number of persistent workers (see pool.go).
type launchRun struct {
	dev           *Device
	fn            KernelFunc
	name          string
	localWords    int
	barriers      bool
	groups, local int
	ev            *Event // the launch's command, set by Queue.submit

	next   atomic.Int32
	done   atomic.Int32
	shared atomic.Bool // a recruited worker claimed a group
	start  time.Time
	// own is the Thread of the goroutine that fires the command (pool workers
	// bring their own), so running a group allocates nothing.
	own Thread

	errOnce sync.Once
	err     error
}

// newLaunchRun resolves the launch geometry (the device's default for zero
// values) and captures the kernel.
func newLaunchRun(dev *Device, fn KernelFunc, l Launch) *launchRun {
	r := &launchRun{
		dev: dev, fn: fn, name: l.Name,
		localWords: l.LocalWords, barriers: l.Barriers,
		groups: l.Groups, local: l.Local,
	}
	if r.name == "" {
		r.name = "kernel"
	}
	if r.groups <= 0 || r.local <= 0 {
		dg, dl := DefaultLaunch(dev)
		if r.groups <= 0 {
			r.groups = dg
		}
		if r.local <= 0 {
			r.local = dl
		}
	}
	return r
}

func (r *launchRun) record(v any) {
	r.errOnce.Do(func() { r.err = fmt.Errorf("cl: kernel %q panicked: %v", r.name, v) })
}

// runInPool is a recruited worker's share of the launch. If it ends up
// running the last group, it completes the command and carries on with the
// chain behind it, as runCommands would have.
func (r *launchRun) runInPool(x *executor, t *Thread) {
	if r.help(x, t) {
		runCommands(r.ev.finished(r.finish()))
	}
}

// finish closes the books of a launch whose last group has run and returns
// its error: a panic in any work-item aborts the launch and is reported here.
func (r *launchRun) finish() error {
	r.ev.measured(r.start)
	r.dev.countLaunch(r.groups, r.shared.Load())
	return r.err
}

// exhausted reports that every group has been claimed; a worker that still
// finds the launch listed pays one add on next and leaves.
func (r *launchRun) exhausted() bool { return int(r.next.Load()) >= r.groups }

// help pulls and executes work-groups on thread t until none remain and
// reports whether it ran the one that finished the launch. Whoever claims a
// group and sees further ones outstanding recruits one more worker: a
// one-group launch runs on the launching goroutine at no dispatch cost, a
// launch of n_c groups has every core of the device on it within a wake-up.
func (r *launchRun) help(x *executor, t *Thread) (last bool) {
	for {
		g := int(r.next.Add(1)) - 1
		if g >= r.groups {
			return last
		}
		if r.groups-g > 1 {
			x.recruit(r, g == 0)
		}
		if t != &r.own {
			r.shared.Store(true)
		}
		last = r.runGroup(x, g, t)
	}
}

// runGroup executes one work-group in the current goroutine and reports
// whether it was the last of the launch to finish. Work-items run
// sequentially on t unless the kernel needs barriers; barrier groups keep one
// dedicated goroutine per work-item — they must run concurrently to meet at
// the barrier — but the group as a whole occupies a single pool slot.
func (r *launchRun) runGroup(x *executor, g int, t *Thread) (last bool) {
	defer func() {
		if v := recover(); v != nil {
			r.record(v)
		}
		last = r.done.Add(1) == int32(r.groups)
	}()
	var lmem []uint32
	if r.localWords > 0 {
		lmem = x.getLocal(r.localWords)
		defer x.putLocal(lmem)
	}
	gsz := r.groups * r.local
	if !r.barriers {
		*t = Thread{
			Group: g, GlobalSize: gsz, LocalSize: r.local,
			NumGroups: r.groups, Const: r.dev.Const, localMem: lmem,
		}
		for li := 0; li < r.local; li++ {
			t.Local = li
			t.Global = g*r.local + li
			r.fn(t)
		}
		return
	}
	bar := newBarrier(r.local)
	var wg sync.WaitGroup
	for li := 0; li < r.local; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					bar.breakNow()
					if v != errBarrierBroken {
						r.record(v)
					}
				}
			}()
			r.fn(&Thread{
				Global: g*r.local + li, Local: li, Group: g,
				GlobalSize: gsz, LocalSize: r.local, NumGroups: r.groups,
				Const: r.dev.Const, bar: bar, localMem: lmem,
			})
		}(li)
	}
	wg.Wait()
	return
}
