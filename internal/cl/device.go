// Package cl is a pure-Go implementation of the kernel programming model the
// paper builds Ocelot on (§2.3): devices, contexts, command queues, buffers,
// events with wait-lists, NDRange kernel launches, work-groups with barriers,
// and global-memory atomics.
//
// It plays the role OpenCL plays in the paper. Two device drivers are
// registered:
//
//   - The CPU driver executes work-groups on the host's cores (one
//     work-group per core following the paper's §4.2 scheduling rule, or
//     fewer for a launch with little work, see WorkLaunch). Buffers alias
//     host memory (zero-copy), and event timings are real wall-clock
//     measurements.
//
//   - The GPU driver models a discrete accelerator in the spirit of the
//     paper's NVIDIA GTX 460. Kernels still execute *functionally* on the
//     host — results are real and verified — but the reported timeline is
//     *virtual*, produced by an analytic cost model (memory bandwidth,
//     compute throughput, launch overhead, atomic contention, and a PCIe-like
//     transfer link with separate compute and copy engines so transfers can
//     overlap kernels exactly as Figure 3 of the paper illustrates). Device
//     memory is capacity-limited, which is what drives the Memory Manager's
//     cache/evict/offload machinery.
//
// Operator host code written against this package is device-independent;
// all hardware-specific decisions are derived from the device's build
// constants, mirroring how the paper injects pre-processor constants into
// the OpenCL kernel build (§4.2).
package cl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DeviceClass identifies the broad architecture family of a device. It is
// the analogue of the pre-processor constant the paper injects into kernel
// builds so that kernels can select the memory access pattern preferred by
// the architecture (§4.2).
type DeviceClass int

const (
	// ClassCPU marks cache/prefetch architectures: each thread should scan
	// a contiguous chunk of memory.
	ClassCPU DeviceClass = iota
	// ClassGPU marks coalescing architectures: neighbouring threads should
	// access neighbouring addresses, i.e. threads stride across the input.
	ClassGPU
)

// String returns the conventional short name of the class.
func (c DeviceClass) String() string {
	switch c {
	case ClassCPU:
		return "CPU"
	case ClassGPU:
		return "GPU"
	default:
		return fmt.Sprintf("DeviceClass(%d)", int(c))
	}
}

// BuildConstants are the device facts exposed to kernels at "compile" time.
// In the paper these are injected as pre-processor constants into the OpenCL
// source; here they travel with every Thread.
type BuildConstants struct {
	// Class selects the preferred memory access pattern (see Thread.Span).
	Class DeviceClass
	// Cores is n_c, the number of independent cores / multiprocessors.
	Cores int
	// UnitsPerCore is n_a, the number of compute units per core.
	UnitsPerCore int
	// LocalMemSize is the usable local (work-group shared) memory in bytes.
	LocalMemSize int
	// Grain is the work, in elements, one work-group of a launch takes on
	// before a second group pays for itself (WorkLaunch); zero spreads every
	// launch over all Cores, as §4.2's rule does.
	Grain int
}

// Perf is the analytic cost model of a simulated device. All rates are in
// bytes (or operations) per second. It is consulted only for devices with
// Simulated == true; real devices report measured wall-clock times.
type Perf struct {
	// MemBandwidth is the sustained global-memory bandwidth for the
	// device-preferred (coalesced / sequential) access pattern.
	MemBandwidth float64
	// RandomBandwidth is the effective bandwidth for data-dependent
	// scattered access (gathers, hash probes).
	RandomBandwidth float64
	// Throughput is the aggregate simple-operation throughput (ops/s).
	Throughput float64
	// LaunchOverhead is the fixed cost of scheduling one kernel.
	LaunchOverhead time.Duration
	// AtomicThroughput is the aggregate rate of uncontended global atomics.
	AtomicThroughput float64
	// AtomicContentionPenalty scales the serialisation cost of atomics that
	// hit the same address: effective rate = AtomicThroughput /
	// (1 + penalty·contention) where contention ∈ [0,1].
	AtomicContentionPenalty float64
	// TransferBandwidth is the host↔device link bandwidth (PCIe).
	TransferBandwidth float64
	// TransferLatency is the fixed per-transfer setup latency.
	TransferLatency time.Duration
}

// Device represents one compute device registered with the runtime.
type Device struct {
	// Name is a human-readable identifier shown by tools and examples.
	Name string
	// Const are the build constants exposed to kernels.
	Const BuildConstants
	// GlobalMemSize limits the total bytes of live buffer allocations on the
	// device. Zero or negative means unlimited (host memory).
	GlobalMemSize int64
	// Discrete devices have their own memory: buffers must be populated via
	// explicit transfers, and creating a buffer from host data copies it.
	Discrete bool
	// Simulated devices take their event timings from the Perf cost model
	// rather than from wall-clock measurement.
	Simulated bool
	// Perf is the cost model for simulated devices.
	Perf Perf
	// LaunchPause, when non-zero, inserts a real host-side pause before every
	// kernel launch on this device. It emulates the fixed framework overhead
	// the paper observed with the (beta) Intel OpenCL SDK on the CPU — the
	// roughly constant per-query cost they extrapolate in Figure 7(d).
	LaunchPause time.Duration

	mu        sync.Mutex
	allocated int64 // live buffer bytes
	peakAlloc int64
	// Deterministic fault injection (fault.go): nil when disarmed. dead is
	// the death latch — once set, commands and allocations fail with
	// ErrDeviceLost until Revive.
	faults *faultState
	dead   bool
	// Virtual engine timelines (ns since device creation). A kernel occupies
	// the compute engine; a transfer occupies the copy engine. Keeping them
	// separate lets the simulated driver overlap transfers with kernels,
	// reproducing the reordering freedom discussed around Figure 3.
	computeAvail int64
	copyAvail    int64
	// Counters for introspection and tests.
	kernelLaunches int64
	transfers      int64
	bytesMoved     int64
	// What the host's worker pool did with the device's commands
	// (ExecutorStats).
	sharedLaunches, aloneLaunches, inlineLaunches, unpooledCommands atomic.Int64
}

// NewCPUDevice returns the CPU driver. cores <= 0 selects runtime.NumCPU().
// Following §4.2, the scheduling rule models a small number of compute units
// per core (SIMD lanes); we use n_a = 2, so the default launch geometry is
// n_c work-groups of size 4×n_a = 8. Kernels launched by work (WorkLaunch)
// take one group per hostGrain elements.
func NewCPUDevice(cores int) *Device {
	if cores <= 0 {
		cores = runtime.NumCPU()
	}
	return &Device{
		Name: fmt.Sprintf("ocelot-cpu (%d cores)", cores),
		Const: BuildConstants{
			Class:        ClassCPU,
			Cores:        cores,
			UnitsPerCore: 2,
			LocalMemSize: 32 << 10,
			Grain:        hostGrain,
		},
		GlobalMemSize: 0, // host memory: unlimited from the runtime's view
		Discrete:      false,
		Simulated:     false,
	}
}

// hostGrain is the Grain of the devices whose work-groups run on host
// goroutines: the element count near which a launch's second group starts to
// pay for recruiting a pool worker (DESIGN.md has the crossover table).
const hostGrain = 8192

// GTX460Perf is the cost model used by default for the simulated GPU. The
// constants are taken from the paper's evaluation hardware (§5.1): an NVIDIA
// GTX 460 (Fermi GF104, 7 multiprocessors × 48 units, ~115 GB/s device
// memory) on a PCIe 2.0 x16 link (~6 GB/s effective).
var GTX460Perf = Perf{
	MemBandwidth:            100e9,
	RandomBandwidth:         12e9,
	Throughput:              400e9,
	LaunchOverhead:          8 * time.Microsecond,
	AtomicThroughput:        2.5e9,
	AtomicContentionPenalty: 12,
	TransferBandwidth:       5.5e9,
	TransferLatency:         12 * time.Microsecond,
}

// NewGPUDevice returns the simulated discrete-GPU driver with the given
// device memory capacity in bytes (the paper's card has 2 GB; benchmarks use
// smaller capacities so the memory-pressure effects of §5.3.2 appear at the
// scaled-down data sizes). memBytes <= 0 selects 2 GB.
func NewGPUDevice(memBytes int64) *Device {
	if memBytes <= 0 {
		memBytes = 2 << 30
	}
	return &Device{
		Name: fmt.Sprintf("ocelot-sim-gpu (GF104-like, %d MiB)", memBytes>>20),
		Const: BuildConstants{
			Class:        ClassGPU,
			Cores:        7,
			UnitsPerCore: 48,
			LocalMemSize: 48 << 10,
			// The card's work-groups run on host goroutines and its timeline
			// comes from Cost alone, so the host's grain is the one that pays.
			Grain: hostGrain,
		},
		GlobalMemSize: memBytes,
		Discrete:      true,
		Simulated:     true,
		Perf:          GTX460Perf,
	}
}

// Allocated returns the bytes of live buffer allocations on the device.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// PeakAllocated returns the high-water mark of live allocations.
func (d *Device) PeakAllocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peakAlloc
}

// KernelLaunches returns the number of kernels enqueued so far.
func (d *Device) KernelLaunches() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernelLaunches
}

// ExecutorStats counts what the host's worker pool (pool.go) did with the
// device's commands that have completed so far.
type ExecutorStats struct {
	// Shared launches had groups run by more than one goroutine; Alone ones
	// had more than one group and still ran on the goroutine that fired them.
	// One-group launches are in neither.
	Shared, Alone int64
	// Inline counts launches, of any group count, that were ready when
	// enqueued and so ran on the enqueuing goroutine.
	Inline int64
	// Unpooled counts ready commands started on a goroutine of their own
	// because no pool worker was idle.
	Unpooled int64
}

// ExecutorStats returns the device's executor counters.
func (d *Device) ExecutorStats() ExecutorStats {
	return ExecutorStats{
		Shared:   d.sharedLaunches.Load(),
		Alone:    d.aloneLaunches.Load(),
		Inline:   d.inlineLaunches.Load(),
		Unpooled: d.unpooledCommands.Load(),
	}
}

// Transfers returns the number of host↔device transfers and the total bytes
// moved across the link. Always zero for non-discrete devices.
func (d *Device) Transfers() (count, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.transfers, d.bytesMoved
}

// TimelineNow returns the current end of the device's virtual timeline (the
// later of the compute and copy engines), in nanoseconds since creation.
// Benchmarks on simulated devices measure spans of this clock; on real
// devices it advances by measured durations and is informational.
func (d *Device) TimelineNow() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.computeAvail
	if d.copyAvail > t {
		t = d.copyAvail
	}
	return time.Duration(t)
}

// reserve accounts for an allocation of n bytes, failing with
// ErrOutOfDeviceMemory when the capacity would be exceeded.
func (d *Device) reserve(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.faultAllocLocked(); err != nil {
		return err
	}
	if d.GlobalMemSize > 0 && d.allocated+n > d.GlobalMemSize {
		return fmt.Errorf("%w: requested %d bytes, %d of %d in use",
			ErrOutOfDeviceMemory, n, d.allocated, d.GlobalMemSize)
	}
	d.allocated += n
	if d.allocated > d.peakAlloc {
		d.peakAlloc = d.allocated
	}
	return nil
}

// release returns n bytes to the device allocator.
func (d *Device) release(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= n
	if d.allocated < 0 {
		panic("cl: device allocation underflow")
	}
}

// scheduleVirtual reserves an engine slot of the given duration, starting no
// earlier than ready, and returns the (start, end) pair on the virtual
// timeline. copyEngine selects the copy engine instead of the compute engine.
func (d *Device) scheduleVirtual(ready int64, dur time.Duration, copyEngine bool) (start, end int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := &d.computeAvail
	if copyEngine {
		avail = &d.copyAvail
	}
	start = *avail
	if ready > start {
		start = ready
	}
	end = start + int64(dur)
	*avail = end
	return start, end
}

// advanceReal moves both virtual engines forward by a measured real duration.
// Used by non-simulated devices so TimelineNow stays meaningful.
func (d *Device) advanceReal(dur time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.computeAvail += int64(dur)
	if d.copyAvail < d.computeAvail {
		d.copyAvail = d.computeAvail
	}
}

func (d *Device) countKernel() {
	d.mu.Lock()
	d.kernelLaunches++
	d.mu.Unlock()
}

// countLaunch books a completed launch of the given group count under
// ExecutorStats; shared says a recruited worker ran one of its groups.
func (d *Device) countLaunch(groups int, shared bool) {
	switch {
	case shared:
		d.sharedLaunches.Add(1)
	case groups > 1:
		d.aloneLaunches.Add(1)
	}
}

func (d *Device) countTransfer(bytes int64) {
	d.mu.Lock()
	d.transfers++
	d.bytesMoved += bytes
	d.mu.Unlock()
}
