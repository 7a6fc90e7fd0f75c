package mal

import (
	"fmt"
	"time"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/monet"
	"repro/internal/ops"
)

// Config identifies one of the four evaluated configurations of §5.1.
type Config int

const (
	// MS is sequential MonetDB: the single-core baseline.
	MS Config = iota
	// MP is parallel MonetDB: mitosis + dataflow intra-operator parallelism.
	MP
	// OcelotCPU runs the hardware-oblivious operators on the CPU driver.
	OcelotCPU
	// OcelotGPU runs the same operators on the simulated discrete GPU.
	OcelotGPU
	// Hybrid is the §7 future-work configuration: both Ocelot devices with
	// profile-driven automatic operator placement (internal/hybrid).
	Hybrid
)

// String returns the paper's series label.
func (c Config) String() string {
	switch c {
	case MS:
		return "MS"
	case MP:
		return "MP"
	case OcelotCPU:
		return "CPU"
	case OcelotGPU:
		return "GPU"
	case Hybrid:
		return "HYB"
	default:
		return "?"
	}
}

// ConfigOptions tune configuration construction for experiments.
type ConfigOptions struct {
	// Threads is the parallelism of MP and the core count of the Ocelot CPU
	// driver; <=0 selects all CPUs.
	Threads int
	// GPUMemory caps the simulated device memory; <=0 selects 2 GiB.
	GPUMemory int64
	// CPULaunchPause emulates the per-launch framework overhead the paper
	// attributes to the beta Intel OpenCL SDK (§5.3.2, Fig. 7d). Applied to
	// the Ocelot CPU driver only.
	CPULaunchPause time.Duration
}

// Build constructs the operator implementation for a configuration. Each
// Ocelot configuration owns a fresh device/context; MonetDB configurations
// are stateless engines.
func (c Config) Build(opt ConfigOptions) ops.Operators {
	switch c {
	case MS:
		return monet.NewSequential()
	case MP:
		return monet.NewParallel(opt.Threads)
	case OcelotCPU:
		dev := cl.NewCPUDevice(opt.Threads)
		dev.LaunchPause = opt.CPULaunchPause
		return core.New(dev)
	case OcelotGPU:
		return core.New(cl.NewGPUDevice(opt.GPUMemory))
	case Hybrid:
		h, err := hybrid.New(opt.Threads, opt.GPUMemory)
		if err != nil {
			panic(fmt.Sprintf("mal: building hybrid configuration: %v", err))
		}
		return h
	default:
		panic("mal: unknown configuration")
	}
}

// AllConfigs lists the four configurations in the paper's presentation
// order.
func AllConfigs() []Config { return []Config{MS, MP, OcelotCPU, OcelotGPU} }

// GPUTime reports the elapsed virtual device time when o is an Ocelot
// engine on a simulated device, and false otherwise. Benchmark harnesses
// measure GPU configurations by virtual-timeline span (see DESIGN.md's
// substitution table) and everything else by wall clock.
func GPUTime(o ops.Operators) (time.Duration, bool) {
	eng, ok := o.(*core.Engine)
	if !ok || !eng.Device().Simulated {
		return 0, false
	}
	return eng.Device().TimelineNow(), true
}

// Finish drains outstanding device work for lazy engines; a no-op for the
// MonetDB baselines.
func Finish(o ops.Operators) error {
	if f, ok := o.(interface{ Finish() error }); ok {
		return f.Finish()
	}
	return nil
}
