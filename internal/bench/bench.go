// Package bench regenerates the paper's evaluation (§5): every
// microbenchmark of Figure 5, the sort experiment of Figure 6, and the
// TPC-H experiments of Figure 7, across the four configurations MS, MP,
// Ocelot-CPU and Ocelot-GPU.
//
// Measurement methodology mirrors the paper: every data point is the
// average of repeated runs after a warm-up run (hot cache, §5.3); on the
// simulated GPU the measured quantity is the span of the device's virtual
// timeline, everything else is wall-clock time (see DESIGN.md's
// substitution table). GPU microbenchmarks exclude host↔device transfers
// (§5.2) because the warm-up run populates the Memory Manager's device
// cache; TPC-H runs include transfer traffic exactly as the paper's hot-
// cache methodology does.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/mem"
	"repro/internal/ops"
)

// Options scale the experiments. The zero value selects defaults sized for
// a laptop-class sandbox; flags in cmd/ocelotbench override them.
type Options struct {
	// SizesMB is the input-size sweep of the scaled-by-size experiments
	// (the paper uses 64..1024 MB; defaults are smaller).
	SizesMB []int
	// BaseMB is the fixed column size of the sweep-by-parameter
	// experiments (the paper's 400 MB column).
	BaseMB int
	// Runs is the number of measured repetitions (the paper uses 10 for
	// microbenchmarks, 5 for TPC-H).
	Runs int
	// Threads drives MP and the Ocelot CPU driver.
	Threads int
	// GPUMemory caps the simulated device memory.
	GPUMemory int64
	// CPULaunchPause emulates the Intel-SDK per-launch overhead on the
	// Ocelot CPU driver (TPC-H figures only; see Fig. 7d).
	CPULaunchPause time.Duration
	// Configs restricts which configurations run (nil = all four).
	Configs []mal.Config
	// Seed makes the synthetic data deterministic.
	Seed int64
}

func (o Options) withDefaults() Options {
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{4, 8, 16, 32, 64}
	}
	if o.BaseMB == 0 {
		o.BaseMB = 25 // the paper's 400 MB column, scaled by 1/16
	}
	if o.Runs == 0 {
		o.Runs = 5
	}
	if o.GPUMemory == 0 {
		o.GPUMemory = 1 << 30
	}
	if len(o.Configs) == 0 {
		o.Configs = mal.AllConfigs()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Report is one regenerated figure: a labelled series per configuration
// over a swept x-axis, in milliseconds — the same rows the paper plots.
type Report struct {
	ID, Title string
	XLabel    string
	Xs        []float64
	// Millis[config label][i] is the timing at Xs[i]; NaN marks points a
	// configuration could not run (e.g. the GPU line "ending midway" when
	// the input exceeds device memory, §5.2).
	Millis map[string][]float64
	Order  []string
	Notes  []string
}

func newReport(id, title, xlabel string, xs []float64, configs []mal.Config) *Report {
	r := &Report{ID: id, Title: title, XLabel: xlabel, Xs: xs, Millis: map[string][]float64{}}
	for _, c := range configs {
		label := c.String()
		r.Order = append(r.Order, label)
		series := make([]float64, len(xs))
		for i := range series {
			series[i] = math.NaN()
		}
		r.Millis[label] = series
	}
	return r
}

// String renders the figure as an aligned text table.
func (r *Report) String() string {
	width := 12
	for _, c := range r.Order {
		if w := len(c) + 6; w > width {
			width = w
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "%-12s", r.XLabel)
	for _, c := range r.Order {
		fmt.Fprintf(&sb, "%*s", width, c+" [ms]")
	}
	sb.WriteByte('\n')
	for i, x := range r.Xs {
		fmt.Fprintf(&sb, "%-12g", x)
		for _, c := range r.Order {
			v := r.Millis[c][i]
			if math.IsNaN(v) {
				fmt.Fprintf(&sb, "%*s", width, "-")
			} else {
				fmt.Fprintf(&sb, "%*.3f", width, v)
			}
		}
		sb.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Measure times one operation under a configuration: virtual-timeline span
// for the simulated GPU, wall clock otherwise. A warm-up run precedes the
// measured runs (hot cache). The returned duration is the per-run average.
func Measure(o ops.Operators, runs int, op func() error) (time.Duration, error) {
	run := func() (time.Duration, error) {
		if vStart, isGPU := mal.GPUTime(o); isGPU {
			if err := op(); err != nil {
				return 0, err
			}
			if err := mal.Finish(o); err != nil {
				return 0, err
			}
			vEnd, _ := mal.GPUTime(o)
			return vEnd - vStart, nil
		}
		start := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		if err := mal.Finish(o); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if _, err := run(); err != nil { // warm-up
		return 0, err
	}
	var total time.Duration
	for i := 0; i < runs; i++ {
		d, err := run()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / time.Duration(runs), nil
}

// rowsOfMB converts a column size in MB to its int32 row count.
const rowsPerMB = (1 << 20) / 4

// uniformI32 builds a deterministic uniform int32 column.
func uniformI32(name string, rows int, max int32, seed int64) *bat.BAT {
	r := rand.New(rand.NewSource(seed))
	s := mem.AllocI32(rows)
	for i := range s {
		s[i] = r.Int31n(max)
	}
	return bat.NewI32(name, s)
}

// iotaOIDs builds a materialised dense oid list (the probe side of the
// left fetch join microbenchmark).
func iotaOIDs(name string, rows int) *bat.BAT {
	s := mem.AllocU32(rows)
	for i := range s {
		s[i] = uint32(i)
	}
	b := bat.NewOID(name, s)
	b.Props.Sorted, b.Props.Key = true, true
	return b
}

// engineFor builds the operator implementation of a configuration.
func engineFor(c mal.Config, opt Options) ops.Operators {
	return c.Build(mal.ConfigOptions{
		Threads:        opt.Threads,
		GPUMemory:      opt.GPUMemory,
		CPULaunchPause: opt.CPULaunchPause,
	})
}

// retire drains a configuration's resources after its measurements: Ocelot
// engines run on the host's persistent worker pool and hold a scratch
// free-list, and a sweep builds one engine per data point, so draining
// eagerly keeps the harness from carrying parked workers until their idle
// timeout — or pinning retained scratch bytes through the storage layer's
// free listener.
func retire(o ops.Operators) {
	if eng, ok := o.(*core.Engine); ok {
		eng.Device().Close()
		eng.Memory().FlushScratch()
	}
}

// releaseAll drops intermediates an operation produced.
func releaseAll(o ops.Operators, bats ...*bat.BAT) {
	for _, b := range bats {
		if b != nil {
			o.Release(b)
		}
	}
}

// invalidateHash defeats the Memory Manager's hash-table cache between
// measured build runs.
func invalidateHash(o ops.Operators, col *bat.BAT) {
	if eng, ok := o.(*core.Engine); ok {
		eng.InvalidateHash(col)
	}
}
