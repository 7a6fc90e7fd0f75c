package bench

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mal"
)

// tinyOpts keeps figure regeneration fast enough for the unit-test suite;
// the real experiment sizes live in cmd/ocelotbench's defaults.
func tinyOpts() Options {
	return Options{
		SizesMB: []int{1, 2},
		BaseMB:  2,
		Runs:    1,
		Threads: 4,
	}
}

func checkReport(t *testing.T, r *Report, wantSeries int) {
	t.Helper()
	if len(r.Order) != wantSeries {
		t.Fatalf("%s: %d series, want %d", r.ID, len(r.Order), wantSeries)
	}
	for _, c := range r.Order {
		series := r.Millis[c]
		if len(series) != len(r.Xs) {
			t.Fatalf("%s/%s: %d points for %d xs", r.ID, c, len(series), len(r.Xs))
		}
		any := false
		for _, v := range series {
			if !math.IsNaN(v) {
				if v < 0 {
					t.Fatalf("%s/%s: negative timing %v", r.ID, c, v)
				}
				any = true
			}
		}
		if !any {
			t.Fatalf("%s/%s: no data points at all (notes: %v)", r.ID, c, r.Notes)
		}
	}
	if !strings.Contains(r.String(), r.ID) {
		t.Fatalf("%s: rendering lacks the figure id", r.ID)
	}
}

func TestAllMicroFiguresProduceData(t *testing.T) {
	for id, fig := range MicroFigures() {
		id, fig := id, fig
		t.Run(id, func(t *testing.T) {
			r := fig(tinyOpts())
			checkReport(t, r, 4)
		})
	}
}

func TestFig5bOcelotFlatAcrossSelectivity(t *testing.T) {
	// The bitmap-result effect (§5.2.1): Ocelot's runtime must stay flat
	// while MS grows with selectivity. Use a bigger column so the trend
	// dominates noise.
	opt := tinyOpts()
	opt.BaseMB = 16
	opt.Runs = 3
	r := Fig5b(opt)
	ms := r.Millis["MS"]
	gpu := r.Millis["GPU"]
	if ms[len(ms)-1] <= ms[0] {
		t.Skipf("MS did not grow with selectivity (%.3f → %.3f); noisy host", ms[0], ms[len(ms)-1])
	}
	// GPU (virtual time, no noise) must be flat within 20%.
	if gpu[len(gpu)-1] > gpu[0]*1.2 {
		t.Fatalf("GPU selection not selectivity-independent: %v", gpu)
	}
}

func TestFig5aGPUMemoryLimitEndsLine(t *testing.T) {
	// With a tiny device, large inputs must show as missing points — the
	// lines "ending midway" of §5.2.
	opt := tinyOpts()
	opt.SizesMB = []int{1, 64}
	opt.GPUMemory = 8 << 20
	opt.Configs = []mal.Config{mal.OcelotGPU}
	r := Fig5a(opt)
	series := r.Millis["GPU"]
	if math.IsNaN(series[0]) {
		t.Fatal("small input should fit the device")
	}
	if !math.IsNaN(series[1]) {
		t.Fatal("64MB input cannot fit an 8MiB device; expected a missing point")
	}
}

func TestFig7aSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H figure in -short mode")
	}
	opt := TPCHOptions{Options: Options{Runs: 1, Threads: 4, Seed: 42}, SF: 0.005}
	r := Fig7a(opt)
	if len(r.Queries) != 14 {
		t.Fatalf("Fig 7a covers %d queries, want 14", len(r.Queries))
	}
	for _, c := range r.Order {
		for i, v := range r.Seconds[c] {
			if v < 0 {
				t.Fatalf("Q%d on %s failed: %v", r.Queries[i], c, r.Notes)
			}
		}
	}
	if !strings.Contains(r.String(), "Q21") {
		t.Fatal("report rendering lacks Q21")
	}
}

func TestFig7dProducesAllSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H figure in -short mode")
	}
	opt := TPCHOptions{Options: Options{Runs: 1, Threads: 4, Seed: 42,
		CPULaunchPause: 20 * time.Microsecond}}
	r := Fig7d(opt)
	checkReport(t, r, 4)
	// Linear scaling: the largest SF should cost clearly more than the
	// smallest on the deterministic GPU timeline.
	gpu := r.Millis["GPU"]
	if gpu[len(gpu)-1] < 2*gpu[0] {
		t.Fatalf("GPU Q1 did not scale with SF: %v", gpu)
	}
}

func TestMeasureUsesVirtualTimeForGPU(t *testing.T) {
	o := engineFor(mal.OcelotGPU, Options{GPUMemory: 64 << 20}.withDefaults())
	col := uniformI32("c", 1<<20, 100, 1)
	defer col.Free()
	d, err := Measure(o, 2, func() error {
		res, err := o.Select(col, nil, 0, 49, true, true)
		releaseAll(o, res)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatal("virtual measurement must be positive")
	}
	// 4MB at ~100GB/s is tens of microseconds — far below what functional
	// execution costs in wall time; a small virtual duration is evidence
	// the virtual clock (not the wall clock) was measured.
	if d > 5*time.Millisecond {
		t.Fatalf("GPU measurement suspiciously large (%v); wall clock leaked in?", d)
	}
}

func TestAblationsProduceData(t *testing.T) {
	opt := tinyOpts()
	for id, fig := range Ablations() {
		id, fig := id, fig
		t.Run(id, func(t *testing.T) {
			r := fig(opt)
			if len(r.Order) == 0 {
				t.Fatalf("%s: no series", r.ID)
			}
			for _, c := range r.Order {
				any := false
				for _, v := range r.Millis[c] {
					if v > 0 {
						any = true
					}
				}
				if !any {
					t.Fatalf("%s/%s: no data (notes %v)", r.ID, c, r.Notes)
				}
			}
		})
	}
}

func TestAblationAccumulatorContention(t *testing.T) {
	// The §4.1.7 design must matter: at 2 groups, atomics into one
	// accumulator per group must cost clearly more than the partition-
	// private partials on the CPU.
	opt := tinyOpts()
	opt.BaseMB = 8
	opt.Runs = 2
	r := AblationAccumulators(opt)
	partials := r.Millis["CPU/partials"][0]
	direct := r.Millis["CPU/direct"][0]
	if direct < partials*1.5 {
		t.Skipf("contention effect below threshold on this host: partials %.2f vs direct %.2f", partials, direct)
	}
}
