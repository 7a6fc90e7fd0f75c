package bench

import (
	"fmt"
	"time"

	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/tpch"
)

// The TPC-H experiments of §5.3 (Figure 7). The paper runs scale factors
// 1, 8 and 50; the defaults here are scaled down proportionally (see
// DESIGN.md) while preserving the three regimes:
//
//   - small     (7a): everything fits on the GPU — Ocelot-GPU leads,
//     Ocelot-CPU pays the fixed framework overhead;
//   - middle    (7b): the working set exceeds device memory — the Memory
//     Manager swaps, transfers eat the GPU lead;
//   - large     (7c): CPU configurations only, Ocelot-CPU competitive.
//
// TPCHOptions extends Options with the figure's scale factor and a device
// memory expressed relative to the database size.
type TPCHOptions struct {
	Options
	// SF is the TPC-H scale factor of this experiment.
	SF float64
	// GPUMemFraction sizes the simulated device memory as a fraction of
	// the database bytes; 0 keeps Options.GPUMemory.
	GPUMemFraction float64
}

// defaultTPCH fills in the figure defaults.
func defaultTPCH(o TPCHOptions, sf float64) TPCHOptions {
	if o.SF == 0 {
		o.SF = sf
	}
	if o.Runs == 0 {
		o.Runs = 3 // the paper averages 5 runs; 3 keeps the harness quick
	}
	if o.CPULaunchPause == 0 {
		// The per-launch stand-in for the Intel SDK's fixed overhead
		// (§5.3.2); visible at small scale, amortised at large scale.
		o.CPULaunchPause = 30 * time.Microsecond
	}
	o.Options = o.Options.withDefaults()
	return o
}

// QueryReport is one TPC-H figure: per-query runtimes per configuration.
type QueryReport struct {
	ID, Title string
	Queries   []int
	// Seconds[config][i] is query Queries[i]'s average runtime.
	Seconds map[string][]float64
	Order   []string
	Notes   []string
}

// String renders the figure as an aligned text table (seconds, like the
// paper's bar charts).
func (r *QueryReport) String() string {
	out := fmt.Sprintf("# %s — %s\n%-8s", r.ID, r.Title, "query")
	for _, c := range r.Order {
		out += fmt.Sprintf("%12s", c+" [s]")
	}
	out += "\n"
	for i, q := range r.Queries {
		out += fmt.Sprintf("Q%-7d", q)
		for _, c := range r.Order {
			v := r.Seconds[c][i]
			if v < 0 {
				out += fmt.Sprintf("%12s", "-")
			} else {
				out += fmt.Sprintf("%12.4f", v)
			}
		}
		out += "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// runTPCH executes the whole workload under the given configurations with a
// hot cache (each query runs once unmeasured, then Runs measured times).
func runTPCH(id, title string, opt TPCHOptions) *QueryReport {
	db := tpch.Generate(opt.SF, opt.Seed)
	if opt.GPUMemFraction > 0 {
		opt.GPUMemory = int64(float64(db.TotalBytes()) * opt.GPUMemFraction)
	}
	rep := &QueryReport{ID: id, Title: title}
	rep.Seconds = map[string][]float64{}
	for _, c := range opt.Configs {
		rep.Order = append(rep.Order, c.String())
		rep.Seconds[c.String()] = nil
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("SF=%g (%d lineitems, %.1f MB database), %d runs, hot cache",
			opt.SF, db.Lineitem.Rows(), float64(db.TotalBytes())/(1<<20), opt.Runs))

	engines := make(map[mal.Config]ops.Operators, len(opt.Configs))
	for _, c := range opt.Configs {
		engines[c] = engineFor(c, opt.Options)
	}

	for _, q := range tpch.Queries() {
		rep.Queries = append(rep.Queries, q.Num)
		for _, cfg := range opt.Configs {
			o := engines[cfg]
			d, err := Measure(o, opt.Runs, func() error {
				s := mal.NewSession(o)
				_, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
					return q.Plan(s, db)
				})
				return err
			})
			if err != nil {
				rep.Notes = append(rep.Notes, fmt.Sprintf("Q%d on %v: %v", q.Num, cfg, err))
				rep.Seconds[cfg.String()] = append(rep.Seconds[cfg.String()], -1)
				continue
			}
			rep.Seconds[cfg.String()] = append(rep.Seconds[cfg.String()], d.Seconds())
		}
	}
	return rep
}

// Fig7a — TPC-H at the small scale factor, all four configurations
// (paper: SF 1).
func Fig7a(opt TPCHOptions) *QueryReport {
	opt = defaultTPCH(opt, 0.05)
	if opt.GPUMemFraction == 0 {
		opt.GPUMemFraction = 4 // comfortably fits: the 7a regime
	}
	return runTPCH("Fig 7(a)", "TPC-H performance, small scale (paper: SF 1)", opt)
}

// Fig7b — TPC-H at the intermediate scale: the simulated GPU's memory is
// set below the working set so the Memory Manager must swap (paper: SF 8,
// "the largest instance we could run on the graphics card").
func Fig7b(opt TPCHOptions) *QueryReport {
	opt = defaultTPCH(opt, 0.2)
	if opt.GPUMemFraction == 0 {
		// Below the working set (swapping throughout) yet above the floor
		// of the largest single query — the paper's "largest instance we
		// could run on the graphics card" regime.
		opt.GPUMemFraction = 0.7
	}
	return runTPCH("Fig 7(b)", "TPC-H performance, intermediate scale with GPU memory pressure (paper: SF 8)", opt)
}

// Fig7c — TPC-H at the large scale, CPU configurations only (paper: SF 50,
// which "could not use the graphics card").
func Fig7c(opt TPCHOptions) *QueryReport {
	opt = defaultTPCH(opt, 0.5)
	cpuOnly := make([]mal.Config, 0, 3)
	for _, c := range opt.Configs {
		if c != mal.OcelotGPU {
			cpuOnly = append(cpuOnly, c)
		}
	}
	opt.Configs = cpuOnly
	return runTPCH("Fig 7(c)", "TPC-H performance, large scale, CPU configurations (paper: SF 50)", opt)
}

// Fig7d — Q1 runtime against the scale factor: all configurations scale
// linearly; extrapolating the Ocelot-CPU line to an empty database exposes
// the constant framework overhead (§5.3.2).
func Fig7d(opt TPCHOptions) *Report {
	opt = defaultTPCH(opt, 0)
	sfs := []float64{0.02, 0.05, 0.1, 0.2, 0.4}
	xs := make([]float64, len(sfs))
	copy(xs, sfs)
	r := newReport("Fig 7(d)", "TPC-H Q1 scaling with the scale factor", "SF", xs, opt.Configs)
	q1 := tpch.QueryByNum(1)
	for i, sf := range sfs {
		db := tpch.Generate(sf, opt.Seed)
		for _, cfg := range opt.Configs {
			o := engineFor(cfg, opt.Options)
			d, err := Measure(o, opt.Runs, func() error {
				s := mal.NewSession(o)
				_, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
					return q1.Plan(s, db)
				})
				return err
			})
			if err != nil {
				r.Notes = append(r.Notes, fmt.Sprintf("%v at SF %g: %v", cfg, sf, err))
				continue
			}
			r.Millis[cfg.String()][i] = float64(d.Microseconds()) / 1000
		}
	}
	return r
}
