// The PR 7 parallel-execution figure: (a) the plan-level parallel scheduler
// against the serial interpreter on multi-GPU hybrid engines — the wall
// time a single session saves by overlapping disjoint device lanes — and
// (b) the serving layer's request coalescing under duplicate-heavy load —
// the throughput single-flight sharing buys when many clients ask the same
// question. Neither has a counterpart in the paper; like the N-device
// figure they track the repository's production trajectory (ROADMAP:
// parallel plan execution, shared work).
package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// ParReport records both halves of the figure.
type ParReport struct {
	ID, Title string
	// Nanos maps "HYB g=<gpus> <serial|parallel>" to average plan-wall
	// nanoseconds per workload query.
	Nanos map[string]int64
	// QPS maps "dup=<d>% N=<clients>" to sustained queries/second through a
	// coalescing server with a deliberately small admission cap.
	QPS   map[string]float64
	Order []string // Nanos keys, then QPS keys
	Notes []string
}

// String renders both tables.
func (r *ParReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "%-20s %14s %12s\n", "series", "ns/query", "queries/s")
	for _, k := range r.Order {
		if ns, ok := r.Nanos[k]; ok {
			fmt.Fprintf(&sb, "%-20s %14d %12s\n", k, ns, "-")
			continue
		}
		fmt.Fprintf(&sb, "%-20s %14s %12.1f\n", k, "-", r.QPS[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// JSON converts the report to a trajectory record; QPS series are encoded
// as their ns/query equivalent so every entry shares the median-ns scale.
func (r *ParReport) JSON(bytesAlloc, allocsOp int64) FigureJSON {
	out := FigureJSON{ID: r.ID, Title: r.Title, MedianNsPerOp: map[string]int64{}, BytesAlloc: bytesAlloc, AllocsOp: allocsOp}
	for k, v := range r.Nanos {
		out.MedianNsPerOp[k] = v
	}
	for k, qps := range r.QPS {
		if qps > 0 {
			out.MedianNsPerOp[k] = int64(1e9 / qps)
		}
	}
	return out
}

// ParDupRatios is the duplicate-share sweep of the coalescing half (percent
// of requests asking the one hot parameterisation).
var ParDupRatios = []int{0, 50, 90}

// ParClients is the client-count sweep of the coalescing half.
var ParClients = []int{1, 4, 16}

// ParFigure runs both experiments.
//
// Plan-wall half: every workload query on hybrid engines with 1, 2 and 4
// GPUs, serially and with the parallel scheduler, averaged over Runs. The
// two executors must agree — byte-identical, or within the atomic-jitter
// tolerance for queries whose serial runs already vary — and a divergence
// aborts the figure: lane-serialized dispatch is a pure scheduling change.
//
// Coalescing half: one parameterised scan template served at 1/4/16 clients
// with 0/50/90% of requests duplicating the hot parameter value, against a
// 2-slot admission cap on the CPU configuration. Duplicates fold into
// in-flight leaders (single-flight), so duplicate-heavy load should scale
// with client count; distinct-parameter arrivals queue and replay the
// cached template.
func ParFigure(o TPCHOptions) *ParReport {
	// Default to a heavier scale factor than the other TPC-H figures: the
	// plan half measures cross-lane overlap of real host compute, and at
	// tiny scales per-instruction dispatch overhead drowns the overlap.
	o = defaultTPCH(o, 0.1)
	db := tpch.Generate(o.SF, o.Seed)
	queries := tpch.Queries()

	rep := &ParReport{
		ID:    "par",
		Title: fmt.Sprintf("parallel plans & coalesced serving: TPC-H SF %g", o.SF),
		Nanos: map[string]int64{},
		QPS:   map[string]float64{},
		Notes: []string{
			"plan half: avg wall ns/query over the workload, serial vs parallel executor",
			"serve half: queries/s, coalescing server, 2 admission slots, CPU config",
		},
	}

	// --- (a) serial vs parallel plan execution per GPU count ---
	for _, gpus := range NdevGPUCounts {
		eng := mal.Hybrid.Build(mal.ConfigOptions{
			Threads:   o.Threads,
			GPUMemory: o.GPUMemory,
			GPUs:      gpus,
		})
		for _, parallel := range []bool{false, true} {
			mode := "serial"
			if parallel {
				mode = "parallel"
			}
			key := fmt.Sprintf("HYB g=%d %s", gpus, mode)
			rep.Order = append(rep.Order, key)

			var total time.Duration
			frags := 0
			for _, q := range queries {
				q := q
				run := func(par bool) (*mal.Result, *mal.Session) {
					s := mal.NewSession(eng)
					s.SetParallel(par)
					res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
					if err != nil {
						panic(fmt.Sprintf("bench: Q%d g=%d %s: %v", q.Num, gpus, mode, err))
					}
					return res, s
				}
				ref, _ := run(false)
				probe, _ := run(false)
				deterministic := ref.EqualWithin(probe, 0) == nil
				for r := 0; r < o.Runs; r++ {
					start := time.Now()
					res, s := run(parallel)
					total += time.Since(start)
					frags += s.ParallelFragments()
					tol := 0.0
					if !deterministic {
						tol = 1e-5
					}
					if err := res.EqualWithin(ref, tol); err != nil {
						panic(fmt.Sprintf("bench: Q%d g=%d: %s executor diverges from serial: %v", q.Num, gpus, mode, err))
					}
				}
			}
			rep.Nanos[key] = total.Nanoseconds() / int64(len(queries)*o.Runs)
			if parallel {
				rep.Notes = append(rep.Notes, fmt.Sprintf("g=%d: parallel executor ran %d multi-lane fragments", gpus, frags))
			}
		}
	}

	// --- (b) coalesced serving throughput under duplicate-heavy load ---
	qty := db.Lineitem.Col("l_quantity")
	price := db.Lineitem.Col("l_extendedprice")
	plan := func(s *mal.Session) *mal.Result {
		hi := s.Param("hi", 24)
		sel := s.Select(qty, nil, 1, hi, true, true)
		pp := s.Project(sel, price)
		return s.Result([]string{"rev"}, s.Aggr(ops.Sum, pp, nil, 0))
	}
	total := 64 * o.Runs
	for _, dup := range ParDupRatios {
		for _, clients := range ParClients {
			key := fmt.Sprintf("dup=%d%% N=%d", dup, clients)
			rep.Order = append(rep.Order, key)

			eng := mal.OcelotCPU.Build(mal.ConfigOptions{Threads: o.Threads})
			sv := serve.New(eng, serve.Options{MaxConcurrent: 2})
			// Warm the template so the measured regime is steady-state.
			if _, err := sv.Execute("scan", nil, plan); err != nil {
				panic(fmt.Sprintf("bench: warm-up scan: %v", err))
			}
			verifyBase := mal.VerifyRuns()

			jobs := make(chan mal.Params, total)
			for i := 0; i < total; i++ {
				if i%100 < dup {
					jobs <- mal.Params{"hi": 24} // the hot parameterisation
				} else {
					jobs <- mal.Params{"hi": float64(1 + i%40)}
				}
			}
			close(jobs)
			start := time.Now()
			done := make(chan struct{})
			for c := 0; c < clients; c++ {
				go func() {
					for p := range jobs {
						if _, err := sv.Execute("scan", p, plan); err != nil {
							panic(fmt.Sprintf("bench: coalesced scan: %v", err))
						}
					}
					done <- struct{}{}
				}()
			}
			for c := 0; c < clients; c++ {
				<-done
			}
			wall := time.Since(start)
			rep.QPS[key] = float64(total) / wall.Seconds()
			if st := sv.Stats()["scan"]; st.Shared > 0 {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d of %d served shared", key, st.Shared, st.Runs))
			}
			// Verify-once-per-template: the warmed template was verified at
			// seal time, so the measured replays must not have re-entered
			// the verifier at all — its overhead is confined to plan builds.
			if mal.DefaultVerify() {
				if d := mal.VerifyRuns() - verifyBase; d != 0 {
					panic(fmt.Sprintf("bench: %s: cached replays ran the verifier %d times, want 0", key, d))
				}
			}
		}
	}
	if mal.DefaultVerify() {
		rep.Notes = append(rep.Notes, "verifier on: 0 verifier runs across all measured replays (verify-once-per-template)")
	}
	return rep
}
