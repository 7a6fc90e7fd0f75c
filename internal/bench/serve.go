// Serving-layer figure: the plan-cache rebind-and-run experiment. It has no
// counterpart in the paper; the pinned benchmark's serve_open workload
// measures concurrent serving at the request boundary.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/mal"
	"repro/internal/tpch"
)

// PlanCacheReport records the cold-build vs cache-hit comparison for one
// TPC-H query: end-to-end wall time and the host-side overhead (wall minus
// the summed per-instruction operator time) for both paths, per
// configuration.
type PlanCacheReport struct {
	ID, Title string
	Query     int
	// Nanos maps "<config> <metric>" to nanoseconds, metrics being
	// cold_wall, hit_wall, cold_overhead, hit_overhead (medians over runs).
	Nanos map[string]int64
	Order []string
	Notes []string
}

// String renders the comparison table.
func (r *PlanCacheReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s — %s\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "%-8s %14s %14s %14s %14s\n", "config", "cold wall", "hit wall", "cold overhead", "hit overhead")
	for _, c := range r.Order {
		fmt.Fprintf(&sb, "%-8s %14v %14v %14v %14v\n", c,
			time.Duration(r.Nanos[c+" cold_wall"]),
			time.Duration(r.Nanos[c+" hit_wall"]),
			time.Duration(r.Nanos[c+" cold_overhead"]),
			time.Duration(r.Nanos[c+" hit_overhead"]))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// JSON converts the report to a trajectory record.
func (r *PlanCacheReport) JSON(bytesAlloc, allocsOp int64) FigureJSON {
	out := FigureJSON{ID: r.ID, Title: r.Title, MedianNsPerOp: map[string]int64{}, BytesAlloc: bytesAlloc, AllocsOp: allocsOp}
	for k, v := range r.Nanos {
		out.MedianNsPerOp[k] = v
	}
	return out
}

func median64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return mid
}

// PlanCacheFigure measures, per configuration, re-running one TPC-H query
// (Q6 by default) cold — plan function, IR build, full rewriter pipeline —
// against replaying its cached template with parameters re-bound. The
// headline number is host-side overhead: wall time minus the summed
// operator dispatch time, i.e. what the MAL layer itself costs around the
// operators.
func PlanCacheFigure(o TPCHOptions) *PlanCacheReport {
	o = defaultTPCH(o, 0.01)
	db := tpch.Generate(o.SF, o.Seed)
	q := tpch.QueryByNum(6)
	plan := func(s *mal.Session) *mal.Result { return q.Plan(s, db) }

	rep := &PlanCacheReport{
		ID:    "pc",
		Title: fmt.Sprintf("plan cache: cold build vs rebind-and-run, TPC-H Q%d, SF %g", q.Num, o.SF),
		Query: q.Num,
		Nanos: map[string]int64{},
		Notes: []string{"overhead = wall - summed operator dispatch time (host-side cost of the MAL layer)"},
	}
	for _, cfg := range o.Configs {
		eng := cfg.Build(mal.ConfigOptions{Threads: o.Threads, GPUMemory: o.GPUMemory})
		label := cfg.String()
		rep.Order = append(rep.Order, label)

		var coldWall, coldOver, hitWall, hitOver []int64
		var tpl *mal.Template
		for run := 0; run < o.Runs+1; run++ {
			s := mal.NewSession(eng)
			start := time.Now()
			if _, err := mal.RunQuery(s, plan); err != nil {
				panic(fmt.Sprintf("bench: cold Q%d on %s: %v", q.Num, label, err))
			}
			wall := time.Since(start)
			if run == 0 {
				tpl = s.Template() // warm-up run also captures the template
				continue
			}
			coldWall = append(coldWall, int64(wall))
			coldOver = append(coldOver, int64(wall-s.OpTime()))
		}
		for run := 0; run < o.Runs; run++ {
			start := time.Now()
			_, s, err := tpl.RunOn(eng, nil)
			if err != nil {
				panic(fmt.Sprintf("bench: cached Q%d on %s: %v", q.Num, label, err))
			}
			wall := time.Since(start)
			hitWall = append(hitWall, int64(wall))
			hitOver = append(hitOver, int64(wall-s.OpTime()))
		}
		rep.Nanos[label+" cold_wall"] = median64(coldWall)
		rep.Nanos[label+" hit_wall"] = median64(hitWall)
		rep.Nanos[label+" cold_overhead"] = median64(coldOver)
		rep.Nanos[label+" hit_overhead"] = median64(hitOver)
	}
	return rep
}
