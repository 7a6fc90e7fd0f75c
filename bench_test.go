// Package repro's root benchmarks: the measurements that are not one of
// the paper's figures. BenchmarkScalingTPCHSmall, BenchmarkScalingTPCHLarge
// and BenchmarkScalingTPCHSF1 set Ocelot-CPU at one and two threads against
// the MonetDB baselines query by query, BenchmarkFusChain holds the fusion
// pass's evidence, and BenchmarkLaunchOverhead guards the runtime's
// per-launch dispatch cost. The figures themselves — Figures 5(a)–(i), 6 and
// 7(a)–(d) — are regenerated by cmd/ocelotbench (`-fig 5a`, …, `-fig 7d`),
// whose generators live in internal/bench.
//
// Timing semantics: wall-clock ns/op for MS, MP and Ocelot-CPU; for the
// simulated GPU the wall-clock ns/op measures functional execution on the
// host, and the additional "device-ns/op" metric reports the virtual device
// timeline (see DESIGN.md's substitution table).
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/mal"
	"repro/internal/mem"
	"repro/internal/ops"
	"repro/internal/tpch"
)

func benchCol(rows int, max int32, seed int64) *bat.BAT {
	r := rand.New(rand.NewSource(seed))
	s := mem.AllocI32(rows)
	for i := range s {
		s[i] = r.Int31n(max)
	}
	return bat.NewI32("bench", s)
}

// BenchmarkScalingTPCHLarge — benchScaling at SF 0.1.
func BenchmarkScalingTPCHLarge(b *testing.B) { benchScaling(b, 0.1) }

// BenchmarkScalingTPCHSmall — benchScaling at SF 0.01, where inputs are a few
// thousand rows and the costs that do not scale with them decide.
func BenchmarkScalingTPCHSmall(b *testing.B) { benchScaling(b, 0.01) }

// BenchmarkScalingTPCHSF1 — benchScaling at SF 1, the one scale whose builds
// the lookup table's identity addressing refuses (Q8's and Q17's part
// positions, Q21's grouping). A process peaks above 1 GB and one iteration of
// the four engines takes minutes, so CI runs it at -benchtime 1x in a step of
// its own and the bench smoke step skips it.
func BenchmarkScalingTPCHSF1(b *testing.B) { benchScaling(b, 1) }

// benchScaling — what the second core buys, and where Ocelot-CPU stands
// against the MonetDB baselines query by query. §4.2 launches n_c
// work-groups so that every core has one; this runs warm PlanCache replays of
// the 14 queries at scale factor sf on Ocelot-CPU with ConfigOptions.Threads
// 1 and 2, beside MS and MP (2 threads), the four engines alternated query by
// query inside every iteration. Before timing, it fails unless every
// engine's warm result equals MS's to the TPC-H equivalence suites'
// tolerance. It reports each engine's round (the sum of its per-query
// medians) and the Threads 2 / Threads 1 ratio of the rounds;
// per query, Threads 2 against MS and against MP: the geometric mean of the
// ratios, the worst ratio and the number of queries the baseline answers
// faster; and prints the per-query table.
func benchScaling(b *testing.B, sf float64) {
	db := tpch.Generate(sf, 42)
	queries := tpch.Queries()
	type side struct {
		name  string
		o     ops.Operators
		cache *mal.PlanCache
		ms    [][]float64 // per query, one sample per iteration
	}
	sides := []*side{
		{name: "T1", o: mal.OcelotCPU.Build(mal.ConfigOptions{Threads: 1})},
		{name: "T2", o: mal.OcelotCPU.Build(mal.ConfigOptions{Threads: 2})},
		{name: "MS", o: mal.MS.Build(mal.ConfigOptions{})},
		{name: "MP", o: mal.MP.Build(mal.ConfigOptions{Threads: 2})},
	}
	var res *mal.Result // the last replay's result
	replay := func(s *side, q tpch.Query) time.Duration {
		start := time.Now()
		var err error
		res, _, err = s.cache.Run(s.o, q.Name, nil, mal.DefaultPasses(), func(ms *mal.Session) *mal.Result {
			return q.Plan(ms, db)
		})
		if err != nil {
			b.Fatalf("%s Q%d: %v", s.name, q.Num, err)
		}
		return time.Since(start)
	}
	for _, s := range sides {
		s.cache, s.ms = mal.NewPlanCache(), make([][]float64, len(queries))
	}
	const ref = 2 // MS
	for _, q := range queries {
		warm := make([]*mal.Result, len(sides))
		for si, s := range sides {
			replay(s, q) // builds and seals the template
			replay(s, q) // first replay: hot cache, recycled buffers
			warm[si] = res
		}
		for si, s := range sides {
			if err := warm[si].EqualWithin(warm[ref], 2e-3); err != nil {
				b.Fatalf("Q%d: %s disagrees with MS: %v", q.Num, s.name, err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi, q := range queries {
			for _, s := range sides {
				s.ms[qi] = append(s.ms[qi], float64(replay(s, q))/1e6)
			}
		}
	}
	b.StopTimer()
	round := make([]float64, len(sides))
	// Per query, T2 against each baseline (by its index in sides): the
	// geometric mean of the ratios, the worst one and how many queries the
	// baseline answers faster — the round sums fourteen queries, so one long
	// query can hide the rest.
	type versus struct {
		base             string
		idx              int
		logRatios, worst float64
		worstQ, lost     int
	}
	vs := []*versus{{base: "MS", idx: 2}, {base: "MP", idx: 3}}
	table := "query      T1      T2      MS      MP   T2/T1   T2/MS   T2/MP  (ms, medians)\n"
	for qi, q := range queries {
		table += fmt.Sprintf("Q%-4d", q.Num)
		med := make([]float64, len(sides))
		for si, s := range sides {
			sort.Float64s(s.ms[qi])
			med[si] = s.ms[qi][len(s.ms[qi])/2]
			round[si] += med[si]
			table += fmt.Sprintf(" %7.2f", med[si])
		}
		table += fmt.Sprintf(" %7.2f", med[1]/med[0])
		for _, v := range vs {
			r := med[1] / med[v.idx]
			v.logRatios += math.Log(r)
			if r > v.worst {
				v.worst, v.worstQ = r, q.Num
			}
			if r > 1 {
				v.lost++
			}
			table += fmt.Sprintf(" %7.2f", r)
		}
		table += "\n"
	}
	for si, s := range sides {
		b.ReportMetric(round[si], s.name+"-ms/round")
	}
	b.ReportMetric(round[1]/round[0], "T2/T1")
	for _, v := range vs {
		b.ReportMetric(math.Exp(v.logRatios/float64(len(queries))), "T2/"+v.base+"-geomean")
		b.ReportMetric(v.worst, "T2/"+v.base+"-worst")
		b.ReportMetric(float64(v.lost), "queries-lost-to-"+v.base)
		table += fmt.Sprintf("worst T2/%s: Q%d\n", v.base, v.worstQ)
	}
	fmt.Printf("%s: %d iterations\n%s", b.Name(), b.N, table) // b.Log keeps ten lines
}

// BenchmarkFusChain compares the fused select→project→binop→sum chain
// against the same chain with the fusion pass disabled, per fusion-capable
// configuration. B/op and allocs/op (ReportAllocs) expose the intermediate
// materialisations fusion eliminates; on this reproduction device buffers
// are host allocations, so the delta covers device-side intermediates too.
func BenchmarkFusChain(b *testing.B) {
	const rows = 1 << 20
	k := benchCol(rows, 1000, 31)
	av := mem.AllocF32(rows)
	bv := mem.AllocF32(rows)
	for i := range av {
		av[i] = float32(i%997) * 0.5
		bv[i] = float32(i%911) * 0.25
	}
	a, c := bat.NewF32("a", av), bat.NewF32("b", bv)
	defer k.Free()
	defer a.Free()
	defer c.Free()

	plan := func(s *mal.Session) *mal.Result {
		sel := s.Select(k, nil, 0, 499, true, true)
		rev := s.Binop(ops.Mul, s.Project(sel, a), s.Project(sel, c))
		return s.Result([]string{"revenue"}, s.Aggr(ops.Sum, rev, nil, 0))
	}
	for _, cfg := range []mal.Config{mal.OcelotCPU, mal.OcelotGPU} {
		for _, fused := range []bool{true, false} {
			name := cfg.String() + "/unfused"
			if fused {
				name = cfg.String() + "/fused"
			}
			b.Run(name, func(b *testing.B) {
				o := cfg.Build(mal.ConfigOptions{GPUMemory: 1 << 30})
				passes := mal.DefaultPasses()
				passes.Fusion = fused
				run := func() error {
					s := mal.NewSession(o)
					s.SetPasses(passes)
					if _, err := mal.RunQuery(s, plan); err != nil {
						return err
					}
					return mal.Finish(o)
				}
				if err := run(); err != nil { // hot cache
					b.Fatal(err)
				}
				vStart, isGPU := mal.GPUTime(o)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if isGPU {
					vEnd, _ := mal.GPUTime(o)
					b.ReportMetric(float64(vEnd-vStart)/float64(b.N), "device-ns/op")
				}
			})
		}
	}
}

// BenchmarkLaunchOverhead measures the runtime's per-launch dispatch cost —
// the framework overhead of §5.3.2 / Figure 7(d) — by running N tiny
// dependent kernels end-to-end on the CPU driver: each launch does almost no
// work, so ns/op is dominated by enqueue, dependency resolution, work-group
// scheduling and completion. Back to back, the pool never parks; "idle-gap"
// launches and waits for one kernel after the device has sat idle for 1 ms, which is where a parked worker's wake-up costs. Its
// ns/op includes the 1 ms sleep; launch-ns/op is the launch and wait alone.
func BenchmarkLaunchOverhead(b *testing.B) {
	run := func(b *testing.B, l cl.Launch) {
		dev := cl.NewCPUDevice(0)
		ctx := cl.NewContext(dev)
		q := cl.NewQueue(ctx)
		buf, err := ctx.CreateBuffer(4)
		if err != nil {
			b.Fatal(err)
		}
		s := buf.I32()
		fn := func(t *cl.Thread) {
			if t.Global == 0 {
				s[0]++
			}
		}
		// Warm up the executor before timing.
		if err := q.EnqueueKernel(fn, l).Wait(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var ev *cl.Event
		for i := 0; i < b.N; i++ {
			launch := l
			launch.Wait = []*cl.Event{ev}
			ev = q.EnqueueKernel(fn, launch)
		}
		if err := ev.Wait(); err != nil {
			b.Fatal(err)
		}
		if err := q.Finish(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("chain", func(b *testing.B) {
		run(b, cl.Launch{Name: "tiny"})
	})
	b.Run("idle-gap", func(b *testing.B) {
		q := cl.NewQueue(cl.NewContext(cl.NewCPUDevice(0)))
		l := cl.Launch{Name: "after_idle"}
		fn := func(*cl.Thread) {}
		if err := q.EnqueueKernel(fn, l).Wait(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var busy time.Duration
		for i := 0; i < b.N; i++ {
			time.Sleep(time.Millisecond)
			start := time.Now()
			if err := q.EnqueueKernel(fn, l).Wait(); err != nil {
				b.Fatal(err)
			}
			busy += time.Since(start)
		}
		b.ReportMetric(float64(busy.Nanoseconds())/float64(b.N), "launch-ns/op")
	})
}
