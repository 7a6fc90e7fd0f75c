// Package repro's benchmark suite: one testing.B benchmark per experiment
// of the paper's evaluation — Figures 5(a)–(i), Figure 6 and Figures
// 7(a)–(d) — each with a sub-benchmark per configuration (MS, MP, CPU,
// GPU). `go test -bench=. -benchmem` runs a reduced-size rendition of the
// whole evaluation; cmd/ocelotbench regenerates the full figures with the
// paper's sweeps.
//
// Timing semantics: wall-clock ns/op for MS, MP and Ocelot-CPU; for the
// simulated GPU the wall-clock ns/op measures functional execution on the
// host, and the additional "device-ns/op" metric reports the virtual device
// timeline the figures plot (see DESIGN.md's substitution table).
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

const benchRows = 2 << 20 // 8 MB columns: the reduced rendition of 64-1024MB

func benchCol(rows int, max int32, seed int64) *bat.BAT {
	r := rand.New(rand.NewSource(seed))
	s := mem.AllocI32(rows)
	for i := range s {
		s[i] = r.Int31n(max)
	}
	return bat.NewI32("bench", s)
}

func benchOIDs(rows int) *bat.BAT {
	s := mem.AllocU32(rows)
	for i := range s {
		s[i] = uint32(i)
	}
	b := bat.NewOID("ids", s)
	b.Props.Sorted, b.Props.Key = true, true
	return b
}

// perConfig runs the measured op as a sub-benchmark under each
// configuration. setup may return per-engine state handed to op.
func perConfig(b *testing.B, setup func(o ops.Operators) any, op func(o ops.Operators, state any) error) {
	for _, cfg := range mal.AllConfigs() {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			o := cfg.Build(mal.ConfigOptions{GPUMemory: 1 << 30})
			var state any
			if setup != nil {
				state = setup(o)
			}
			// Warm-up: populates the device cache (hot-cache methodology).
			if err := op(o, state); err != nil {
				b.Fatal(err)
			}
			if err := mal.Finish(o); err != nil {
				b.Fatal(err)
			}
			vStart, isGPU := mal.GPUTime(o)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(o, state); err != nil {
					b.Fatal(err)
				}
			}
			if err := mal.Finish(o); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if isGPU {
				vEnd, _ := mal.GPUTime(o)
				b.ReportMetric(float64(vEnd-vStart)/float64(b.N), "device-ns/op")
			}
		})
	}
}

func release(o ops.Operators, bats ...*bat.BAT) {
	for _, x := range bats {
		if x != nil {
			o.Release(x)
		}
	}
}

// BenchmarkFig5aSelectionScale — range selection, selectivity 0.05 (§5.2.1).
func BenchmarkFig5aSelectionScale(b *testing.B) {
	col := benchCol(benchRows, 1000, 1)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, err := o.Select(col, nil, 0, 49, true, true)
		release(o, res)
		return err
	})
}

// BenchmarkFig5bSelectionSelectivity — range selection at 75% selectivity;
// compare with Fig5a's 5% to see the bitmap-vs-oid-list effect (§5.2.1).
func BenchmarkFig5bSelectionSelectivity(b *testing.B) {
	col := benchCol(benchRows, 1000, 2)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, err := o.Select(col, nil, 0, 749, true, true)
		release(o, res)
		return err
	})
}

// BenchmarkFig5cFetchJoin — left fetch join through a materialised oid
// list (§5.2.2).
func BenchmarkFig5cFetchJoin(b *testing.B) {
	ids := benchOIDs(benchRows)
	col := benchCol(benchRows, 1<<20, 3)
	defer ids.Free()
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, err := o.Project(ids, col)
		release(o, res)
		return err
	})
}

// BenchmarkFig5dAggregation — ungrouped MIN (§5.2.3).
func BenchmarkFig5dAggregation(b *testing.B) {
	col := benchCol(benchRows, 1<<30, 4)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, err := o.Aggr(ops.Min, col, nil, 0)
		release(o, res)
		return err
	})
}

// BenchmarkFig5eHashBuild — hash table build, 100 distinct values (§5.2.4).
func BenchmarkFig5eHashBuild(b *testing.B) {
	col := benchCol(benchRows/4, 100, 5)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		invalidate(o, col)
		ht, err := o.BuildHash(col)
		if err != nil {
			return err
		}
		invalidate(o, col)
		ht.Release()
		return nil
	})
}

// BenchmarkFig5fHashDistinct — hash build with 10000 distinct values;
// compare with Fig5e's 100 for the contention trend (§5.2.4).
func BenchmarkFig5fHashDistinct(b *testing.B) {
	col := benchCol(benchRows/4, 10000, 6)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		invalidate(o, col)
		ht, err := o.BuildHash(col)
		if err != nil {
			return err
		}
		invalidate(o, col)
		ht.Release()
		return nil
	})
}

// BenchmarkFig5gGroupScale — grouping with 100 groups (§5.2.5).
func BenchmarkFig5gGroupScale(b *testing.B) {
	col := benchCol(benchRows/2, 100, 7)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, _, err := o.Group(col, nil, 0)
		release(o, res)
		return err
	})
}

// BenchmarkFig5hGroupDistinct — grouping with 10000 groups (§5.2.5).
func BenchmarkFig5hGroupDistinct(b *testing.B) {
	col := benchCol(benchRows/2, 10000, 8)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		res, _, err := o.Group(col, nil, 0)
		release(o, res)
		return err
	})
}

// BenchmarkFig5iHashJoin — PK-FK probe against a fixed 100-key build side,
// build time excluded (§5.2.6).
func BenchmarkFig5iHashJoin(b *testing.B) {
	build := benchCol(100, 1, 9)
	bv := build.I32s()
	for i := range bv {
		bv[i] = int32(i * 7)
	}
	build.Props.Key = true
	probe := benchCol(benchRows, 100, 10)
	pv := probe.I32s()
	for i := range pv {
		pv[i] *= 7
	}
	defer build.Free()
	defer probe.Free()
	perConfig(b,
		func(o ops.Operators) any {
			ht, err := o.BuildHash(build)
			if err != nil {
				b.Fatal(err)
			}
			return ht
		},
		func(o ops.Operators, state any) error {
			ht := state.(ops.HashTable)
			l, r, err := o.HashProbe(probe, ht)
			release(o, l, r)
			return err
		})
}

// BenchmarkFig6Sort — radix sort vs. quick/merge sort (§5.2.7).
func BenchmarkFig6Sort(b *testing.B) {
	col := benchCol(benchRows/2, 1<<31-1, 11)
	defer col.Free()
	perConfig(b, nil, func(o ops.Operators, _ any) error {
		sorted, order, err := o.Sort(col)
		release(o, sorted, order)
		return err
	})
}

// benchTPCH runs the full workload per configuration at a small scale.
func benchTPCH(b *testing.B, sf float64, gpuMem int64, configs []mal.Config) {
	db := tpch.Generate(sf, 42)
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			o := cfg.Build(mal.ConfigOptions{GPUMemory: gpuMem})
			run := func() error {
				for _, q := range tpch.Queries() {
					s := mal.NewSession(o)
					if _, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
						return q.Plan(s, db)
					}); err != nil {
						return err
					}
				}
				return mal.Finish(o)
			}
			if err := run(); err != nil { // hot cache
				b.Fatal(err)
			}
			vStart, isGPU := mal.GPUTime(o)
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

// BenchmarkFig7aTPCHSmall — the 14-query workload, everything on-device
// (paper: SF 1).
func BenchmarkFig7aTPCHSmall(b *testing.B) {
	benchTPCH(b, 0.01, 1<<30, mal.AllConfigs())
}

// BenchmarkFig7bTPCHMid — the workload under GPU memory pressure (paper:
// SF 8): device memory below the working set forces Memory Manager
// swapping.
func BenchmarkFig7bTPCHMid(b *testing.B) {
	benchTPCH(b, 0.05, 16<<20, mal.AllConfigs())
}

// BenchmarkFig7cTPCHLarge — the workload at the largest scale, CPU
// configurations only (paper: SF 50).
func BenchmarkFig7cTPCHLarge(b *testing.B) {
	benchTPCH(b, 0.1, 0, []mal.Config{mal.MS, mal.MP, mal.OcelotCPU})
}

// BenchmarkScalingTPCHLarge — benchScaling at SF 0.1.
func BenchmarkScalingTPCHLarge(b *testing.B) { benchScaling(b, 0.1) }

// BenchmarkScalingTPCHSmall — benchScaling at SF 0.01, where inputs are a few
// thousand rows and the costs that do not scale with them decide.
func BenchmarkScalingTPCHSmall(b *testing.B) { benchScaling(b, 0.01) }

// benchScaling — what the second core buys, and where Ocelot-CPU stands
// against the MonetDB baselines query by query. §4.2 launches n_c
// work-groups so that every core has one; this runs warm PlanCache replays of
// the 14 queries at scale factor sf on Ocelot-CPU with ConfigOptions.Threads
// 1 and 2, beside MS and MP (2 threads), the four engines alternated query by
// query inside every iteration. It reports each engine's round (the sum of
// its per-query medians) and the Threads 2 / Threads 1 ratio of the rounds;
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
	replay := func(s *side, q tpch.Query) time.Duration {
		start := time.Now()
		_, _, err := s.cache.Run(s.o, q.Name, nil, mal.DefaultPasses(), func(ms *mal.Session) *mal.Result {
			return q.Plan(ms, db)
		})
		if err != nil {
			b.Fatalf("%s Q%d: %v", s.name, q.Num, err)
		}
		return time.Since(start)
	}
	for _, s := range sides {
		s.cache, s.ms = mal.NewPlanCache(), make([][]float64, len(queries))
		for _, q := range queries {
			replay(s, q) // builds and seals the template
			replay(s, q) // first replay: hot cache, recycled buffers
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

// BenchmarkFig7dQ1Scaling — Q1 at two scale factors per configuration; the
// ratio exposes the linear trend of Fig. 7(d).
func BenchmarkFig7dQ1Scaling(b *testing.B) {
	for _, sf := range []float64{0.01, 0.04} {
		db := tpch.Generate(sf, 42)
		q1 := tpch.QueryByNum(1)
		for _, cfg := range mal.AllConfigs() {
			cfg := cfg
			b.Run(b.Name()+"/sf="+ftoa(sf)+"/"+cfg.String(), func(b *testing.B) {
				o := cfg.Build(mal.ConfigOptions{GPUMemory: 1 << 30})
				run := func() error {
					s := mal.NewSession(o)
					_, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
						return q1.Plan(s, db)
					})
					if err != nil {
						return err
					}
					return mal.Finish(o)
				}
				if err := run(); err != nil {
					b.Fatal(err)
				}
				vStart, isGPU := mal.GPUTime(o)
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

// BenchmarkFusChain compares the fused select→project→binop→sum chain
// against the same chain with the fusion pass disabled, per fusion-capable
// configuration. B/op and allocs/op (ReportAllocs) expose the intermediate
// materialisations fusion eliminates; on this reproduction device buffers
// are host allocations, so the delta covers device-side intermediates too.
func BenchmarkFusChain(b *testing.B) {
	rows := benchRows / 2
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
// scheduling and completion. The "local" variant adds work-group local
// memory so the scratch-reuse path is exercised too.
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
	b.Run("chain-local", func(b *testing.B) {
		run(b, cl.Launch{Name: "tiny_local", LocalWords: 256})
	})
}

func ftoa(f float64) string {
	if f == 0.01 {
		return "0.01"
	}
	return "0.04"
}

// invalidate defeats the hash-table cache between build benchmark runs.
func invalidate(o ops.Operators, col *bat.BAT) {
	type invalidator interface{ InvalidateHash(*bat.BAT) }
	if inv, ok := o.(invalidator); ok {
		inv.InvalidateHash(col)
	}
}
