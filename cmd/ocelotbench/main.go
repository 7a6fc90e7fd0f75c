// Command ocelotbench regenerates the paper's evaluation: every
// microbenchmark of Figure 5, the sort experiment of Figure 6, and the
// TPC-H experiments of Figure 7, printing the same series the paper plots.
//
// Usage:
//
//	ocelotbench -fig 5a                    # one figure
//	ocelotbench -all                       # the whole evaluation
//	ocelotbench -fig 7b -sf 0.4 -runs 5    # override experiment scale
//	ocelotbench -fig 5a -sizes 16,32,64    # override the size sweep
//	ocelotbench -all -json BENCH_PR2.json  # machine-readable trajectory record
//
// Sizes default to a laptop-scale rendition of the paper's sweeps; the
// flags restore any scale the machine can hold. See DESIGN.md for the
// recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/mal"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure(s) to regenerate, comma-separated: 5a..5i, 6, 7a..7d, a1..a4, pc")
		all     = flag.Bool("all", false, "regenerate every figure")
		sizes   = flag.String("sizes", "", "comma-separated size sweep in MB (Fig 5/6)")
		baseMB  = flag.Int("base", 0, "fixed column size in MB for parameter sweeps")
		runs    = flag.Int("runs", 0, "measured repetitions per point")
		threads = flag.Int("threads", 0, "parallelism for MP and the Ocelot CPU driver (0 = all cores)")
		gpuMem  = flag.Int64("gpumem", 0, "simulated GPU memory in MiB")
		sf      = flag.Float64("sf", 0, "TPC-H scale factor override (Fig 7)")
		pause   = flag.Duration("cpupause", 0, "per-launch Ocelot-CPU pause emulating the Intel SDK overhead (Fig 7)")
		configs = flag.String("configs", "", "comma-separated subset of MS,MP,CPU,GPU,HYB")
		seed    = flag.Int64("seed", 42, "data generator seed")
		jsonOut = flag.String("json", "", "also write machine-readable figure records (median ns/op, bytes alloc) to this file")
		verify  = flag.Bool("verify", false, "run the plan-IR verifier after every rewriter pass (plan builds only; cached replays stay verifier-free)")
	)
	flag.Parse()
	if *verify {
		mal.SetDefaultVerify(true)
	}

	opt := bench.Options{
		BaseMB:         *baseMB,
		Runs:           *runs,
		Threads:        *threads,
		GPUMemory:      *gpuMem << 20,
		CPULaunchPause: *pause,
		Seed:           *seed,
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			mb, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || mb <= 0 {
				fatalf("bad -sizes entry %q", s)
			}
			opt.SizesMB = append(opt.SizesMB, mb)
		}
	}
	if *configs != "" {
		byName := map[string]mal.Config{"MS": mal.MS, "MP": mal.MP, "CPU": mal.OcelotCPU, "GPU": mal.OcelotGPU, "HYB": mal.Hybrid}
		for _, c := range strings.Split(*configs, ",") {
			cfg, ok := byName[strings.ToUpper(strings.TrimSpace(c))]
			if !ok {
				fatalf("unknown configuration %q (want MS,MP,CPU,GPU,HYB)", c)
			}
			opt.Configs = append(opt.Configs, cfg)
		}
	}
	topt := bench.TPCHOptions{Options: opt, SF: *sf}

	var figs []string
	if *all {
		figs = []string{"5a", "5b", "5c", "5d", "5e", "5f", "5g", "5h", "5i", "6",
			"7a", "7b", "7c", "7d", "a1", "a2", "a3", "a4", "pc"}
	} else if *fig != "" {
		for _, f := range strings.Split(*fig, ",") {
			figs = append(figs, strings.ToLower(strings.TrimSpace(f)))
		}
	} else {
		flag.Usage()
		os.Exit(2)
	}

	micro := bench.MicroFigures()
	ablations := bench.Ablations()
	var records []bench.FigureJSON
	for _, f := range figs {
		start := time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		beforeAllocs := ms.Mallocs

		// Every figure kind renders as text and converts to a trajectory
		// record the same way.
		var rep interface {
			String() string
			JSON(bytesAlloc, allocsOp int64) bench.FigureJSON
		}
		switch {
		case micro[f] != nil:
			rep = micro[f](opt)
		case ablations[f] != nil:
			rep = ablations[f](opt)
		case f == "7a":
			rep = bench.Fig7a(topt)
		case f == "7b":
			rep = bench.Fig7b(topt)
		case f == "7c":
			rep = bench.Fig7c(topt)
		case f == "7d":
			rep = bench.Fig7d(topt)
		case f == "pc":
			rep = bench.PlanCacheFigure(topt)
		default:
			known := make([]string, 0, len(micro)+len(ablations))
			for k := range micro {
				known = append(known, k)
			}
			for k := range ablations {
				known = append(known, k)
			}
			sort.Strings(known)
			fatalf("unknown figure %q (known: %s 7a 7b 7c 7d pc)", f, strings.Join(known, " "))
		}
		fmt.Println(rep)
		runtime.ReadMemStats(&ms)
		records = append(records, rep.JSON(int64(ms.TotalAlloc-before), int64(ms.Mallocs-beforeAllocs)))
		fmt.Printf("(%s regenerated in %v)\n\n", f, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, records); err != nil {
			fatalf("writing %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %d figure records to %s\n", len(records), *jsonOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocelotbench: "+format+"\n", args...)
	os.Exit(1)
}
