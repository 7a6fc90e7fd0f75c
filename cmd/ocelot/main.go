// Command ocelot runs single TPC-H workload queries under any of the
// configurations, optionally printing the plan before and after the
// rewriter pass pipeline ran — the same way the paper derives and inspects
// its plans (§5.2).
//
// Usage:
//
//	ocelot -q 6                       # Q6 on all four configurations
//	ocelot -q 1 -config GPU -explain  # one configuration, plan before/after rewriting
//	ocelot -q 21 -sf 0.1 -rows        # show result rows
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/tpch"
)

func main() {
	var (
		qnum    = flag.Int("q", 6, "TPC-H query number (1,3,4,5,6,7,8,10,11,12,15,17,19,21)")
		sf      = flag.Float64("sf", 0.01, "scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		config  = flag.String("config", "", "run only one of MS,MP,CPU,GPU")
		explain = flag.Bool("explain", false, "print the instruction trace")
		rows    = flag.Bool("rows", false, "print result rows")
		threads = flag.Int("threads", 0, "parallelism (0 = all cores)")
		gpuMem  = flag.Int64("gpumem", 1024, "simulated GPU memory in MiB")
		verify  = flag.Bool("verify", false, "run the plan-IR verifier after every rewriter pass")
		skew    = flag.Float64("skew", 0, "Zipf exponent of the generated data (0 = uniform, the TPC-H default)")
	)
	flag.Parse()
	if *verify {
		mal.SetDefaultVerify(true)
	}

	q := tpch.QueryByNum(*qnum)
	if q == nil {
		for _, ext := range tpch.ExtensionQueries() {
			if ext.Num == *qnum {
				ext := ext
				q = &ext
				break
			}
		}
	}
	if q == nil {
		fmt.Fprintf(os.Stderr, "ocelot: Q%d is neither in the modified workload (App. A.1) nor an extension\n", *qnum)
		os.Exit(1)
	}
	db := tpch.GenerateSkewed(*sf, *seed, *skew)
	if *skew > 0 {
		fmt.Printf("Q%d (%s) on TPC-H SF %g, Zipf θ=%g\n\n", q.Num, q.Name, *sf, *skew)
	} else {
		fmt.Printf("Q%d (%s) on TPC-H SF %g\n\n", q.Num, q.Name, *sf)
	}

	configs := mal.AllConfigs()
	if *config != "" {
		byName := map[string]mal.Config{"MS": mal.MS, "MP": mal.MP, "CPU": mal.OcelotCPU, "GPU": mal.OcelotGPU, "HYB": mal.Hybrid}
		c, ok := byName[strings.ToUpper(*config)]
		if !ok {
			fmt.Fprintf(os.Stderr, "ocelot: unknown configuration %q\n", *config)
			os.Exit(1)
		}
		configs = []mal.Config{c}
	}

	for _, cfg := range configs {
		o := cfg.Build(mal.ConfigOptions{Threads: *threads, GPUMemory: *gpuMem << 20})
		s := mal.NewSession(o)
		if *explain {
			s.EnableTrace()
		}

		vBefore, isGPU := mal.GPUTime(o)
		start := time.Now()
		res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
		if err != nil {
			fmt.Printf("%-4s error: %v\n", cfg, err)
			continue
		}
		if err := mal.Finish(o); err != nil {
			fmt.Printf("%-4s finish error: %v\n", cfg, err)
			continue
		}
		wall := time.Since(start)
		line := fmt.Sprintf("%-4s %-34s %d rows, wall %v", cfg, o.Name(), res.Rows(), wall.Round(time.Microsecond))
		if isGPU {
			vAfter, _ := mal.GPUTime(o)
			line += fmt.Sprintf(", device time %v", (vAfter - vBefore).Round(time.Microsecond))
		}
		fmt.Println(line)
		if *explain {
			fmt.Print(s.ExplainBefore())
			fmt.Print(s.Explain())
			if hyb, ok := o.(*hybrid.Engine); ok {
				for _, d := range hyb.Devices() {
					fmt.Printf("    %-5s %s\n", d.Label, d.Prof)
				}
				for op, m := range hyb.Placements() {
					fmt.Printf("    placement %-14s %v\n", op, m)
				}
				for _, d := range hyb.Devices() {
					printExecutor(d.Label, d.Eng)
				}
			} else if eng, ok := o.(*core.Engine); ok {
				printExecutor(cfg.String(), eng)
			}
		}
		if *rows {
			fmt.Println(res)
		}
	}
}

// printExecutor is the -explain footer's line on a device's worker pool: how
// many multi-group launches had a second goroutine on them, how many ran on
// one, and how many ready commands found no parked worker.
func printExecutor(label string, e *core.Engine) {
	st := e.Device().ExecutorStats()
	fmt.Printf("    %-5s executor: of %d launches %d ran on several goroutines, %d on one despite several groups; %d commands unpooled\n",
		label, e.Device().KernelLaunches(), st.Shared, st.Alone, st.Unpooled)
}
