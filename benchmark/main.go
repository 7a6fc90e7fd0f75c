// Command benchmark is the repository's one pinned benchmark: five workloads
// through the serve layer, every response checked against the sequential
// MonetDB baseline, every layer measured. See README.md.
//
//	go run . --workload tpch_small --seed 1 --seconds 12 --trace 0
//
// runs one workload and prints, as the last line, one JSON object with the
// metrics BENCHMARK.json lists. Without --workload it runs all five, each in
// its own child process, with and without tracing, and writes
// out/result.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runResult is the last line of a run's standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", "..", "directory that holds BENCHMARK.json")
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: request order, popularity, parameters, arrival times")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass and per-layer metrics")
	flag.BoolVar(&o.aa, "aa", false, "run the whole benchmark twice and compare the two against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "a tenth of the window and one set-up, for development; no bounds apply")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sp, err := loadSpec(o.root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.smoke {
		o.seconds /= 10
	}
	if o.workload == "" {
		return runAll(o, sp)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	runtime.GOMAXPROCS(threads())

	res, err := runWorkload(w, sp, o, threads())
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// threads is GOMAXPROCS and every engine's thread count: two cores whatever
// the machine has, so that runs on different machines queue work the same way.
func threads() int { return min(runtime.NumCPU(), 2) }

// outDir returns (creating it) the directory the span files and the result
// record are written to.
func outDir(root string) (string, error) {
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// printMetrics prints every reported metric by name with its unit.
func printMetrics(w *workload, m *metrics, reported map[string]metricValue, list []metricSpec) {
	for _, s := range list {
		v := reported[s.Name]
		fmt.Printf("%-16s %-34s %14.6g %-6s %s\n", w.name, s.Name, v.Value, v.Unit, m.note[s.Name])
	}
}
