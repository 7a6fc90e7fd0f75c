package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// record is out/result.json: the environment and every workload's metrics.
type record struct {
	Env       map[string]string                 `json:"env"`
	Workloads map[string]map[string]metricValue `json:"workloads"`
	Failed    map[string]int                    `json:"failed"`
}

// environment describes where the numbers were taken.
func environment(o options) map[string]string {
	env := map[string]string{
		"go":            runtime.Version(),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(threads()),
		"data_seed":     strconv.Itoa(dataSeed),
		"workload_seed": strconv.FormatInt(o.seed, 10),
		"seconds":       strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"commit":        "unknown",
		"cpu":           "unknown",
	}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// runChild runs one workload in a child process — so that heap state and GC
// history do not leak between workloads — echoes its output, waits for it,
// and parses its last line.
func runChild(o options, workload string, trace int) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"--root", o.root, "--workload", workload,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", workload, trace, err)
	}
	return &res, nil
}

// runOnce runs every workload with tracing off and on and returns the record.
func runOnce(o options, sp *spec) (*record, error) {
	rec := &record{Env: environment(o), Workloads: map[string]map[string]metricValue{}, Failed: map[string]int{}}
	for _, w := range sp.Workloads {
		rec.Workloads[w.Name] = map[string]metricValue{}
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(o, w.Name, trace)
			if err != nil {
				return nil, err
			}
			for name, v := range res.Metrics {
				rec.Workloads[w.Name][name] = v
			}
			rec.Failed[w.Name] += res.Failed
			if !res.Correct {
				rec.Failed[w.Name] = max(rec.Failed[w.Name], 1)
			}
		}
	}
	return rec, nil
}

// runAll is the benchmark without --workload: all five workloads, and with
// -aa twice, compared.
func runAll(o options, sp *spec) error {
	start := time.Now()
	first, err := runOnce(o, sp)
	if err != nil {
		return err
	}
	dir, err := outDir(o.root)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(first, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), raw, 0o644); err != nil {
		return err
	}
	bad := 0
	for _, w := range sp.Workloads {
		bad += first.Failed[w.Name]
	}
	crossChecks(first)
	if o.aa {
		second, err := runOnce(o, sp)
		if err != nil {
			return err
		}
		for _, w := range sp.Workloads {
			bad += second.Failed[w.Name]
		}
		bad += compare(sp, first, second, !o.smoke)
	}
	fmt.Printf("benchmark: %d workloads in %.0f s, record in %s\n", len(sp.Workloads), time.Since(start).Seconds(), filepath.Join(dir, "result.json"))
	if bad > 0 {
		return fmt.Errorf("%d failed operations, unmet checks or metrics out of bounds", bad)
	}
	return nil
}

// crossChecks prints the predictions that span two workloads. They are about
// times, so they are printed only.
func crossChecks(rec *record) {
	small := rec.Workloads["tpch_small"]["cl.launch_share"].Value
	large := rec.Workloads["tpch_large"]["cl.launch_share"].Value
	verdict := "ok"
	if large >= small/10 {
		verdict = "NOT MET"
	}
	fmt.Printf("%-16s check %-7s launches cost tpch_large under a tenth of the share they cost tpch_small: %.4f against %.4f\n",
		"benchmark", verdict, large, small)
}

// compare prints, per workload and end-to-end metric, both values, how much
// worse the second is than the first, and whether that is within the bound.
// It returns the number of metrics out of bounds (none when not gating).
func compare(sp *spec, a, b *record, gate bool) int {
	out := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range sp.Workloads {
		for _, s := range sp.EndToEnd {
			x, y := a.Workloads[w.Name][s.Name].Value, b.Workloads[w.Name][s.Name].Value
			worse := ratio(y-x, x)
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if gate && worse > s.Bound {
				verdict = "OUT"
				out++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n", w.Name, s.Name, x, y, 100*worse, 100*s.Bound, verdict)
		}
	}
	return out
}
