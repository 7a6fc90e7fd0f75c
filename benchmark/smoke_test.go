package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for a tenth of its window with tracing on, so
// that the benchmark keeps compiling and verifying as the code under it
// changes. No timing is asserted.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{root: root, workload: w.name, seed: 1, seconds: float64(sp.RunSeconds) / 10, trace: 1, smoke: true}
			res, err := runWorkload(w, sp, o, threads())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
			}
			if len(res.Metrics) != len(sp.PerLayer) {
				t.Errorf("%d metrics reported, BENCHMARK.json lists %d per layer", len(res.Metrics), len(sp.PerLayer))
			}
			pressure := []string{
				"cl.transfers_per_round", "cl.transfer_kb_per_round", "cl.virtual_ms_per_round",
				"core.mm_evictions_per_round", "core.mm_offloads_per_round", "core.mm_reloads_per_round",
				"core.spill_joins_per_round", "core.spill_kb_per_round", "core.dev_peak_mb",
			}
			var sum float64
			for _, name := range pressure {
				sum += res.Metrics[name].Value
			}
			if w.engine == "HYB" && sum == 0 {
				t.Error("no device-memory pressure on the workload built for it")
			}
			if w.engine != "HYB" && sum != 0 {
				t.Errorf("device counters read %v on a CPU-only workload, want 0", sum)
			}
			raw, err := os.ReadFile(filepath.Join(root, "benchmark", "out", "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
				t.Errorf("span file: %d spans, error %v", len(spans), err)
			}
		})
	}
}
