package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the benchmark reports exactly the metrics it names.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, w := range sp.Workloads {
		if workloadByName(w.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		return nil, fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	return &sp, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects measured values by name; note holds what is printed next
// to a value (sample count, quartiles).
type metrics struct {
	val  map[string]float64
	note map[string]string
}

func newMetrics() *metrics {
	return &metrics{val: map[string]float64{}, note: map[string]string{}}
}

func (m *metrics) set(name string, v float64) { m.val[name] = v }

func (m *metrics) setNote(name string, v float64, format string, args ...any) {
	m.val[name] = v
	m.note[name] = fmt.Sprintf(format, args...)
}

// timing records a timing metric with its sample count and quartiles.
func (m *metrics) timing(name string, v float64, samples []float64) {
	q1, _, q3 := quartiles(samples)
	m.setNote(name, v, "n=%d q1=%.4g q3=%.4g", len(samples), q1, q3)
}

// report selects the metrics of one list. A metric of the end-to-end list
// must have been measured; a per-layer metric a workload does not produce is
// reported as 0. A measured name the lists do not know is a mismatch between
// BENCHMARK.json and the code.
func (m *metrics) report(list []metricSpec, all []metricSpec, mustHave bool) (map[string]metricValue, error) {
	known := map[string]bool{}
	for _, s := range all {
		known[s.Name] = true
	}
	var unknown []string
	for name := range m.val {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not in BENCHMARK.json: %v", unknown)
	}
	out := map[string]metricValue{}
	for _, s := range list {
		v, ok := m.val[s.Name]
		if !ok && mustHave {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return out, nil
}
