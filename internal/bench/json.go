package bench

import (
	"encoding/json"
	"math"
	"os"
	"sort"
)

// FigureJSON is the machine-readable record of one regenerated figure, the
// unit of the repository's benchmark trajectory (BENCH_PR*.json): per
// configuration, the median across the figure's measured points in ns/op
// (one "op" being one measured operator/query run), plus the host bytes the
// whole regeneration allocated. Medians are robust to the sweep's extreme
// points; NaN points (configurations that could not run, e.g. the GPU line
// ending when the input exceeds device memory) are excluded.
type FigureJSON struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// MedianNsPerOp maps configuration label → median ns per measured run.
	MedianNsPerOp map[string]int64 `json:"median_ns_per_op"`
	// BytesAlloc is the total host allocation of regenerating the figure
	// (runtime.MemStats.TotalAlloc delta — B/op at figure granularity).
	BytesAlloc int64 `json:"bytes_alloc"`
	// AllocsOp is the total host allocation count of regenerating the
	// figure (runtime.MemStats.Mallocs delta — allocs/op at figure
	// granularity).
	AllocsOp int64 `json:"allocs_op"`
}

func medianNs(millis []float64) (int64, bool) {
	vals := make([]float64, 0, len(millis))
	for _, v := range millis {
		if !math.IsNaN(v) && v >= 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	sort.Float64s(vals)
	mid := vals[len(vals)/2]
	if len(vals)%2 == 0 {
		mid = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
	}
	return int64(mid * 1e6), true
}

// JSON converts a sweep figure to its trajectory record.
func (r *Report) JSON(bytesAlloc, allocsOp int64) FigureJSON {
	out := FigureJSON{ID: r.ID, Title: r.Title, MedianNsPerOp: map[string]int64{}, BytesAlloc: bytesAlloc, AllocsOp: allocsOp}
	for label, series := range r.Millis {
		if ns, ok := medianNs(series); ok {
			out.MedianNsPerOp[label] = ns
		}
	}
	return out
}

// JSON converts a TPC-H per-query figure to its trajectory record (seconds
// → ns).
func (r *QueryReport) JSON(bytesAlloc, allocsOp int64) FigureJSON {
	out := FigureJSON{ID: r.ID, Title: r.Title, MedianNsPerOp: map[string]int64{}, BytesAlloc: bytesAlloc, AllocsOp: allocsOp}
	for label, secs := range r.Seconds {
		millis := make([]float64, len(secs))
		for i, s := range secs {
			if s < 0 {
				millis[i] = math.NaN()
				continue
			}
			millis[i] = s * 1e3
		}
		if ns, ok := medianNs(millis); ok {
			out.MedianNsPerOp[label] = ns
		}
	}
	return out
}

// WriteJSON writes the figure records, sorted by id, as an indented JSON
// array — the file CI and trajectory tooling diff across PRs.
func WriteJSON(path string, figs []FigureJSON) error {
	sort.Slice(figs, func(i, j int) bool { return figs[i].ID < figs[j].ID })
	data, err := json.MarshalIndent(figs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
