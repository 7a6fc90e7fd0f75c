package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by the
// benchmark around its calls into each layer's public functions, kept in
// memory, and written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace began
	End    int64  `json:"end"`
	Parent int    `json:"parent"` // index of the causing span; -1 for a root
	Req    int    `json:"req"`    // spans of one request share this
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// child records a span of known length at the start of its parent: time a
// layer reports about itself (Session.OpTime) rather than a call the
// benchmark can bracket.
func (t *tracer) child(name string, parent int, d time.Duration) int {
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Start: p.Start, End: p.Start + int64(d), Parent: parent, Req: p.Req})
	return len(t.spans) - 1
}

func (t *tracer) duration(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
