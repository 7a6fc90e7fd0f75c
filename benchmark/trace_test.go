package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "serve", Start: 10, End: 40, Parent: 0},
		{Name: "mal.cache", Start: 30, End: 60, Parent: 0},   // overlaps serve by 10
		{Name: "mal.replay", Start: 70, End: 120, Parent: 0}, // runs past its parent
		{Name: "mal.ops", Start: 70, End: 90, Parent: 3},
		{Name: "other request", Start: 200, End: 250, Parent: -1},
	}
	want := []time.Duration{20, 30, 30, 30, 20, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerWritesLoadableSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request:Q1", -1, 7)
	id := tr.begin("mal.replay", root, 7)
	tr.end(id)
	kid := tr.child("mal.ops", id, 5*time.Nanosecond)
	tr.end(root)
	if s := tr.spans[kid]; s.Start != tr.spans[id].Start || s.End-s.Start != 5 || s.Parent != id || s.Req != 7 {
		t.Errorf("child span = %+v", s)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[1].Name != "mal.replay" || back[1].Parent != 0 || back[0].Parent != -1 {
		t.Errorf("loaded spans = %+v", back)
	}
}
