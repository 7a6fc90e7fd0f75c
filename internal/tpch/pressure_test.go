package tpch

import (
	"testing"

	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/ops"
)

// TestDevicePressureEquivalenceAllQueries is the memory-pressure acceptance
// test: every workload query on the hybrid engine with a GPU far smaller than
// its working set must produce results identical to the same engine with a
// GPU that holds everything. Under pressure the Memory Manager evicts, and
// what still does not fit the card (a join's table among them) fails there
// and runs on the CPU through the hybrid engine's fallback: both are
// execution strategies, never a semantics change. 2 MiB is the smallest GPU
// that works: core.Calibrate refuses a 1 MiB one.
//
// Placement prices what a device cannot hold, so on its own it routes most
// operators around the 2 MiB card and the Memory Manager seldom has to
// evict. The queries therefore run twice on the small engine: placed, and
// through its GPU view, where every operator tries the card first — that
// run must evict, and both must match the roomy engine to the byte.
func TestDevicePressureEquivalenceAllQueries(t *testing.T) {
	db := testDB(t)
	build := func(gpuMem int64) ops.Operators {
		return mal.Hybrid.Build(mal.ConfigOptions{Threads: 4, GPUMemory: gpuMem})
	}
	roomy, small := build(512<<20), build(2<<20)
	run := func(o ops.Operators, q Query) *mal.Result {
		res, err := mal.RunQuery(mal.NewSession(o), func(s *mal.Session) *mal.Result {
			return q.Plan(s, db)
		})
		if err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
		return res
	}
	h := small.(*hybrid.Engine)
	gpuFirst := h.On("GPU")
	evictions := func() int64 {
		ev, _, _ := h.Devices()[1].Eng.Memory().Stats()
		return ev
	}
	queries := Queries()
	var placed, pinned int64
	for _, q := range queries {
		want := run(roomy, q)
		before := evictions()
		if err := run(small, q).EqualWithin(want, 0); err != nil {
			t.Fatalf("Q%d: a 2 MiB GPU differs from a 512 MiB one: %v", q.Num, err)
		}
		mid := evictions()
		if err := run(gpuFirst, q).EqualWithin(want, 0); err != nil {
			t.Fatalf("Q%d: the 2 MiB GPU tried first differs from a 512 MiB one: %v", q.Num, err)
		}
		placed, pinned = placed+mid-before, pinned+evictions()-mid
	}
	if pinned == 0 {
		t.Fatal("with every operator trying it first, a 2 MiB GPU never evicted: the pressure did not bind")
	}
	t.Logf("%d queries identical; %d evictions on the 2 MiB GPU placed, %d with the GPU tried first", len(queries), placed, pinned)
}
