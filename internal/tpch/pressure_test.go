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
func TestDevicePressureEquivalenceAllQueries(t *testing.T) {
	db := testDB(t)
	build := func(gpuMem int64) ops.Operators {
		return mal.Hybrid.Build(mal.ConfigOptions{Threads: 4, GPUMemory: gpuMem, GPUs: 1})
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
	queries := Queries()
	for _, q := range queries {
		if err := run(small, q).EqualWithin(run(roomy, q), 0); err != nil {
			t.Fatalf("Q%d: a 2 MiB GPU differs from a 512 MiB one: %v", q.Num, err)
		}
	}
	var evictions int64
	for _, d := range small.(*hybrid.Engine).Devices() {
		ev, _, _ := d.Eng.Memory().Stats()
		evictions += ev
	}
	if evictions == 0 {
		t.Fatal("a 2 MiB GPU never evicted: the pressure did not bind")
	}
	t.Logf("%d queries identical; %d evictions on the 2 MiB GPU", len(queries), evictions)
}
