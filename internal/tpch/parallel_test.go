package tpch

import (
	"testing"

	"repro/internal/mal"
	"repro/internal/ops"
)

// TestParallelEquivalenceAllQueries is the PR 7 acceptance suite: executing
// every workload query with the plan-level parallel scheduler must produce
// results identical to the serial interpreter, on every configuration.
// Lane-serialized dispatch means each device sees the same command sequence
// as a serial run, so with the order-stable kernels byte-identity is the
// expectation, not a tolerance match. As in the fusion suite, each (query,
// engine) pair first probes its own determinism with two serial runs;
// deterministic pairs demand exactness, the rest the atomic-jitter
// tolerance. On the single-device configurations the scheduler never
// engages (no pinned lanes) — the pairs still run, pinning down that
// SetParallel's default is harmless there. The hybrid (CPU + GPU) must
// actually exercise the parallel executor on at least one query.
func TestParallelEquivalenceAllQueries(t *testing.T) {
	db := testDB(t)
	opts := mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20}

	type engine struct {
		name string
		o    ops.Operators
		// hybrid marks the one configuration with placement pins, hence the
		// only one where the parallel scheduler can find disjoint lanes.
		hybrid bool
	}
	engines := []engine{
		{"MS", mal.MS.Build(opts), false},
		{"MP", mal.MP.Build(opts), false},
		{"OcelotCPU", mal.OcelotCPU.Build(opts), false},
		{"OcelotGPU", mal.OcelotGPU.Build(opts), false},
		{"HYB", mal.Hybrid.Build(opts), true},
	}
	queries := Queries()
	if testing.Short() {
		queries = []Query{*QueryByNum(1), *QueryByNum(3), *QueryByNum(6), *QueryByNum(12)}
		engines = []engine{engines[2], engines[4]}
	}

	run := func(e engine, q Query, parallel bool) (*mal.Result, *mal.Session) {
		s := mal.NewSession(e.o)
		s.SetParallel(parallel)
		res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
		if err != nil {
			t.Fatalf("Q%d on %s (parallel=%v): %v", q.Num, e.name, parallel, err)
		}
		return res, s
	}

	parallelFrags := 0
	for _, e := range engines {
		for _, q := range queries {
			ref, _ := run(e, q, false)
			probe, _ := run(e, q, false)
			deterministic := ref.EqualWithin(probe, 0) == nil

			par, s := run(e, q, true)
			if deterministic {
				if err := par.EqualWithin(ref, 0); err != nil {
					t.Fatalf("Q%d on %s: parallel differs byte-for-byte from serial: %v", q.Num, e.name, err)
				}
			} else if err := par.EqualWithin(ref, 1e-5); err != nil {
				t.Fatalf("Q%d on %s (nondeterministic grouped floats): parallel outside jitter tolerance: %v", q.Num, e.name, err)
			}
			if e.hybrid {
				parallelFrags += s.ParallelFragments()
			} else if s.ParallelFragments() != 0 {
				t.Fatalf("Q%d on %s: parallel fragments on a configuration without placement pins", q.Num, e.name)
			}
			if cp, sum := s.CriticalPath(), s.OpTime(); cp <= 0 || cp > sum {
				t.Fatalf("Q%d on %s: critical path %v outside (0, %v]", q.Num, e.name, cp, sum)
			}
		}
	}
	if parallelFrags == 0 {
		t.Fatal("no hybrid query engaged the parallel executor")
	}
	t.Logf("parallel executor ran %d fragments across the hybrid runs", parallelFrags)
}
