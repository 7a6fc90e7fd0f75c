// The seal contract over the 14 TPC-H queries. The checks themselves live in
// seal_test.go (package mal, with access to the template); this file is in
// package mal_test only because tpch imports mal.
package mal_test

import (
	"fmt"
	"testing"

	"repro/internal/mal"
	"repro/internal/tpch"
)

func hybridWith(gpus int) mal.ConfigOptions {
	return mal.ConfigOptions{Threads: 4, GPUMemory: 512 << 20, GPUs: gpus}
}

func planOf(q tpch.Query, db *tpch.DB) func(*mal.Session) *mal.Result {
	return func(s *mal.Session) *mal.Result { return q.Plan(s, db) }
}

// TestSealPlacesWithObservedSizes: on uniform and Zipf-1.2 data, over the
// 1/2/4-GPU hybrids, every query's sealed template carries the pins place
// returns for the cold run's actual cardinalities, its replays agree with
// its cold run and with Ocelot-CPU (to the byte wherever Ocelot-CPU agrees
// with itself), and somewhere the observed sizes move a pin the estimates
// had chosen on each data set — sealing is not a no-op. On both data sets
// the cold estimates are the fixed constants.
func TestSealPlacesWithObservedSizes(t *testing.T) {
	queries, gpuCounts := tpch.Queries(), []int{1, 2, 4}
	if testing.Short() {
		queries = []tpch.Query{*tpch.QueryByNum(1), *tpch.QueryByNum(3), *tpch.QueryByNum(6), *tpch.QueryByNum(12)}
		gpuCounts = []int{2}
	}
	cpu := mal.OcelotCPU.Build(hybridWith(0))
	cold, selections := mal.Hybrid.Build(hybridWith(2)), 0
	for _, theta := range []float64{0, 1.2} {
		db := tpch.GenerateSkewed(0.01, 42, theta)
		for _, q := range queries {
			selections += mal.CheckConstantEstimates(t, fmt.Sprintf("Q%d, theta %g", q.Num, theta), cold, planOf(q, db))
		}
		refs := make([]*mal.Result, len(queries))
		tols := make([]float64, len(queries))
		for i, q := range queries {
			var probe *mal.Result
			var err error
			if refs[i], err = mal.RunQuery(mal.NewSession(cpu), planOf(q, db)); err == nil {
				probe, err = mal.RunQuery(mal.NewSession(cpu), planOf(q, db))
			}
			if err != nil {
				t.Fatalf("Q%d on Ocelot-CPU: %v", q.Num, err)
			}
			if refs[i].EqualWithin(probe, 0) != nil {
				tols[i] = 1e-5 // grouped float sums that differ between two CPU runs
			}
		}
		moved := 0
		for _, g := range gpuCounts {
			o := mal.Hybrid.Build(hybridWith(g))
			for i, q := range queries {
				what := fmt.Sprintf("Q%d, %d GPUs, theta %g", q.Num, g, theta)
				if mal.CheckSeal(t, what, o, planOf(q, db), refs[i], tols[i]) {
					moved++
				}
			}
		}
		if moved == 0 {
			t.Fatalf("theta %g: no query's pins moved at seal: placing with observed sizes is a no-op", theta)
		}
		t.Logf("theta %g: sealing moved pins off the estimate-only placement in %d (query, engine) cases", theta, moved)
	}
	if selections == 0 {
		t.Fatal("the constant-model gate saw no selection over a base column")
	}
}

// TestFragmentGraphMatchesPlanGraph: for every fragment of every query on
// the 2-GPU hybrid, the graph stored at seal is the graph the sealed
// instructions imply, and it is the stored one the verifier reads.
func TestFragmentGraphMatchesPlanGraph(t *testing.T) {
	db := tpch.Generate(0.01, 42)
	o := mal.Hybrid.Build(hybridWith(2))
	for _, q := range tpch.Queries() {
		mal.CheckFragmentGraphs(t, fmt.Sprintf("Q%d", q.Num), o, planOf(q, db))
	}
}
