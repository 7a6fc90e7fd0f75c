// Hybrid placement: the paper's §7 future work, implemented. The two Ocelot
// devices, the CPU and one simulated GPU, are calibrated with standardized
// micro-benchmarks; the plan-level placement pass prices every operator of a
// query on both devices from those profiles, pins each to the device where
// the whole plan costs least, and the hybrid engine runs the pins, with
// intermediates migrating between the devices through the §3.4 ownership
// hand-over. The example runs a TPC-H query under the hybrid configuration,
// prints the calibrated device table and where each operator was placed, and
// cross-checks the result against the sequential baseline.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/tpch"
)

func main() {
	db := tpch.Generate(0.02, 42)
	q := tpch.QueryByNum(3)
	fmt.Printf("Q%d (%s) on TPC-H SF %g\n\n", q.Num, q.Name, db.SF)

	h, err := hybrid.New(0, 512<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calibrated device table:")
	for _, d := range h.Devices() {
		fmt.Printf("  %-5s %s\n", d.Label, d.Prof)
	}
	fmt.Println()

	res, err := mal.RunQuery(mal.NewSession(h), func(s *mal.Session) *mal.Result {
		return q.Plan(s, db)
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("operator placement:")
	placements := h.Placements()
	names := make([]string, 0, len(placements))
	for op := range placements {
		names = append(names, op)
	}
	sort.Strings(names)
	for _, op := range names {
		fmt.Printf("  %-16s %v\n", op, placements[op])
	}

	ref, err := mal.RunQuery(mal.NewSession(mal.MS.Build(mal.ConfigOptions{})),
		func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
	if err != nil {
		log.Fatal(err)
	}
	if err := res.EqualWithin(ref, 2e-3); err != nil {
		log.Fatalf("hybrid result differs from the sequential baseline: %v", err)
	}
	fmt.Printf("\n✓ %d rows, identical to the sequential baseline\n", res.Rows())
}
