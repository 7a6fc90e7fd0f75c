// Command tpchgen generates a TPC-H instance at a given scale factor and
// prints table statistics — a quick way to inspect the workload substrate
// of the evaluation (Appendix A: REAL money columns, dictionary-encoded
// strings, yyyymmdd dates, precomputed join indexes).
//
// Usage:
//
//	tpchgen -sf 0.1            # table cardinalities and footprint
//	tpchgen -sf 0.1 -cols      # per-column detail
//	tpchgen -sf 0.1 -dict l_shipmode
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/tpch"
)

func main() {
	var (
		sf     = flag.Float64("sf", 0.01, "scale factor (1.0 = 6M lineitems)")
		seed   = flag.Int64("seed", 42, "generator seed")
		cols   = flag.Bool("cols", false, "print per-column detail")
		dict   = flag.String("dict", "", "print the dictionary of a string column")
		csvDir = flag.String("csv", "", "export all tables as CSV into this directory")
		skew   = flag.Float64("skew", 0, "Zipf exponent for the skewed foreign keys and quantities (0 = uniform, the TPC-H default)")
	)
	flag.Parse()

	start := time.Now()
	db := tpch.GenerateSkewed(*sf, *seed, *skew)
	elapsed := time.Since(start)

	if *csvDir != "" {
		if err := db.WriteCSV(*csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "tpchgen: csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d tables to %s\n", len(db.Tables()), *csvDir)
	}

	if *dict != "" {
		for code := int32(0); ; code++ {
			v := db.Decode(*dict, code)
			if v == fmt.Sprintf("?%d", code) {
				if code == 0 {
					fmt.Fprintf(os.Stderr, "tpchgen: column %q has no dictionary\n", *dict)
					os.Exit(1)
				}
				return
			}
			fmt.Printf("%4d  %s\n", code, v)
		}
	}

	fmt.Printf("TPC-H SF %g (seed %d): generated in %v, %.1f MB of heaps\n\n",
		*sf, *seed, elapsed.Round(time.Millisecond), float64(db.TotalBytes())/(1<<20))
	fmt.Printf("%-10s %12s %8s\n", "table", "rows", "cols")
	for _, t := range db.Tables() {
		fmt.Printf("%-10s %12d %8d\n", t.Name, t.Rows(), len(t.Order))
	}
	if *cols {
		fmt.Println()
		for _, t := range db.Tables() {
			for _, c := range t.Order {
				b := t.Cols[c]
				fmt.Printf("%-10s %-18s %-5s %10d rows %10d bytes sorted=%-5v key=%v\n",
					t.Name, c, b.T, b.Len(), b.HeapBytes(), b.Props.Sorted, b.Props.Key)
			}
		}
	}
}
