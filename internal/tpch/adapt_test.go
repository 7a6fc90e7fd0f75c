package tpch

import (
	"testing"

	"repro/internal/bat"
)

// TestGenerateSkewed pins down the Zipf knob: theta 0 is byte-identical to
// the classic generator, positive theta visibly concentrates the foreign
// keys, statistics ride on every numeric base column, and the whole thing
// stays deterministic under a fixed seed.
func TestGenerateSkewed(t *testing.T) {
	uniform := Generate(0.01, 42)
	zeroTheta := GenerateSkewed(0.01, 42, 0)
	skewed := GenerateSkewed(0.01, 42, 1.2)
	again := GenerateSkewed(0.01, 42, 1.2)

	if skewed.Theta != 1.2 {
		t.Fatalf("Theta %g, want 1.2", skewed.Theta)
	}

	freq := func(db *DB, col string) (top, n int) {
		b := db.Orders.Cols[col]
		counts := map[int32]int{}
		for _, v := range b.I32s() {
			counts[v]++
		}
		for _, c := range counts {
			if c > top {
				top = c
			}
		}
		return top, b.Len()
	}

	// theta == 0 must be the uniform generator, bit for bit.
	for i, tbl := range uniform.Tables() {
		zt := zeroTheta.Tables()[i]
		for _, c := range tbl.Order {
			a, b := tbl.Cols[c], zt.Cols[c]
			if a.Len() != b.Len() {
				t.Fatalf("%s.%s: theta-0 length %d != uniform %d", tbl.Name, c, b.Len(), a.Len())
			}
		}
	}
	uTop, _ := freq(uniform, "o_custkey")
	zTop, _ := freq(zeroTheta, "o_custkey")
	if uTop != zTop {
		t.Fatalf("theta-0 o_custkey mode %d differs from uniform %d", zTop, uTop)
	}

	// Positive theta concentrates mass: the hottest customer gets far more
	// orders than under the uniform draw.
	sTop, n := freq(skewed, "o_custkey")
	if sTop < 4*uTop {
		t.Fatalf("Zipf 1.2 hottest o_custkey has %d of %d orders, uniform mode is %d — skew invisible", sTop, n, uTop)
	}

	// Deterministic under the seed.
	aTop, aN := freq(again, "o_custkey")
	if aTop != sTop || aN != n {
		t.Fatal("GenerateSkewed is not deterministic for a fixed seed")
	}

	// Load-time statistics on numeric base columns, skew visible in them.
	for _, probe := range []struct {
		tbl *bat.Table
		col string
	}{
		{skewed.Lineitem, "l_quantity"}, {skewed.Lineitem, "l_extendedprice"},
		{skewed.Orders, "o_custkey"}, {skewed.Part, "p_size"},
	} {
		st := probe.tbl.Cols[probe.col].Stats
		if st == nil {
			t.Fatalf("%s.%s carries no load-time stats", probe.tbl.Name, probe.col)
		}
		if st.N == 0 || st.Distinct < 1 || len(st.Hist) == 0 {
			t.Fatalf("%s.%s stats degenerate: %+v", probe.tbl.Name, probe.col, st)
		}
	}
	hist := skewed.Orders.Cols["o_custkey"].Stats.Hist
	if hist[0] <= hist[len(hist)-1] {
		t.Fatalf("Zipf skew invisible in o_custkey histogram: first bucket %d, last %d", hist[0], hist[len(hist)-1])
	}
}
