package tpch

import "testing"

// TestGenerateSkewed pins down the Zipf knob: theta 0 is byte-identical to
// the classic generator, positive theta visibly concentrates the foreign
// keys, and the whole thing stays deterministic under a fixed seed.
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
}
