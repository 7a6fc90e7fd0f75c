package main

import "testing"

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {21, 2}, {50, 3}, {75, 4}, {90, 5}, {100, 5}, {-5, 1}, {120, 5},
	}
	for _, c := range cases {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", v)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Nearest rank: of an even count the lower of the two middle samples, and
	// of a round of 14 the 7th and the 14th.
	if got := median([]float64{1, 2, 3, 10}); got != 2 {
		t.Errorf("median of an even count = %v, want 2", got)
	}
	round := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if p50, p95 := percentile(round, 50), percentile(round, 95); p50 != 7 || p95 != 14 {
		t.Errorf("p50 and p95 of a round of 14 = %v and %v, want 7 and 14", p50, p95)
	}
}

func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{8, 6, 4, 2, 0, 10, 12, 14})
	if q1 != 2 || q2 != 6 || q3 != 10 {
		t.Errorf("quartiles = %v %v %v, want 2 6 10", q1, q2, q3)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", got)
	}
}
