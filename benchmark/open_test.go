package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	length := 2 * time.Second
	a := schedule(7, 1, 600, length)
	b := schedule(7, 1, 600, length)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if len(a) != 1200 {
		t.Fatalf("%d arrivals, want rate x length = 1200", len(a))
	}
	if reflect.DeepEqual(a, schedule(8, 1, 600, length)) {
		t.Error("another seed gave the same schedule")
	}
	if reflect.DeepEqual(a, schedule(7, 2, 600, length)) {
		t.Error("another step gave the same schedule")
	}
	for i, x := range a {
		if x.due < 0 || x.due >= length {
			t.Fatalf("arrival %d due at %v, outside the step", i, x.due)
		}
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if isScan := popularity[x.rank] == "scan"; isScan != (x.hi >= 1 && x.hi <= scanValues) {
			t.Fatalf("arrival %d: plan %s with hi %d", i, popularity[x.rank], x.hi)
		}
	}
}

func TestPopularityMix(t *testing.T) {
	if len(popularity) != 15 {
		t.Fatalf("%d plans in the popularity order, want 14 queries and the scan", len(popularity))
	}
	seen := map[string]bool{}
	for _, name := range popularity {
		seen[name] = true
	}
	for _, q := range tpchQueries(nil) {
		if !seen[q.name] {
			t.Errorf("%s is missing from the popularity order", q.name)
		}
	}
	// Zipf(1) over 15 ranks, per 100 arrivals.
	want := []int{30, 15, 10, 8, 6, 5, 4, 4, 3, 3, 3, 3, 2, 2, 2}
	mix := mixPer100()
	if !reflect.DeepEqual(mix, want) {
		t.Errorf("mix per 100 arrivals = %v, want %v", mix, want)
	}

	// Every whole block of a schedule offers exactly that mix, in an order the
	// seed decides.
	a, b := schedule(1, 0, 150, 4*time.Second), schedule(2, 0, 150, 4*time.Second)
	sameOrder := true
	for lo := 0; lo+blockSize <= len(a); lo += blockSize {
		got := make([]int, len(popularity))
		for i := lo; i < lo+blockSize; i++ {
			got[a[i].rank]++
			sameOrder = sameOrder && a[i].rank == b[i].rank
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("arrivals %d..%d offer %v, want %v", lo, lo+blockSize, got, want)
		}
	}
	if sameOrder {
		t.Error("two seeds dealt the plans in the same order")
	}

	// The scan parameter is a Zipf(1) draw: value k comes 1/k as often as 1.
	cdf := zipfCDF(scanValues)
	counts := make([]int, len(cdf))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		counts[draw(cdf, rng)]++
	}
	for k := 1; k < 8; k++ {
		got, want := float64(counts[k])/float64(counts[0]), 1/float64(k+1)
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("value %d drawn %.4f as often as value 1, want about %.4f", k+1, got, want)
		}
	}
}
