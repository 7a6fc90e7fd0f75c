package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// regionCase is one input of TestGroupedRegionAgainstChain: key columns, a
// float and an int value column, and whether the rule admits the fold.
type regionCase struct {
	name string
	keys [][]int32
	fits bool
}

// regionKeys draws n rows of keys: key j takes lo[j] + a value below span[j];
// with sparse set, one combination in seven never occurs.
func regionKeys(n int, seed int64, sparse bool, lo []int32, span []int32) [][]int32 {
	r := rand.New(rand.NewSource(seed))
	keys := make([][]int32, len(lo))
	for j := range keys {
		keys[j] = make([]int32, n)
	}
	for i := 0; i < n; {
		code := 0
		for j := range keys {
			d := r.Int31n(span[j])
			keys[j][i] = lo[j] + d
			code = code*int(span[j]) + int(d)
		}
		if !sparse || code%7 != 3 {
			i++
		}
	}
	// Every key reaches both ends of its span, so the measured range is the
	// drawn one.
	for j := range keys {
		if n >= 2 {
			keys[j][0], keys[j][n-1] = lo[j], lo[j]+span[j]-1
		}
	}
	return keys
}

func regionCases() []regionCase {
	const atBound = 2048 * kernels.SumChunks // rows at the table bound of 2 048 codes
	return []regionCase{
		{"one key", regionKeys(5_000, 1, false, []int32{0}, []int32{5}), true},
		{"two keys, Q1-shaped, a combination missing", regionKeys(20_011, 2, true, []int32{0, 0}, []int32{3, 2}), true},
		{"three keys, negative and MinInt32", regionKeys(30_000, 3, true, []int32{math.MinInt32, -7, 1 << 30}, []int32{3, 4, 5}), true},
		{"2 048 codes over as many rows as the table", regionKeys(atBound, 4, true, []int32{-1_000, 5}, []int32{64, 32}), true},
		{"2 048 codes, one row fewer than the table", regionKeys(atBound-1, 5, true, []int32{-1_000, 5}, []int32{64, 32}), false},
		{"2 049 codes", regionKeys(2*atBound, 6, false, []int32{0, 0}, []int32{2049, 1}), false},
		{"fewer rows than chunks", regionKeys(kernels.SumChunks-1, 7, false, []int32{0, 0}, []int32{2, 2}), false},
		{"a wide single key", regionKeys(40_000, 8, false, []int32{-20_000}, []int32{40_000}), false},
		{"no rows", [][]int32{{}, {}}, false},
	}
}

// regionAggs are the aggregates of every case: over keys[0] (a key), f (a
// float column) and v (an int column) — sum and average of one column, count
// beside averages, minimum and maximum of a key and of values.
func regionAggs(key, f, v *bat.BAT) []ops.FusedAgg {
	return []ops.FusedAgg{
		{Kind: ops.Min, Vals: key}, {Kind: ops.Sum, Vals: f}, {Kind: ops.Avg, Vals: f},
		{Kind: ops.Count}, {Kind: ops.Max, Vals: key}, {Kind: ops.Min, Vals: f},
		{Kind: ops.Max, Vals: f}, {Kind: ops.Sum, Vals: v}, {Kind: ops.Max, Vals: v},
		{Kind: ops.Avg, Vals: f}, {Kind: ops.Sum, Vals: key},
	}
}

// TestGroupedRegionAgainstChain runs grouped regions (ops.FusedOp.Keys) on
// Ocelot-CPU at one, two and eight threads and on the GPU model, beside the
// chained members — Group over each key refining the last, then Aggr — and
// demands every result column byte for byte, which pins the region's ids to
// the chain's numbering and its float sums to the chain's fold order. A
// region the rule admits takes three launches (measure, fold, final); one it
// refuses takes its members' launches, and for one key exactly as many.
func TestGroupedRegionAgainstChain(t *testing.T) {
	for _, c := range regionCases() {
		n := len(c.keys[0])
		r := rand.New(rand.NewSource(int64(n)))
		fv, iv := make([]float32, n), make([]int32, n)
		for i := range fv {
			fv[i] = (r.Float32() - 0.5) * float32(math.Pow(10, float64(r.Intn(8))))
			iv[i] = r.Int31n(2_000_001) - 1_000_000
		}
		if n > 2 {
			fv[1], fv[2] = float32(math.Copysign(0, -1)), 0
		}
		codes := uint64(1)
		for _, k := range c.keys {
			if n > 0 {
				codes *= uint64(slices.Max(k)-slices.Min(k)) + 1
			}
		}
		if got := n > 0 && kernels.GroupRegionFits(n, codes); got != c.fits {
			t.Fatalf("%s: GroupRegionFits(%d, %d) = %v, want %v", c.name, n, codes, got, c.fits)
		}
		for _, e := range []*Engine{New(cl.NewCPUDevice(1)), New(cl.NewCPUDevice(2)), New(cl.NewCPUDevice(8)), New(cl.NewGPUDevice(256 << 20))} {
			name := fmt.Sprintf("%s on %s", c.name, e.Name())
			keys := make([]*bat.BAT, len(c.keys))
			for j, k := range c.keys {
				keys[j] = i32Col(fmt.Sprint("k", j), k)
			}
			f, v := f32Col("f", fv), i32Col("v", iv)
			aggs := regionAggs(keys[0], f, v)

			chained, chainLaunches := launchesAround(t, e, func() []*bat.BAT {
				ids, ngroups, err := e.Group(keys[0], nil, 0)
				for _, k := range keys[1:] {
					if err != nil {
						break
					}
					prev := ids
					ids, ngroups, err = e.Group(k, prev, ngroups)
					e.Release(prev)
				}
				if err != nil {
					t.Fatalf("%s: chained grouping: %v", name, err)
				}
				out := make([]*bat.BAT, len(aggs))
				for i, a := range aggs {
					if out[i], err = e.Aggr(a.Kind, a.Vals, ids, ngroups); err != nil {
						t.Fatalf("%s: chained %v: %v", name, a.Kind, err)
					}
				}
				e.Release(ids)
				return out
			})
			fused, fusedLaunches := launchesAround(t, e, func() []*bat.BAT {
				out, err := e.Fused(&ops.FusedOp{Keys: keys, Aggs: aggs})
				if err != nil {
					t.Fatalf("%s: region: %v", name, err)
				}
				return out
			})
			for i := range aggs {
				want, got := chained[i], fused[i]
				if want.T != got.T || want.Len() != got.Len() || !slices.Equal(want.Bytes(), got.Bytes()) {
					t.Fatalf("%s: aggregate %d (%v) differs from the chain's: %d vs %d rows", name, i, aggs[i].Kind, got.Len(), want.Len())
				}
				e.Release(want)
				e.Release(got)
			}
			switch {
			case c.fits && fusedLaunches != 3:
				t.Fatalf("%s: the admitted region took %d launches, want 3", name, fusedLaunches)
			case !c.fits && len(keys) == 1 && fusedLaunches != chainLaunches:
				t.Fatalf("%s: the refused region took %d launches, its members %d", name, fusedLaunches, chainLaunches)
			case fusedLaunches > chainLaunches:
				t.Fatalf("%s: the region took %d launches, more than its members' %d", name, fusedLaunches, chainLaunches)
			}
			for _, b := range append(keys, f, v) {
				b.Free()
			}
		}
	}
}

// launchesAround runs op, syncs what it returns and reports the kernel
// launches it took.
func launchesAround(t *testing.T, e *Engine, op func() []*bat.BAT) ([]*bat.BAT, int64) {
	t.Helper()
	before := e.dev.KernelLaunches()
	out := op()
	for _, b := range out {
		if err := e.Sync(b); err != nil {
			t.Fatal(err)
		}
	}
	return out, e.dev.KernelLaunches() - before
}
