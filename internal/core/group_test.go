package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
	"repro/internal/ops"
)

// groupPath names the three ways Group assigns ids to unsorted keys.
type groupPath int

const (
	pathHashed groupPath = iota
	pathIdentity
	pathSort
)

func (p groupPath) String() string { return [...]string{"hashed", "identity", "sort"}[p] }

// pathOf is the path Group's two rules assign to n keys measured as ks.
func pathOf(dev *cl.Device, n int, ks kernels.KeySpace) groupPath {
	switch {
	case kernels.IdentityWords(dev, n, ks.Range()) > 0:
		return pathIdentity
	case kernels.SortGroupBits(dev, n, ks.Range(), ks.Distinct) > 0:
		return pathSort
	}
	return pathHashed
}

// groupVia groups col (refining prev < nprev when given) on the path asked
// for, bypassing the rules, so every path can be compared over one input —
// inputs the rules would never send there included. It returns the ids and
// the group count.
func groupVia(t *testing.T, e *Engine, path groupPath, col, prev *bat.BAT, nprev int) ([]uint32, int) {
	t.Helper()
	if path != pathSort {
		ht := forcedTable(t, e, col, prev, nprev, path == pathIdentity)
		ids := gidsOf(t, e, ht, col, prev)
		if prev == nil {
			e.InvalidateHash(col) // forcedTable seeded the cache with it
		} else {
			ht.release()
		}
		return ids, ht.ndistinct
	}
	n := col.Len()
	colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
	ks, err := e.measureKeys(colBuf, prevBuf, nprev, n, true, wait)
	if err != nil {
		t.Fatal(err)
	}
	gids, gev, ngroups, err := e.groupBySort(colBuf, prevBuf, ks, n, wait)
	if err != nil {
		t.Fatal(err)
	}
	if err := gev.Wait(); err != nil {
		t.Fatal(err)
	}
	ids := slices.Clone(readWords(t, e, gids, n))
	e.mm.Release(gids)
	return ids, ngroups
}

// bitsFor is the width of the codes 0..keyRange-1.
func bitsFor(keyRange uint64) int { return max(1, bits.Len64(keyRange-1)) }

// groupCase is one generated input of TestGroupAddressingPaths.
type groupCase struct {
	name  string
	keys  []int32
	prev  []int32 // nil: single-word keys
	nprev int
	rule  groupPath // the path the rules must pick
	// gpuRule, when set, is their pick on the GPU model where it differs: the
	// local-memory clause of kernels.IdentityWords reads a device constant.
	gpuRule *groupPath
}

// ruleOn is the path the rules must pick for the case on e's device.
func (c groupCase) ruleOn(e *Engine) groupPath {
	if c.gpuRule != nil && e.dev.Simulated {
		return *c.gpuRule
	}
	return c.rule
}

// sparseUnique returns n distinct keys in random order: lo, hi and n-2 values
// strictly between them.
func sparseUnique(n int, lo, hi int64, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{lo: true, hi: true}
	out := []int32{int32(lo), int32(hi)}
	for len(out) < n {
		v := lo + 1 + r.Int63n(hi-lo-1)
		if !seen[v] {
			seen[v] = true
			out = append(out, int32(v))
		}
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}

// clusteredPrev returns n previous ids 0..nprev-1 in runs, as a dense
// position column (l_orderpos) has them.
func clusteredPrev(n, nprev int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i * nprev / n)
	}
	return out
}

func groupCases() []groupCase {
	const n = 40_001 // odd, and past the distinct crossover
	identityBound := int64(48 * kernels.TableCapacity(n))
	dupHeavy := randI32(n, 1_000, 71)
	for i := range dupHeavy {
		dupHeavy[i] = dupHeavy[i]*1_000_003 - 400_000_000 // 1 000 sparse values, some negative
	}
	twoWords := randI32(n, 150_000, 72)
	wide := sparseUnique(n, math.MinInt32, math.MaxInt32, 73)
	identity := pathIdentity
	return []groupCase{
		{"near-unique sparse negative", sparseUnique(n, -1_900_000_000, 2_000_000_000, 74), nil, 0, pathSort, nil},
		{"full int32 range: 2^32 addresses", wide, nil, 0, pathSort, nil},
		{"2^32 addresses times two previous ids", wide, clusteredPrev(n, 2), 2, pathHashed, nil},
		{"duplicate-heavy sparse", dupHeavy, nil, 0, pathHashed, nil},
		{"range at the identity bound", sparseUnique(n, -17, identityBound-18, 75), nil, 0, pathIdentity, nil},
		{"range one past the identity bound", sparseUnique(n, -17, identityBound-17, 76), nil, 0, pathSort, nil},
		{"refining clustered ids by sparse keys", twoWords, clusteredPrev(n, 1_000), 1_000, pathSort, nil},
		{"refining by a few dense codes", randI32(n, 3, 77), clusteredPrev(n, 500), 500, pathIdentity, nil},
		{"one row", []int32{math.MinInt32}, nil, 0, pathIdentity, nil},
		{"two rows", []int32{math.MaxInt32, math.MinInt32}, nil, 0, pathHashed, nil},
		{"seven rows refining", []int32{5, -5, 5, 1 << 30, 5, -5, 5}, []int32{0, 0, 1, 1, 0, 2, 2}, 3, pathHashed, nil},
		// 140 keys over 150 000 addresses: an 18 KiB bitmap and its rank
		// directory, 37 KiB, fit the GPU model's 48 KiB of local memory and
		// not the CPU's 32 KiB, so the devices address the same input
		// differently and must still agree as partitions.
		{"a few keys over a range between the devices' local memories", sparseUnique(140, -17, 150_000-18, 78), nil, 0, pathHashed, &identity},
	}
}

// TestGroupAddressingPaths groups generated keys every way Group can — hashed
// slots, identity-addressed slots, sorting — on Ocelot-CPU at one, two and
// eight threads and on the GPU model, forcing each path over each input, and
// compares every result with the sequential baseline as a partition (two rows
// share an id on one engine iff they do on the other) and on the group count.
// On the sort path the id column must be the same bytes on every engine. Then
// the same inputs go through Group itself: it must take the path the rules
// name (seen in its launch count) and agree with the baseline again.
func TestGroupAddressingPaths(t *testing.T) {
	for _, c := range groupCases() {
		n := len(c.keys)
		var refPrev *bat.BAT
		nprev := 0
		if c.prev != nil {
			// The baseline refines whatever ids it is given; number them as
			// the case does.
			refPrev, nprev = i32Col("p", c.prev), c.nprev
		}
		refBAT, refGroups, err := crossMS.Group(i32Col("k", c.keys), refPrev, nprev)
		if err != nil {
			t.Fatal(err)
		}
		ref := mem.U32(mem.BytesOfI32(refBAT.I32s()))

		var sortIDs []uint32
		for _, e := range []*Engine{New(cl.NewCPUDevice(1)), New(cl.NewCPUDevice(2)), New(cl.NewCPUDevice(8)), New(cl.NewGPUDevice(128 << 20))} {
			col := i32Col("k", c.keys)
			var prev *bat.BAT
			if c.prev != nil {
				prev = i32Col("p", c.prev)
			}
			colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
			ks, err := e.measureKeys(colBuf, prevBuf, nprev, n, true, wait)
			if err != nil {
				t.Fatal(err)
			}
			rule := c.ruleOn(e)
			if got := pathOf(e.dev, n, ks); got != rule {
				t.Fatalf("%s on %s: the rules pick %v for %+v, want %v", c.name, e.Name(), got, ks, rule)
			}
			for _, path := range []groupPath{pathHashed, pathIdentity, pathSort} {
				if path == pathIdentity && ks.Range() > 1<<26 || path == pathSort && ks.Range() > 1<<32 {
					continue // no bitmap that large; no one-word code
				}
				ids, groups := groupVia(t, e, path, col, prev, nprev)
				if groups != refGroups || !samePartition(ids, ref) {
					t.Fatalf("%s on %s, %v path: %d groups, baseline %d; same partition: %v",
						c.name, e.Name(), path, groups, refGroups, samePartition(ids, ref))
				}
				if path != pathSort {
					continue
				}
				if sortIDs == nil {
					sortIDs = ids
				}
				if !slices.Equal(ids, sortIDs) {
					t.Fatalf("%s on %s: sort-path ids differ from the first engine's", c.name, e.Name())
				}
				if !numberedInKeyOrder(ids, c.keys, c.prev) {
					t.Fatalf("%s on %s: sort-path ids are not in composite-key order", c.name, e.Name())
				}
			}

			before := e.dev.KernelLaunches()
			g, groups, err := e.Group(col, prev, nprev)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(g); err != nil {
				t.Fatal(err)
			}
			if groups != refGroups || !samePartition(mem.U32(mem.BytesOfI32(g.I32s())), ref) {
				t.Fatalf("%s on %s: Group finds %d groups, baseline %d", c.name, e.Name(), groups, refGroups)
			}
			// Measurement, then: fill, insertion or bit set, three-kernel
			// enumeration or rank scan, look-up — or pack, three kernels a
			// pass, boundary flags, three-kernel scan, scatter.
			want := int64(7)
			if rule == pathSort {
				radix := kernels.RadixBits(e.dev)
				want = int64(7 + 3*((bitsFor(ks.Range())+radix-1)/radix))
			}
			if got := e.dev.KernelLaunches() - before; got != want {
				t.Fatalf("%s on %s: Group took %d launches, the %v path takes %d", c.name, e.Name(), got, rule, want)
			}
			g.Free()
			col.Free()
			if prev != nil {
				prev.Free()
			}
		}
	}
}

// numberedInKeyOrder reports whether ids number the distinct (prev, key)
// pairs 0, 1, 2, … in ascending (prev, key) order.
func numberedInKeyOrder(ids []uint32, keys, prev []int32) bool {
	type row struct {
		p, k int32
		id   uint32
	}
	rows := make([]row, len(ids))
	for i := range rows {
		rows[i] = row{k: keys[i], id: ids[i]}
		if prev != nil {
			rows[i].p = prev[i]
		}
	}
	slices.SortFunc(rows, func(a, b row) int {
		if a.p != b.p {
			return int(a.p) - int(b.p)
		}
		if a.k != b.k {
			if a.k < b.k {
				return -1
			}
			return 1
		}
		return 0
	})
	next := uint32(0)
	for i, r := range rows {
		if i > 0 && (r.p != rows[i-1].p || r.k != rows[i-1].k) {
			next++
		}
		if r.id != next {
			return false
		}
	}
	return true
}

// TestGroupRule pins kernels.SortGroupBits to its definition at each of its
// boundaries — the identity bound, the distinct crossover, one 32-bit word —
// and checks the memory bound placement relies on: from the smallest input the
// rule can send to the sort path upwards, Group's working state there (four
// n-word buffers, histogram, scan partials) stays within the 26 bytes a row
// that placement assumes for the hashed table (mal/placement.go).
func TestGroupRule(t *testing.T) {
	const n = 100_000
	const crossover = (4 << 20) / (3 * 64) // cache-resident bytes over bytes a hashed key
	identityBound := uint64(48 * kernels.TableCapacity(n))
	for _, c := range []struct {
		keyRange uint64
		distinct int
		bits     int
	}{
		{identityBound, n, 0},          // identity addressing has it
		{identityBound + 1, n, 24},     // 12 582 913 addresses
		{1 << 28, crossover, 0},        // the table still fits the caches
		{1 << 28, crossover + 1, 28},   // one key more: sort
		{1<<28 + 1, crossover + 1, 29}, // ... over one more digit
		{1 << 32, n, 32},               // a full word
		{1<<32 + 1, n, 0},              // wider than a word: hashed
		{1 << 40, n, 0},
		{0, n, 0}, // unmeasured (floats)
	} {
		if got := kernels.SortGroupBits(cl.NewCPUDevice(2), n, c.keyRange, c.distinct); got != c.bits {
			t.Fatalf("SortGroupBits(%d, %d, %d) = %d, want %d", n, c.keyRange, c.distinct, got, c.bits)
		}
	}

	for _, e := range crossEngines() {
		rows := crossover + 1 // fewer rows cannot hold enough distinct keys
		col := i32Col("k", sparseUnique(rows, math.MinInt32, math.MaxInt32, 81))
		prev := i32Col("p", make([]int32, rows))
		colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
		if err := cl.WaitAll(wait...); err != nil {
			t.Fatal(err)
		}
		ks, err := e.measureKeys(colBuf, prevBuf, 1, rows, true, wait)
		if err != nil {
			t.Fatal(err)
		}
		if pathOf(e.dev, rows, ks) != pathSort {
			t.Fatalf("%s: %d unique keys over 2^32 addresses: %+v does not sort", e.Name(), rows, ks)
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		e.mm.FlushScratch()
		before, earlierPeak := e.dev.Allocated(), e.dev.PeakAllocated()
		g, _, err := e.Group(col, prev, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		out := int64(rows+1) * 4
		if state := e.dev.PeakAllocated() - before - out; e.dev.PeakAllocated() == earlierPeak || state > 26*int64(rows) {
			t.Fatalf("%s: sorting %d rows held %d bytes of working state, placement assumes %d",
				e.Name(), rows, state, 26*rows)
		}
		e.Release(g)
		col.Free()
		prev.Free()
	}
}

// TestQ21ShapedPlanAgainstBaseline runs the grouping of TPC-H Q21 at the scale
// where the sort rule fires — no other tier-1 input reaches it: a supplier key
// refining clustered order positions, nearly one group a row, then the
// per-group counts and minima the query takes and their projection back to
// the rows, which cancels the engines' different id numbering. Every engine
// must return the baseline's columns exactly.
func TestQ21ShapedPlanAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("240 000-row grouping in -short mode")
	}
	const n, nOrders, nSupp = 240_000, 60_000, 1_000
	opos := clusteredPrev(n, nOrders)
	supp := randI32(n, nSupp, 91)
	qty := randI32(n, 50, 92)
	for i := range supp {
		supp[i]++ // keys 1..1000
	}
	run := func(o ops.Operators) ([]int32, []int32, int) {
		t.Helper()
		must := func(b *bat.BAT, err error) *bat.BAT {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", o.Name(), err)
			}
			return b
		}
		gos, nos, err := o.Group(i32Col("l_suppkey", supp), i32Col("l_orderpos", opos), nOrders)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		counts := must(o.Aggr(ops.Count, nil, gos, nos))
		least := must(o.Aggr(ops.Min, i32Col("l_quantity", qty), gos, nos))
		perRowCount := must(o.Project(gos, counts))
		perRowLeast := must(o.Project(gos, least))
		for _, b := range []*bat.BAT{perRowCount, perRowLeast} {
			if err := o.Sync(b); err != nil {
				t.Fatalf("%s: %v", o.Name(), err)
			}
		}
		return perRowCount.I32s(), perRowLeast.I32s(), nos
	}
	refCount, refLeast, refGroups := run(crossMS)
	for _, e := range crossEngines() {
		before := e.dev.KernelLaunches()
		count, least, groups := run(e)
		if groups != refGroups || !slices.Equal(count, refCount) || !slices.Equal(least, refLeast) {
			t.Fatalf("%s: %d groups (baseline %d); per-row counts equal: %v, minima equal: %v",
				e.Name(), groups, refGroups, slices.Equal(count, refCount), slices.Equal(least, refLeast))
		}
		if e.dev.KernelLaunches()-before < 7+3*4 {
			t.Fatalf("%s: %d launches — the grouping did not take the sort path", e.Name(), e.dev.KernelLaunches()-before)
		}
	}
	if refGroups < n*9/10 {
		t.Fatal(fmt.Sprint("the input is not near-unique: ", refGroups, " groups"))
	}
}
