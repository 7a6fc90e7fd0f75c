package core

import (
	"cmp"
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

// groupPath names the four ways Group assigns ids to unsorted keys.
type groupPath int

const (
	pathHashed groupPath = iota
	pathIdentity
	pathSort
	pathRuns
)

func (p groupPath) String() string { return [...]string{"hashed", "identity", "sort", "runs"}[p] }

// pathOf is the path Group's rules assign to n keys measured as ks.
func pathOf(dev *cl.Device, n int, ks kernels.KeySpace) groupPath {
	switch {
	case kernels.IdentityWords(dev, n, ks.Range()) > 0:
		return pathIdentity
	case kernels.SortGroupBits(dev, n, ks.Range(), ks.Distinct) == 0:
		return pathHashed
	case ks.Runs:
		return pathRuns
	}
	return pathSort
}

// groupVia groups col (refining prev < nprev when given) on the path asked
// for, bypassing the rules, so every path can be compared over one input —
// inputs the rules would never send there included (the run path needs a
// non-decreasing prev, of runs of any length). It returns the ids and the
// group count.
func groupVia(t *testing.T, e *Engine, path groupPath, col, prev *bat.BAT, nprev int) ([]uint32, int) {
	t.Helper()
	if path == pathHashed || path == pathIdentity {
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
	group := func() (*cl.Buffer, *cl.Event, int, error) { return e.groupBySort(colBuf, prevBuf, ks, n, wait) }
	if path == pathRuns {
		group = func() (*cl.Buffer, *cl.Event, int, error) { return e.groupByRuns(colBuf, prevBuf, n, wait) }
	}
	gids, gev, ngroups, err := group()
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

// runsOf returns previous ids numbering consecutive runs of the given
// lengths, and their count.
func runsOf(lengths ...int) ([]int32, int) {
	var out []int32
	for id, l := range lengths {
		out = append(out, slices.Repeat([]int32{int32(id)}, l)...)
	}
	return out, len(lengths)
}

// randomRuns returns n previous ids in runs of 1..maxRun rows, as l_orderpos
// has them with maxRun 7, after runs of the lengths given first; and their
// count.
func randomRuns(n, maxRun int, seed int64, first ...int) ([]int32, int) {
	r := rand.New(rand.NewSource(seed))
	lengths, rows := first, 0
	for _, l := range first {
		rows += l
	}
	for rows < n {
		l := min(1+r.Intn(maxRun), n-rows)
		lengths = append(lengths, l)
		rows += l
	}
	return runsOf(lengths...)
}

// shuffled permutes the rows of the given columns alike.
func shuffled(seed int64, cols ...[]int32) [][]int32 {
	perm := rand.New(rand.NewSource(seed)).Perm(len(cols[0]))
	out := make([][]int32, len(cols))
	for c, col := range cols {
		out[c] = make([]int32, len(col))
		for i, p := range perm {
			out[c][i] = col[p]
		}
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
	q21Prev, q21Orders := randomRuns(n, 7, 79)
	atBound, nAtBound := randomRuns(n, kernels.MaxRefineRun, 80, 3, kernels.MaxRefineRun)
	overBound, nOverBound := randomRuns(n, kernels.MaxRefineRun, 80, 3, kernels.MaxRefineRun+1)
	descends := clusteredPrev(n, 5_000)
	descends[n/2-1], descends[n/2] = descends[n/2], descends[n/2-1]-1 // one step down
	negative := randI32(n, 500_000, 81)
	for i := range negative {
		negative[i] += math.MinInt32 // 2^32 / 500 000 is past the 8 001 previous ids
	}
	negative[17] = math.MinInt32
	shuffledTwin := shuffled(82, twoWords, clusteredPrev(n, 1_000))
	return []groupCase{
		{"near-unique sparse negative", sparseUnique(n, -1_900_000_000, 2_000_000_000, 74), nil, 0, pathSort, nil},
		{"full int32 range: 2^32 addresses", wide, nil, 0, pathSort, nil},
		{"2^32 addresses times two previous ids", wide, clusteredPrev(n, 2), 2, pathHashed, nil},
		{"duplicate-heavy sparse", dupHeavy, nil, 0, pathHashed, nil},
		{"range at the identity bound", sparseUnique(n, -17, identityBound-18, 75), nil, 0, pathIdentity, nil},
		{"range one past the identity bound", sparseUnique(n, -17, identityBound-17, 76), nil, 0, pathSort, nil},
		{"refining clustered ids by sparse keys", twoWords, clusteredPrev(n, 1_000), 1_000, pathRuns, nil},
		{"refining the same pairs shuffled", shuffledTwin[0], shuffledTwin[1], 1_000, pathSort, nil},
		{"refining order-like runs of 1..7 rows", twoWords, q21Prev, q21Orders, pathRuns, nil},
		{"refining runs up to the run bound", twoWords, atBound, nAtBound, pathRuns, nil},
		{"refining runs, one a row over the run bound", twoWords, overBound, nOverBound, pathSort, nil},
		{"refining clustered ids that decrease once", twoWords, descends, 5_000, pathSort, nil},
		{"refining runs of 5 by negative keys from MinInt32", negative, clusteredPrev(n, 8_001), 8_001, pathRuns, nil},
		{"refining by a few dense codes", randI32(n, 3, 77), clusteredPrev(n, 500), 500, pathIdentity, nil},
		{"one row", []int32{math.MinInt32}, nil, 0, pathIdentity, nil},
		{"two rows", []int32{math.MaxInt32, math.MinInt32}, nil, 0, pathHashed, nil},
		{"seven rows refining", []int32{5, -5, 5, 1 << 30, 5, -5, 5}, []int32{0, 0, 1, 1, 0, 2, 2}, 3, pathHashed, nil},
		{"one row refining", []int32{math.MinInt32}, []int32{0}, 1, pathIdentity, nil},
		{"seven rows refining in runs", []int32{5, -5, 5, 1 << 30, 5, -5, math.MinInt32}, []int32{0, 0, 0, 1, 1, 2, 2}, 3, pathHashed, nil},
		// 140 keys over 150 000 addresses: an 18 KiB bitmap and its rank
		// directory, 37 KiB, fit the GPU model's 48 KiB of local memory and
		// not the CPU's 32 KiB, so the devices address the same input
		// differently and must still agree as partitions.
		{"a few keys over a range between the devices' local memories", sparseUnique(140, -17, 150_000-18, 78), nil, 0, pathHashed, &identity},
	}
}

// TestGroupAddressingPaths groups generated keys every way Group can — hashed
// slots, identity-addressed slots, sorting, numbering inside runs of the
// previous ids — on Ocelot-CPU at one, two and eight threads and on the GPU
// model, forcing each path over each input (the run path wherever the previous
// ids are non-decreasing), and compares every result with the sequential
// baseline as a partition (two rows share an id on one engine iff they do on
// the other) and on the group count. On the sort and run paths the id column
// must be the same bytes on every engine and on both paths. Then the same
// inputs go through Group itself: it must take the path the rules name (seen
// in its launch count) and agree with the baseline again.
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
			for _, path := range []groupPath{pathHashed, pathIdentity, pathSort, pathRuns} {
				if path == pathIdentity && ks.Range() > 1<<26 || path == pathSort && ks.Range() > 1<<32 ||
					path == pathRuns && (c.prev == nil || !slices.IsSorted(c.prev)) {
					continue // no bitmap that large; no one-word code; no runs
				}
				ids, groups := groupVia(t, e, path, col, prev, nprev)
				if groups != refGroups || !samePartition(ids, ref) {
					t.Fatalf("%s on %s, %v path: %d groups, baseline %d; same partition: %v",
						c.name, e.Name(), path, groups, refGroups, samePartition(ids, ref))
				}
				if path == pathIdentity && !numberedInOrder(ids, c.keys, c.prev, true) {
					t.Fatalf("%s on %s: identity-path ids are not numbered key-major", c.name, e.Name())
				}
				if path != pathSort && path != pathRuns {
					continue
				}
				if sortIDs == nil {
					sortIDs = ids
				}
				if !slices.Equal(ids, sortIDs) {
					t.Fatalf("%s on %s: %v-path ids differ from the first engine's sort path", c.name, e.Name(), path)
				}
				if !numberedInOrder(ids, c.keys, c.prev, false) {
					t.Fatalf("%s on %s: %v-path ids are not numbered prev-major", c.name, e.Name(), path)
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
			// pass, boundary flags, three-kernel scan, scatter — or flags,
			// three-kernel scan, ids.
			want := int64(7)
			switch rule {
			case pathSort:
				radix := kernels.RadixBits(e.dev)
				want = int64(7 + 3*((bitsFor(ks.Range())+radix-1)/radix))
			case pathRuns:
				want = 6
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

// numberedInOrder reports whether ids number the distinct (prev, key) pairs
// 0, 1, 2, … in ascending order: prev-major, (prev, key) order, as the sort
// and run paths number them, or key-major, (key, prev) order, as identity
// addressing does.
func numberedInOrder(ids []uint32, keys, prev []int32, keyMajor bool) bool {
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
		if keyMajor {
			return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.p, b.p))
		}
		return cmp.Or(cmp.Compare(a.p, b.p), cmp.Compare(a.k, b.k))
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
// rule can send to the sort or the run path upwards, Group's working state
// there (four n-word buffers, histogram, scan partials; two n-word buffers and
// scan partials) stays within the 26 bytes a row that placement assumes for
// the hashed table (mal/placement.go).
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

	const rows = crossover + 1 // fewer rows cannot hold enough distinct keys
	runs, nruns := randomRuns(rows, kernels.MaxRefineRun, 83)
	for _, c := range []struct {
		keys, prev []int32
		nprev      int
		path       groupPath
	}{
		{sparseUnique(rows, math.MinInt32, math.MaxInt32, 81), make([]int32, rows), 1, pathSort},
		{sparseUnique(rows, math.MinInt32, math.MinInt32+1<<32/int64(nruns)-1, 84), runs, nruns, pathRuns},
	} {
		for _, e := range crossEngines() {
			testGroupMemory(t, e, c.keys, c.prev, c.nprev, c.path)
		}
	}
}

// testGroupMemory groups keys refining prev on e, which must take path, and
// bounds the working state it held.
func testGroupMemory(t *testing.T, e *Engine, keys, prevIDs []int32, nprev int, path groupPath) {
	t.Helper()
	rows := len(keys)
	col, prev := i32Col("k", keys), i32Col("p", prevIDs)
	colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
	if err := cl.WaitAll(wait...); err != nil {
		t.Fatal(err)
	}
	ks, err := e.measureKeys(colBuf, prevBuf, nprev, rows, true, wait)
	if err != nil {
		t.Fatal(err)
	}
	if got := pathOf(e.dev, rows, ks); got != path {
		t.Fatalf("%s: %d unique keys measured %+v take the %v path, want %v", e.Name(), rows, ks, got, path)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	e.mm.FlushScratch()
	before, earlierPeak := e.dev.Allocated(), e.dev.PeakAllocated()
	g, _, err := e.Group(col, prev, nprev)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	out := int64(rows+1) * 4
	if state := e.dev.PeakAllocated() - before - out; e.dev.PeakAllocated() == earlierPeak || state > 26*int64(rows) {
		t.Fatalf("%s: the %v path over %d rows held %d bytes of working state, placement assumes %d",
			e.Name(), path, rows, state, 26*rows)
	}
	e.Release(g)
	col.Free()
	prev.Free()
}

// TestQ21ShapedPlanAgainstBaseline runs the grouping of TPC-H Q21 at the scale
// where the sort rule fires — no other tier-1 input reaches it: a supplier key
// refining clustered order positions, nearly one group a row, then the
// per-group counts and minima the query takes and their projection back to
// the rows, which cancels the engines' different id numbering. Every engine
// must return the baseline's columns exactly. In row order the order
// positions come in runs of four, and the grouping takes the run path; with
// the rows shuffled it takes the radix passes. Both are pinned by launch
// count.
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
	run := func(o ops.Operators, supp, opos, qty []int32) ([]int32, []int32, int, int64) {
		t.Helper()
		must := func(b *bat.BAT, err error) *bat.BAT {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", o.Name(), err)
			}
			return b
		}
		var launches func() int64
		if e, ok := o.(*Engine); ok {
			launches = e.dev.KernelLaunches
		} else {
			launches = func() int64 { return 0 }
		}
		before := launches()
		gos, nos, err := o.Group(i32Col("l_suppkey", supp), i32Col("l_orderpos", opos), nOrders)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		grouping := launches() - before
		counts := must(o.Aggr(ops.Count, nil, gos, nos))
		least := must(o.Aggr(ops.Min, i32Col("l_quantity", qty), gos, nos))
		perRowCount := must(o.Project(gos, counts))
		perRowLeast := must(o.Project(gos, least))
		for _, b := range []*bat.BAT{perRowCount, perRowLeast} {
			if err := o.Sync(b); err != nil {
				t.Fatalf("%s: %v", o.Name(), err)
			}
		}
		return perRowCount.I32s(), perRowLeast.I32s(), nos, grouping
	}
	shuffledCols := shuffled(93, supp, opos, qty)
	for _, order := range []struct {
		name            string
		supp, opos, qty []int32
		path            groupPath
	}{
		{"in row order", supp, opos, qty, pathRuns},
		{"shuffled", shuffledCols[0], shuffledCols[1], shuffledCols[2], pathSort},
	} {
		refCount, refLeast, refGroups, _ := run(crossMS, order.supp, order.opos, order.qty)
		for _, e := range crossEngines() {
			count, least, groups, launches := run(e, order.supp, order.opos, order.qty)
			if groups != refGroups || !slices.Equal(count, refCount) || !slices.Equal(least, refLeast) {
				t.Fatalf("%s %s: %d groups (baseline %d); per-row counts equal: %v, minima equal: %v",
					order.name, e.Name(), groups, refGroups, slices.Equal(count, refCount), slices.Equal(least, refLeast))
			}
			// Measurement, then flags, three-kernel scan, ids — or pack, three
			// kernels a pass over a 26-bit code, flags, three-kernel scan,
			// scatter.
			want := int64(6)
			if order.path == pathSort {
				radix := kernels.RadixBits(e.dev)
				want = int64(7 + 3*((26+radix-1)/radix))
			}
			if launches != want {
				t.Fatalf("%s %s: the grouping took %d launches, the %v path takes %d", order.name, e.Name(), launches, order.path, want)
			}
		}
		if refGroups < n*9/10 {
			t.Fatal(fmt.Sprint("the input is not near-unique: ", refGroups, " groups"))
		}
	}
}

// TestGroupRunsAtTheEdges: Group answers an empty refinement without a launch,
// and the run path numbers no rows as no groups and one row as group 0.
func TestGroupRunsAtTheEdges(t *testing.T) {
	for _, e := range crossEngines() {
		before := e.dev.KernelLaunches()
		g, groups, err := e.Group(i32Col("k", nil), i32Col("p", nil), 0)
		if err != nil || groups != 0 || g.Len() != 0 || e.dev.KernelLaunches() != before {
			t.Fatalf("%s: an empty refinement: %d groups, %d launches, %v", e.Name(), groups, e.dev.KernelLaunches()-before, err)
		}
		for _, keys := range [][]int32{{}, {math.MinInt32}} {
			n := len(keys)
			colBuf, prevBuf, wait := keyBufs(t, e, i32Col("k", keys), i32Col("p", make([]int32, n)))
			ids, ev, groups, err := e.groupByRuns(colBuf, prevBuf, n, wait)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			if groups != n || n == 1 && readWords(t, e, ids, 1)[0] != 0 {
				t.Fatalf("%s: the run path over %d rows: %d groups", e.Name(), n, groups)
			}
			e.mm.Release(ids)
		}
	}
}
