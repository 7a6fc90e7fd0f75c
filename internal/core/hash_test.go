package core

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
)

// readWords drains the queue and copies n words of buf to the host.
func readWords(t *testing.T, e *Engine, buf *cl.Buffer, n int) []uint32 {
	t.Helper()
	host := mem.Alloc(n * 4)
	if err := e.q.EnqueueRead(host, buf, nil).Wait(); err != nil {
		t.Fatal(err)
	}
	return mem.U32(host)
}

// TestStagedTableGids builds the slots stage and looks the dense ids up
// through it, over the key shapes that stress the insertion differently:
// unique keys (every row claims a slot), one key (all rows but the first only
// read), a dup-heavy mix, and composite keys (group refinement). The ids must
// number the distinct keys 0..ndistinct-1, one id per key.
func TestStagedTableGids(t *testing.T) {
	const n = 20_000
	allEqual := make([]int32, n)
	for i := range allEqual {
		allEqual[i] = 42
	}
	prev := randI32(n, 5, 3)
	cases := []struct {
		name string
		keys []int32
		prev []int32 // second key word; nil for single-word keys
	}{
		{"unique", uniqueShuffledI32(n, 1), nil},
		{"all-equal", allEqual, nil},
		{"dup-heavy", randI32(n, 7, 2), nil},
		{"composite", randI32(n, 11, 4), prev},
	}
	for _, e := range crossEngines() {
		for _, c := range cases {
			var prev *bat.BAT
			if c.prev != nil {
				prev = i32Col("p", c.prev)
			}
			colBuf, prevBuf, wait := keyBufs(t, e, i32Col("k", c.keys), prev)
			ht, err := e.buildSlots(c.name, colBuf, prevBuf, 5, n, true, wait)
			if err != nil {
				t.Fatalf("%s %s: %v", e.Name(), c.name, err)
			}
			gidBuf, _, err := ht.lookupGids(colBuf, prevBuf, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
			gids := readWords(t, e, gidBuf, n)

			type key struct{ a, b int32 }
			idOf := map[key]uint32{}
			keyOf := map[uint32]key{}
			for i, g := range gids {
				k := key{a: c.keys[i]}
				if c.prev != nil {
					k.b = c.prev[i]
				}
				if int(g) >= ht.ndistinct {
					t.Fatalf("%s %s: row %d has id %d of %d", e.Name(), c.name, i, g, ht.ndistinct)
				}
				if id, ok := idOf[k]; ok && id != g {
					t.Fatalf("%s %s: key %v has ids %d and %d", e.Name(), c.name, k, id, g)
				}
				if other, ok := keyOf[g]; ok && other != k {
					t.Fatalf("%s %s: id %d names keys %v and %v", e.Name(), c.name, g, other, k)
				}
				idOf[k], keyOf[g] = g, k
			}
			if len(idOf) != ht.ndistinct {
				t.Fatalf("%s %s: ndistinct = %d, want %d", e.Name(), c.name, ht.ndistinct, len(idOf))
			}
			if ht.uniqueKeys != (len(idOf) == n) {
				t.Fatalf("%s %s: uniqueKeys = %v over %d distinct of %d", e.Name(), c.name, ht.uniqueKeys, len(idOf), n)
			}
			if ht.buckets != nil || ht.rowids != nil {
				t.Fatalf("%s %s: the gids stage built buckets", e.Name(), c.name)
			}
			_ = gidBuf.Release()
			ht.release()
		}
	}
}

// launchesOf drains the queue around op and returns the kernel launches it
// enqueued.
func launchesOf(t *testing.T, e *Engine, op func()) int64 {
	t.Helper()
	before := e.dev.KernelLaunches()
	op()
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return e.dev.KernelLaunches() - before
}

// TestBucketsBuiltOnceOnDemand: an existence probe of a base column builds
// and caches the slots stage only — six launches under identity addressing
// (range reduction, fill, set, three-kernel rank scan) and six when hashed
// (range reduction, fill, insertion, enumeration) — the first join on the same column
// adds the buckets to that very table, and later joins and existence probes
// build nothing.
func TestBucketsBuiltOnceOnDemand(t *testing.T) {
	sparse := randI32(20_000, 5_000, 21)
	for i := range sparse {
		sparse[i] *= 1 << 16 // range far past the rule: hashed
	}
	for _, e := range crossEngines() {
		for _, build := range []struct {
			keys     []int32
			identity bool
		}{{randI32(20_000, 5_000, 21), true}, {sparse, false}} {
			r := i32Col("build", build.keys)
			l := i32Col("probe", randI32(30_000, 10_000, 22))
			semi := func() {
				res, err := e.SemiJoin(l, r)
				if err != nil {
					t.Fatal(err)
				}
				e.Release(res)
			}
			var pairs [][]uint32
			join := func() {
				lo, ro := joinBytes(t, e, l, r)
				pairs = append(pairs, lo, ro)
			}

			semiCold := launchesOf(t, e, semi)
			e.mm.mu.Lock()
			ht := e.mm.hashCache[r]
			e.mm.mu.Unlock()
			if ht == nil || ht.buckets != nil {
				t.Fatalf("%s: after the existence probe: cached table %v, want slots only", e.Name(), ht)
			}
			if (ht.tab.Bits != nil) != build.identity {
				t.Fatalf("%s: identity addressing = %v, want %v", e.Name(), ht.tab.Bits != nil, build.identity)
			}
			semiWarm := launchesOf(t, e, semi)
			// hashed: range reduction, fill, insertion, three-kernel enumeration.
			slotLaunches := semiCold - semiWarm
			if slotLaunches != 6 {
				t.Fatalf("%s: the slots stage (identity=%v) took %d launches", e.Name(), build.identity, slotLaunches)
			}
			joinFirst := launchesOf(t, e, join)
			if ht.buckets == nil {
				t.Fatalf("%s: the join built no buckets on the cached table", e.Name())
			}
			built := ht.buckets
			joinAgain := launchesOf(t, e, join)
			joinThird := launchesOf(t, e, join)
			if ht.buckets != built {
				t.Fatalf("%s: a later join rebuilt the buckets", e.Name())
			}
			const bucketLaunches = 8 // lookup + 2 fills + count + 3-kernel scan + scatter
			if joinFirst-joinAgain != bucketLaunches || joinThird != joinAgain {
				t.Fatalf("%s: join launches %d, then %d, then %d: want the first to add exactly the %d bucket kernels",
					e.Name(), joinFirst, joinAgain, joinThird, bucketLaunches)
			}
			if launchesOf(t, e, semi) != semiWarm {
				t.Fatalf("%s: existence probe launches %d cold, %d warm", e.Name(), semiCold, semiWarm)
			}
			for i := 2; i < len(pairs); i++ {
				if !equalU32(pairs[i], pairs[i%2]) {
					t.Fatalf("%s: join %d differs from the first", e.Name(), i/2)
				}
			}
			r.Free()
		}
	}
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentHashProbeBuildsBucketsOnce: two goroutines probing one cached
// slots-only table race into the bucket stage; it is built once and both get
// the same pairs.
func TestConcurrentHashProbeBuildsBucketsOnce(t *testing.T) {
	for _, e := range crossEngines() {
		r := i32Col("build", uniqueShuffledI32(20_000, 31))
		l := i32Col("probe", randI32(30_000, 40_000, 32))
		ht, err := e.slotTable(r)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var pairs [2][2][]uint32
		var errs [2]error
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lres, rres, err := e.HashProbe(l, ht)
				if err == nil {
					err = e.Sync(lres)
				}
				if err == nil {
					err = e.Sync(rres)
				}
				if err != nil {
					errs[g] = err
					return
				}
				pairs[g] = [2][]uint32{lres.OIDs(), rres.OIDs()}
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(pairs[0][0]) == 0 || !equalU32(pairs[0][0], pairs[1][0]) || !equalU32(pairs[0][1], pairs[1][1]) {
			t.Fatalf("%s: racing probes disagree: %d and %d pairs", e.Name(), len(pairs[0][0]), len(pairs[1][0]))
		}
		built := ht.buckets
		if err := ht.ensureBuckets(nil, nil); err != nil || ht.buckets != built {
			t.Fatalf("%s: bucket stage ran again (%v)", e.Name(), err)
		}
		r.Free()
	}
}

// TestBucketsAfterKeyColumnEviction: on a discrete device the key column is
// evicted between the slots stage (an existence probe) and the bucket stage (a
// join). The table holds no raw buffer across stages — it asks the Memory
// Manager again, which uploads the column once more — and the join is the one
// a fresh engine computes.
func TestBucketsAfterKeyColumnEviction(t *testing.T) {
	rvals, lvals := uniqueShuffledI32(20_000, 41), randI32(30_000, 40_000, 42)
	wantL, wantR := joinBytes(t, New(cl.NewGPUDevice(64<<20)), i32Col("probe", lvals), i32Col("build", rvals))

	e := New(cl.NewGPUDevice(64 << 20))
	r, l := i32Col("build", rvals), i32Col("probe", lvals)
	res, err := e.SemiJoin(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(res); err != nil {
		t.Fatal(err)
	}
	e.mm.mu.Lock()
	ht := e.mm.hashCache[r]
	e.mm.mu.Unlock()
	if ht == nil {
		t.Fatal("existence probe cached no table")
	}
	// Base caches go first under pressure, the hash table only after them:
	// stop as soon as the key column is out.
	for e.mm.HasDeviceCopy(r) {
		if !e.mm.makeRoom() {
			t.Fatal("key column cannot be evicted")
		}
	}
	evictions, _, _ := e.mm.Stats()
	uploads, _ := e.dev.Transfers()
	if evictions == 0 {
		t.Fatal("no eviction recorded")
	}

	gotL, gotR := joinBytes(t, e, l, r)
	if !equalU32(gotL, wantL) || !equalU32(gotR, wantR) {
		t.Fatalf("join after eviction: %d pairs, want %d", len(gotL), len(wantL))
	}
	e.mm.mu.Lock()
	same := e.mm.hashCache[r] == ht
	e.mm.mu.Unlock()
	if !same || ht.buckets == nil {
		t.Fatal("the join did not build its buckets on the cached table")
	}
	if after, _ := e.dev.Transfers(); after <= uploads || !e.mm.HasDeviceCopy(r) {
		t.Fatal("the bucket stage did not re-acquire the evicted key column")
	}
}

// TestSpillLeafReleasesKeysAfterLastStage: a spill partition's uploaded build
// keys feed every stage of its table, so they are released (and their bytes
// recycled) only behind the last one — the slots for an existence probe, the
// buckets for a join. Once that stage has landed, the device holds the
// table's own buffers and nothing else.
func TestSpillLeafReleasesKeysAfterLastStage(t *testing.T) {
	keys := make([]uint32, 5000)
	for i := range keys {
		keys[i] = uint32(i * 3 % 1000)
	}
	for _, buckets := range []bool{false, true} {
		e := New(cl.NewGPUDevice(64 << 20))
		task := &spillTask{rk: keys}
		if err := e.buildLeaf(task, buckets, true); err != nil {
			t.Fatal(err)
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		ht := task.ht
		if (ht.buckets != nil) != buckets {
			t.Fatalf("buckets=%v: bucket stage built = %v", buckets, ht.buckets != nil)
		}
		var own int64
		for _, b := range ht.buffers() {
			if b != nil {
				own += b.Size()
			}
		}
		if got := e.dev.Allocated(); got != own {
			t.Fatalf("buckets=%v: %d bytes live after the last stage, the table owns %d", buckets, got, own)
		}
		if buckets {
			// Every row id sits in the bucket of its key.
			starts := readWords(t, e, ht.starts, ht.ndistinct+1)
			rowids := readWords(t, e, ht.rowids, len(keys))
			if int(starts[ht.ndistinct]) != len(keys) {
				t.Fatalf("buckets hold %d rows, want %d", starts[ht.ndistinct], len(keys))
			}
			for g := 0; g < ht.ndistinct; g++ {
				for i := starts[g]; i < starts[g+1]; i++ {
					if keys[rowids[i]] != keys[rowids[starts[g]]] {
						t.Fatalf("bucket %d mixes keys %d and %d", g, keys[rowids[starts[g]]], keys[rowids[i]])
					}
				}
			}
		}
		ht.release()
	}
}

// keyBufs returns the device buffers of a key column and, for composite keys,
// of the previous group ids (nil otherwise), with the events to wait for.
func keyBufs(t *testing.T, e *Engine, col, prev *bat.BAT) (colBuf, prevBuf *cl.Buffer, wait []*cl.Event) {
	t.Helper()
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil {
		var pw []*cl.Event
		if prevBuf, pw, err = e.valuesOf(prev); err != nil {
			t.Fatal(err)
		}
		wait = append(wait, pw...)
	}
	return colBuf, prevBuf, wait
}

// forcedTable builds the slots stage over col (and the previous group ids
// prev < nprev, when given) under the addressing asked for, bypassing the
// rule, so both addressings can be compared over one input. Single-word
// tables are seeded into the hash cache: the next SemiJoin/AntiJoin/Join with
// col as build side runs on them.
func forcedTable(t *testing.T, e *Engine, col, prev *bat.BAT, nprev int, identity bool) *devHashTable {
	t.Helper()
	colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
	var ht *devHashTable
	var err error
	if identity {
		lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
		for _, k := range col.I32s() {
			lo, hi = min(lo, k), max(hi, k)
		}
		tab := kernels.Slots{Min: uint32(lo), Span: uint32(hi) - uint32(lo), Prev: uint32(max(nprev, 1))}
		words := int(((uint64(tab.Span)+1)*uint64(tab.Prev) + 31) / 32)
		ht, err = e.buildIdentitySlots(tab, words, colBuf, prevBuf, col.Len(), wait)
	} else {
		ht, err = e.buildHashedSlots(col.Name, colBuf, prevBuf, col.Len(), wait)
	}
	if err != nil {
		t.Fatal(err)
	}
	if prev == nil {
		ht.col = col
		e.InvalidateHash(col)
		e.mm.mu.Lock()
		e.mm.hashCache[col] = ht
		e.mm.mu.Unlock()
	}
	return ht
}

// gidsOf looks every build row's dense id up through ht.
func gidsOf(t *testing.T, e *Engine, ht *devHashTable, col, prev *bat.BAT) []uint32 {
	t.Helper()
	colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
	buf, ev, err := ht.lookupGids(colBuf, prevBuf, wait)
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	gids := append([]uint32(nil), readWords(t, e, buf, col.Len())...)
	_ = buf.Release()
	return gids
}

// samePartition reports whether two id assignments group the rows alike.
func samePartition(a, b []uint32) bool {
	ab, ba := map[uint32]uint32{}, map[uint32]uint32{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return len(a) == len(b)
}

// sortedPairs orders join output pairs so that results can be compared
// whatever order the rows of one bucket were scattered in.
func sortedPairs(l, r []uint32) []uint64 {
	out := make([]uint64, len(l))
	for i := range l {
		out[i] = uint64(l[i])<<32 | uint64(r[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestAddressingsAgree forces the hashed and the identity addressing over the
// same build keys: they must agree on the distinct count, on uniqueKeys, on
// the gid partition — identity ids additionally number the keys in key order —
// and SemiJoin, AntiJoin, Join and Group must return the same result on
// either, which is also the sequential baseline's.
func TestAddressingsAgree(t *testing.T) {
	const n = 6_000
	negative := randI32(n, 1000, 51)
	for i := range negative {
		negative[i] -= 700
	}
	constant := make([]int32, n)
	for i := range constant {
		constant[i] = -42
	}
	one := make([]int32, n)
	cases := []struct {
		name  string
		keys  []int32
		prev  []int32 // second key word; nil for single-word keys
		nprev int
	}{
		{"negative", negative, nil, 0},
		{"min==max", constant, nil, 0},
		{"n==1", []int32{7}, nil, 0},
		{"unique", uniqueShuffledI32(n, 52), nil, 0},
		{"int32-ends", []int32{math.MinInt32, math.MinInt32 + 70, math.MinInt32 + 3, math.MinInt32}, nil, 0},
		{"composite/1-prev-group", randI32(n, 13, 53), one, 1},
		{"composite/many-prev-groups", negative, randI32(n, 37, 54), 37},
	}
	for _, e := range crossEngines() {
		for _, c := range cases {
			name := e.Name() + " " + c.name
			col := i32Col("k", c.keys)
			var prev *bat.BAT
			if c.prev != nil {
				prev = i32Col("p", c.prev)
			}
			// Probe keys around, inside, below and above the build range,
			// and at both ends of int32 (the unsigned wrap-around cases).
			lo, hi := c.keys[0], c.keys[0]
			for _, k := range c.keys {
				lo, hi = min(lo, k), max(hi, k)
			}
			probeVals := []int32{lo, hi, lo - 1, hi + 1, lo - 1000, hi + 1000, math.MinInt32, math.MaxInt32, 0, -1}
			for i := 0; i < 2000; i++ {
				probeVals = append(probeVals, lo-50+int32(i)%(hi-lo+100))
			}
			probe := i32Col("probe", probeVals)

			type outcome struct {
				nd         int
				unique     bool
				gids       []uint32
				semi, anti []uint32
				pairs      []uint64
			}
			var got [2]outcome
			for k, identity := range []bool{false, true} {
				ht := forcedTable(t, e, col, prev, c.nprev, identity)
				if (ht.tab.Bits != nil) != identity {
					t.Fatalf("%s: forced identity=%v, built %+v", name, identity, ht.tab)
				}
				o := outcome{nd: ht.ndistinct, unique: ht.uniqueKeys, gids: gidsOf(t, e, ht, col, prev)}
				if prev != nil {
					ht.release()
					got[k] = o
					continue
				}
				semi, err := e.SemiJoin(probe, col)
				if err != nil {
					t.Fatal(err)
				}
				anti, err := e.AntiJoin(probe, col)
				if err != nil {
					t.Fatal(err)
				}
				o.semi = append(o.semi, syncedOIDs(t, e, semi)...)
				o.anti = append(o.anti, syncedOIDs(t, e, anti)...)
				o.pairs = sortedPairs(joinBytes(t, e, probe, col))
				e.mm.mu.Lock()
				same := e.mm.hashCache[col] == ht
				e.mm.mu.Unlock()
				if !same {
					t.Fatalf("%s: the operators did not run on the forced table", name)
				}
				got[k] = o
			}
			h, id := got[0], got[1]
			if h.nd != id.nd || h.unique != id.unique || !samePartition(h.gids, id.gids) {
				t.Fatalf("%s: hashed %d distinct (unique %v), identity %d (unique %v), same partition %v",
					name, h.nd, h.unique, id.nd, id.unique, samePartition(h.gids, id.gids))
			}
			// Identity ids are the keys' ranks in (key, prev) order.
			type key struct{ a, b int32 }
			distinct := map[key]bool{}
			for i, a := range c.keys {
				k := key{a: a}
				if c.prev != nil {
					k.b = c.prev[i]
				}
				distinct[k] = true
			}
			order := make([]key, 0, len(distinct))
			for k := range distinct {
				order = append(order, k)
			}
			sort.Slice(order, func(i, j int) bool {
				return order[i].a < order[j].a || order[i].a == order[j].a && order[i].b < order[j].b
			})
			rank := map[key]uint32{}
			for i, k := range order {
				rank[k] = uint32(i)
			}
			if len(order) != id.nd {
				t.Fatalf("%s: %d distinct keys, tables say %d", name, len(order), id.nd)
			}
			for i, a := range c.keys {
				k := key{a: a}
				if c.prev != nil {
					k.b = c.prev[i]
				}
				if id.gids[i] != rank[k] {
					t.Fatalf("%s: row %d key %v has identity id %d, want its rank %d", name, i, k, id.gids[i], rank[k])
				}
			}

			// Group, under whatever the rule picks, partitions alike.
			grp, ng, err := e.Group(col, prev, c.nprev)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(grp); err != nil {
				t.Fatal(err)
			}
			if ng != id.nd || !samePartition(mem.U32(grp.Bytes())[:len(c.keys)], id.gids) {
				t.Fatalf("%s: Group found %d groups, want %d with the tables' partition", name, ng, id.nd)
			}
			if prev != nil {
				continue
			}
			if !equalU32(h.semi, id.semi) || !equalU32(h.anti, id.anti) || len(h.pairs) != len(id.pairs) {
				t.Fatalf("%s: semi %d/%d, anti %d/%d, join %d/%d rows (hashed/identity)", name,
					len(h.semi), len(id.semi), len(h.anti), len(id.anti), len(h.pairs), len(id.pairs))
			}
			for i := range h.pairs {
				if h.pairs[i] != id.pairs[i] {
					t.Fatalf("%s: join pair %d differs between the addressings", name, i)
				}
			}
			wantSemi, err := crossMS.SemiJoin(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			wantL, wantR, err := crossMS.Join(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedPairs(wantL.OIDs(), wantR.OIDs())
			if !equalU32(id.semi, wantSemi.OIDs()) || len(id.semi)+len(id.anti) != len(probeVals) || len(want) != len(id.pairs) {
				t.Fatalf("%s: semi %d (MS %d), anti %d of %d probes, join %d (MS %d)", name,
					len(id.semi), wantSemi.Len(), len(id.anti), len(probeVals), len(id.pairs), len(want))
			}
			for i := range want {
				if want[i] != id.pairs[i] {
					t.Fatalf("%s: join pair %d differs from MS", name, i)
				}
			}
			col.Free()
		}
	}
}

// TestEmptyBuildSide: nothing to measure, nothing to address — the (hashed)
// table is empty, nothing matches, and everything anti-matches.
func TestEmptyBuildSide(t *testing.T) {
	for _, e := range crossEngines() {
		r := i32Col("build", nil)
		l := i32Col("probe", []int32{3, -1, 0, math.MaxInt32})
		semi, err := e.SemiJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		anti, err := e.AntiJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := joinBytes(t, e, l, r)
		if len(syncedOIDs(t, e, semi)) != 0 || len(syncedOIDs(t, e, anti)) != l.Len() || len(lo) != 0 {
			t.Fatalf("%s: empty build side: semi %d, anti %d, join %d rows", e.Name(), semi.Len(), anti.Len(), len(lo))
		}
		r.Free()
	}
}

// TestAddressingRule pins the rule to its definition — identity addressing
// exactly while bitmap plus rank directory take no more bytes than the hashed
// slot arrays, or than the device's local memory whatever the key count — at
// each clause's boundary range and one either side (3 000 keys, where the
// hashed arrays are the larger bound; 140 keys, where local memory is: Q8's
// part positions), and checks the memory bound the spill and placement
// estimates rely on: under either addressing, slots and buckets together stay
// within joinFootprint's table share, and the slots within kernels.SlotBytes.
func TestAddressingRule(t *testing.T) {
	for _, e := range crossEngines() {
		for _, n := range []int{3_000, 140} {
			boundary := int(4 * kernels.SlotBytes(e.dev, n)) // range/32 words of 8 bytes
			if hashed := 48 * kernels.TableCapacity(n); (n == 3_000) != (boundary == hashed) {
				t.Fatalf("%s: %d keys: boundary %d, hashed arrays' %d", e.Name(), n, boundary, hashed)
			}
			for _, c := range []struct {
				keyRange int
				identity bool
			}{{1 << 30, false}, {boundary + 1, false}, {boundary, true}, {boundary - 1, true}, {20_000, true}, {n, true}} {
				keys := make([]int32, n)
				for i := range keys {
					keys[i] = int32(i) - 17 // dense, partly negative ...
				}
				keys[n-1] = int32(c.keyRange) - 1 - 17 // ... up to the one key that sets the range
				col := i32Col("k", keys)
				ht, err := e.slotTable(col)
				if err != nil {
					t.Fatal(err)
				}
				if err := ht.ensureBuckets(nil, nil); err != nil {
					t.Fatal(err)
				}
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
				if (ht.tab.Bits != nil) != c.identity {
					t.Fatalf("%s: range %d over %d keys: identity = %v, want %v", e.Name(), c.keyRange, n, ht.tab.Bits != nil, c.identity)
				}
				if !ht.uniqueKeys || ht.ndistinct != n {
					t.Fatalf("%s: range %d: %d distinct, unique %v", e.Name(), c.keyRange, ht.ndistinct, ht.uniqueKeys)
				}
				var own, slots int64
				for _, b := range ht.buffers() {
					if b != nil {
						own += b.Size()
					}
				}
				for _, b := range []*cl.Buffer{ht.tab.Bits, ht.tab.Rank, ht.tab.State, ht.tab.Keys1, ht.tab.SlotGid} {
					if b != nil {
						slots += b.Size()
					}
				}
				if own > e.joinFootprint(0, n) || slots > kernels.SlotBytes(e.dev, n) {
					t.Fatalf("%s: range %d over %d keys: the table holds %d bytes, joinFootprint %d; its slots %d, SlotBytes %d",
						e.Name(), c.keyRange, n, own, e.joinFootprint(0, n), slots, kernels.SlotBytes(e.dev, n))
				}
				col.Free()
			}
		}
		if kernels.IdentityWords(e.dev, 3_000, 1<<32+1) != 0 || kernels.IdentityWords(e.dev, 0, 0) != 0 {
			t.Fatal("ranges beyond 32 bits, and empty ranges, must stay hashed")
		}
	}
}

// TestFloatKeysStayHashed: float bit patterns are hashed whatever their
// spread — the numeric range of the bits is not a key range.
func TestFloatKeysStayHashed(t *testing.T) {
	for _, e := range crossEngines() {
		vals := make([]float32, 4_000)
		for i := range vals {
			vals[i] = 1.5 // one bit pattern: range 1
		}
		col := f32Col("f", vals)
		ht, err := e.slotTable(col)
		if err != nil {
			t.Fatal(err)
		}
		if ht.tab.Bits != nil || ht.ndistinct != 1 {
			t.Fatalf("%s: float keys: %+v, %d distinct", e.Name(), ht.tab, ht.ndistinct)
		}
		before := e.dev.KernelLaunches()
		if _, ng, err := e.Group(col, nil, 0); err != nil || ng != 1 {
			t.Fatalf("%s: float grouping: %d groups, %v", e.Name(), ng, err)
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		// fill, insertion, three-kernel enumeration, lookup: no range
		// reduction, no identity kernels, no sort.
		if got := e.dev.KernelLaunches() - before; got != 6 {
			t.Fatalf("%s: float grouping took %d launches, want the hashed path's 6", e.Name(), got)
		}
		col.Free()
	}
}

// TestCachedTableAfterIngestAppend: an append swaps in a fresh column BAT with
// the old load-time statistics attached, and its keys leave the old range.
// The new column's table is built from its own measured range; the old
// column's cached table keeps answering for readers of the old generation.
func TestCachedTableAfterIngestAppend(t *testing.T) {
	for _, e := range crossEngines() {
		tbl := bat.NewTable("orders").Add("o_key", i32Col("o_key", uniqueShuffledI32(5_000, 61)))
		old := tbl.Col("o_key")
		old.Stats = &bat.Stats{}
		probe := i32Col("probe", []int32{10, 4_999, 5_000, 70_000, 99_999, -3, 100_000})
		semiOf := func(col *bat.BAT) []uint32 {
			res, err := e.SemiJoin(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			return append([]uint32(nil), syncedOIDs(t, e, res)...)
		}
		if got := semiOf(old); !equalU32(got, []uint32{0, 1}) {
			t.Fatalf("%s: before the append: %v", e.Name(), got)
		}
		tbl.AppendDelta(bat.NewTable("orders").Add("o_key", i32Col("o_key", []int32{70_000, 99_999, -3})), nil)
		grown := tbl.Col("o_key")
		if grown == old || grown.Stats != old.Stats {
			t.Fatal("the append is expected to swap the column and carry the stale statistics")
		}
		if got := semiOf(grown); !equalU32(got, []uint32{0, 1, 3, 4, 5}) {
			t.Fatalf("%s: after the append: %v", e.Name(), got)
		}
		if got := semiOf(old); !equalU32(got, []uint32{0, 1}) {
			t.Fatalf("%s: old generation after the append: %v", e.Name(), got)
		}
		e.mm.mu.Lock()
		oldHT, newHT := e.mm.hashCache[old], e.mm.hashCache[grown]
		e.mm.mu.Unlock()
		if oldHT == nil || newHT == nil || oldHT == newHT || newHT.ndistinct != 5_003 ||
			newHT.tab.Min != uint32(0xFFFFFFFD) || newHT.tab.Span != 100_002 {
			t.Fatalf("%s: tables after the append: old %v, new %+v", e.Name(), oldHT, newHT)
		}
		old.Free()
		grown.Free()
	}
}

// TestCachedTableOutlivesItsReaders: a probe kernel another session enqueued
// on a cached table is still in flight when an allocation needs the table's
// bytes. The pressure protocol must leave the table alone until the probe has
// run — it gets its memory from the drain instead — and InvalidateHash must
// wait for the probe likewise.
func TestCachedTableOutlivesItsReaders(t *testing.T) {
	rvals, lvals := uniqueShuffledI32(20_000, 71), randI32(30_000, 40_000, 72)
	for _, viaAlloc := range []bool{true, false} {
		e := New(cl.NewGPUDevice(2 << 20))
		r, l := i32Col("build", rvals), i32Col("probe", lvals)
		res, err := e.SemiJoin(l, r)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]uint32(nil), syncedOIDs(t, e, res)...)
		e.Release(res)
		if err := e.Finish(); err != nil { // deferred scratch releases included
			t.Fatal(err)
		}
		e.mm.mu.Lock()
		h := e.mm.hashCache[r]
		readers := len(h.readers)
		e.mm.mu.Unlock()
		if readers != 1 || h.readers[0].Name() != "semijoin_probe" {
			t.Fatalf("the existence join recorded %d readers on its table", readers)
		}

		// The other session's probe, held back by a gate.
		lBuf, lWait, err := e.valuesOf(l)
		if err != nil {
			t.Fatal(err)
		}
		e.mm.Pin(l)
		bm, sp, err := e.bitmapScratch(l.Len())
		if err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		gev := e.q.EnqueueHost("gate", func() error { <-gate; return nil }, nil)
		probe := kernels.ExistsProbe(e.q, bm, sp, h.tab, lBuf, l.Len(), false, append(lWait, gev, h.slots))
		h.noteReader(probe)
		time.AfterFunc(20*time.Millisecond, func() { close(gate) })

		if viaAlloc {
			// One byte more than is free: only the table's bytes can serve it.
			for e.mm.HasDeviceCopy(r) {
				if !e.mm.makeRoom() {
					t.Fatal("key column cannot be evicted")
				}
			}
			big, err := e.mm.Alloc(int(e.dev.GlobalMemSize - e.dev.Allocated() + 1))
			if err != nil {
				t.Fatal(err)
			}
			if !probe.Done() {
				t.Fatal("the pressure protocol freed a table under an enqueued probe")
			}
			_ = big.Release()
		} else {
			e.InvalidateHash(r)
			if !probe.Done() {
				t.Fatal("InvalidateHash freed a table under an enqueued probe")
			}
		}
		e.mm.mu.Lock()
		gone := e.mm.hashCache[r] == nil
		e.mm.mu.Unlock()
		if !gone {
			t.Fatal("the idle table was not dropped")
		}
		var got []uint32
		for i, b := range readWords(t, e, bm, kernels.BitmapWords(l.Len())) {
			for ; b != 0; b &= b - 1 { // bits past the last row are zero
				got = append(got, uint32(i*32)+uint32(bits.TrailingZeros32(b)))
			}
		}
		if !equalU32(got, want) {
			t.Fatalf("the gated probe found %d rows, want %d", len(got), len(want))
		}
		_ = bm.Release()
		e.mm.Release(sp)
	}
}
