package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
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

// uniqueShuffledI32 returns a deterministic permutation of 0..n-1 as int32.
func uniqueShuffledI32(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// joinBytes runs e.Join and syncs both sides back to host oid slices.
func joinBytes(t *testing.T, e *Engine, l, r *bat.BAT) ([]uint32, []uint32) {
	t.Helper()
	lres, rres, err := e.Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	lo := append([]uint32(nil), syncedOIDs(t, e, lres)...)
	ro := append([]uint32(nil), syncedOIDs(t, e, rres)...)
	e.Release(lres)
	e.Release(rres)
	return lo, ro
}

// TestStagedTableGids builds the slots stage and looks the dense ids up
// through it, over the key shapes that stress the build differently: unique
// keys, one key (all rows but the first only read), a dup-heavy mix, sparse
// keys (the sorted addressing) and composite keys (group refinement, under
// identity addressing). The ids must
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
		{"sparse", sparseUnique(n/2, -2_000_000_000, 2_000_000_000, 5), nil},
		{"composite", randI32(n, 11, 4), prev},
	}
	for _, e := range crossEngines() {
		for _, c := range cases {
			n := len(c.keys)
			col := i32Col("k", c.keys)
			var prev *bat.BAT
			if c.prev != nil {
				prev = i32Col("p", c.prev)
			}
			colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
			var ht *devHashTable
			if prev != nil {
				ht = forcedTable(t, e, col, prev, 5, true)
			} else {
				var err error
				if ht, err = e.buildSlots(colBuf, n, wait); err != nil {
					t.Fatalf("%s %s: %v", e.Name(), c.name, err)
				}
				if sparse := c.name == "sparse"; (ht.tab.Keys != nil) != sparse {
					t.Fatalf("%s %s: sorted addressing %v, want %v", e.Name(), c.name, ht.tab.Keys != nil, sparse)
				}
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
// (range reduction, fill, set, three-kernel rank scan), and under the sorted
// addressing range reduction, pack, three a radix pass, flags, three-kernel
// scan and compaction — the first join on the same column
// adds the buckets to that very table, and later joins and existence probes
// build nothing.
func TestBucketsBuiltOnceOnDemand(t *testing.T) {
	sparse := randI32(20_000, 5_000, 21)
	for i := range sparse {
		sparse[i] *= 1 << 16 // range far past the rule: sorted, 29-bit codes
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
			// Range reduction, then fill, bit set, three-kernel rank scan — or
			// pack, three kernels a radix pass, boundary flags, three-kernel
			// scan, compaction.
			want := int64(6)
			if radix := kernels.RadixBits(e.dev); !build.identity {
				want = int64(7 + 3*((29+radix-1)/radix))
			}
			if slotLaunches := semiCold - semiWarm; slotLaunches != want {
				t.Fatalf("%s: the slots stage (identity=%v) took %d launches, want %d", e.Name(), build.identity, slotLaunches, want)
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
		if err := ht.ensureBuckets(); err != nil || ht.buckets != built {
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
// rule, so both addressings can be compared over one input; the sorted
// addressing takes single-word keys only. Single-word tables are seeded into
// the hash cache: the next SemiJoin/AntiJoin/Join with col as build side runs
// on them.
func forcedTable(t *testing.T, e *Engine, col, prev *bat.BAT, nprev int, identity bool) *devHashTable {
	t.Helper()
	colBuf, prevBuf, wait := keyBufs(t, e, col, prev)
	ks, err := e.measureKeys(colBuf, prevBuf, nprev, col.Len(), wait)
	if err != nil {
		t.Fatal(err)
	}
	var ht *devHashTable
	if identity {
		words := int((ks.Range() + 31) / 32)
		ht, err = e.buildIdentitySlots(kernels.Slots{Min: ks.Min, Span: ks.Span, Prev: ks.Prev}, words, colBuf, prevBuf, col.Len(), wait)
	} else {
		ht, err = e.buildSortedSlots(ks, colBuf, col.Len(), wait)
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

// TestAddressingsAgree forces the identity and the sorted addressing over the
// same single-word build keys: they must agree on the distinct count, on
// uniqueKeys and on every id — both number the keys in key order — and
// SemiJoin, AntiJoin, Join and Group must return the same result on either,
// which is also the sequential baseline's. Composite keys take identity
// addressing alone, which numbers them in (key, prev) order.
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
			var got [2]outcome // identity, sorted
			for k, identity := range []bool{true, false} {
				if prev != nil && !identity {
					got[k] = got[0]
					continue
				}
				ht := forcedTable(t, e, col, prev, c.nprev, identity)
				if (ht.tab.Bits != nil) != identity || (ht.tab.Keys != nil) == identity {
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
			id, so := got[0], got[1]
			if id.nd != so.nd || id.unique != so.unique || !equalU32(id.gids, so.gids) {
				t.Fatalf("%s: identity %d distinct (unique %v), sorted %d (unique %v), same ids %v",
					name, id.nd, id.unique, so.nd, so.unique, equalU32(id.gids, so.gids))
			}
			// Ids are the keys' ranks in (key, prev) order.
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
					t.Fatalf("%s: row %d key %v has id %d, want its rank %d", name, i, k, id.gids[i], rank[k])
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
			if !equalU32(so.semi, id.semi) || !equalU32(so.anti, id.anti) || len(so.pairs) != len(id.pairs) {
				t.Fatalf("%s: semi %d/%d, anti %d/%d, join %d/%d rows (sorted/identity)", name,
					len(so.semi), len(id.semi), len(so.anti), len(id.anti), len(so.pairs), len(id.pairs))
			}
			for i := range so.pairs {
				if so.pairs[i] != id.pairs[i] {
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

// TestEmptyBuildSide: nothing to measure, nothing to address — the (sorted)
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
// exactly while bitmap plus rank directory take no more bytes than 12 for
// each slot of the power of two at least 1.4n + 8, or than the device's local
// memory whatever the key count; the sorted addressing otherwise — at each
// clause's boundary range and one either side (3 000 keys, where the slot
// bound is the larger: 393 216 addresses on both devices; 140 keys, where
// local memory is: Q8's part positions, 131 072 addresses on the CPU and
// 196 608 on the GPU model), and checks the table's memory bound: under
// either addressing the slots stay within kernels.SlotBytes, and slots and
// buckets together within that plus three words per build row (gids, row
// ids, starts).
func TestAddressingRule(t *testing.T) {
	for _, e := range crossEngines() {
		for _, n := range []int{3_000, 140} {
			boundary := 393_216
			if n == 140 {
				boundary = 4 * e.dev.Const.LocalMemSize // range/32 words of 8 bytes
			}
			if got := int(4 * kernels.SlotBytes(e.dev, n)); got != boundary {
				t.Fatalf("%s: %d keys: identity admits %d addresses, want %d", e.Name(), n, got, boundary)
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
				if err := ht.ensureBuckets(); err != nil {
					t.Fatal(err)
				}
				if err := e.Finish(); err != nil {
					t.Fatal(err)
				}
				if (ht.tab.Bits != nil) != c.identity || (ht.tab.Keys != nil) == c.identity {
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
				for _, b := range []*cl.Buffer{ht.tab.Bits, ht.tab.Rank, ht.tab.Keys} {
					if b != nil {
						slots += b.Size()
					}
				}
				bound := kernels.SlotBytes(e.dev, n) + 12*int64(n+2)
				if own > bound || slots > kernels.SlotBytes(e.dev, n) {
					t.Fatalf("%s: range %d over %d keys: the table holds %d bytes, bound %d; its slots %d, SlotBytes %d",
						e.Name(), c.keyRange, n, own, bound, slots, kernels.SlotBytes(e.dev, n))
				}
				col.Free()
			}
		}
		if kernels.IdentityWords(e.dev, 3_000, 1<<32+1) != 0 || kernels.IdentityWords(e.dev, 0, 0) != 0 {
			t.Fatal("ranges beyond 32 bits, and empty ranges, must not take identity addressing")
		}
	}
}

// TestFloatKeysAddressedByBits: float keys are measured and addressed by
// their bit patterns like any int32 key, and equal exactly when their bits
// are: one pattern is a range of one address and takes identity addressing
// (measurement, fill, bit set, three-kernel rank scan, look-up); patterns of
// both signs are spread over the int32 range and take the sorted addressing.
// Semi-join, join and grouping agree with the sequential baseline.
func TestFloatKeysAddressedByBits(t *testing.T) {
	one := make([]float32, 4_000)
	spread := make([]float32, 4_000)
	for i := range one {
		one[i] = 1.5
		spread[i] = float32(i%300-150) * 0.37
	}
	probeVals := []float32{1.5, 0.37, -0.37, 55.5, -55.5, 1e30, float32(math.Inf(-1))}
	for i := 0; i < 500; i++ {
		probeVals = append(probeVals, float32(i-250)*0.37)
	}
	probe := f32Col("p", probeVals)
	for _, e := range crossEngines() {
		for _, c := range []struct {
			vals     []float32
			identity bool
			groups   int
		}{{one, true, 1}, {spread, false, 300}} {
			col := f32Col("f", c.vals)
			ht, err := e.slotTable(col)
			if err != nil {
				t.Fatal(err)
			}
			if (ht.tab.Bits != nil) != c.identity || ht.ndistinct != c.groups {
				t.Fatalf("%s: float keys: %+v, %d distinct", e.Name(), ht.tab, ht.ndistinct)
			}
			before := e.dev.KernelLaunches()
			if _, ng, err := e.Group(col, nil, 0); err != nil || ng != c.groups {
				t.Fatalf("%s: float grouping: %d groups, %v", e.Name(), ng, err)
			}
			if err := e.Finish(); err != nil {
				t.Fatal(err)
			}
			if got := e.dev.KernelLaunches() - before; c.identity && got != 7 {
				t.Fatalf("%s: float grouping took %d launches, want identity addressing's 7", e.Name(), got)
			}
			semi, err := e.SemiJoin(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			wantSemi, err := crossMS.SemiJoin(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			l, r := joinBytes(t, e, probe, col)
			wantL, wantR, err := crossMS.Join(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			if got := syncedOIDs(t, e, semi); !equalU32(got, wantSemi.OIDs()) || !slices.Equal(sortedPairs(l, r), sortedPairs(wantL.OIDs(), wantR.OIDs())) {
				t.Fatalf("%s: float semi-join %d rows (MS %d), join %d (MS %d)", e.Name(), len(got), wantSemi.Len(), len(l), wantL.Len())
			}
			col.Free()
		}
	}
}

// TestCachedTableAfterIngestAppend: an append swaps in a fresh column BAT
// whose keys leave the old range. The new column's table is built from its
// own measured range; the old column's cached table keeps answering for
// readers of the old generation.
func TestCachedTableAfterIngestAppend(t *testing.T) {
	for _, e := range crossEngines() {
		tbl := bat.NewTable("orders").Add("o_key", i32Col("o_key", uniqueShuffledI32(5_000, 61)))
		old := tbl.Col("o_key")
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
		tbl.AppendDelta(bat.NewTable("orders").Add("o_key", i32Col("o_key", []int32{70_000, 99_999, -3})))
		grown := tbl.Col("o_key")
		if grown == old {
			t.Fatal("the append is expected to swap the column")
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

// TestSortedAddressingAcrossEngines groups, semi-joins, anti-joins and joins
// keys identity addressing refuses — sparse int32 keys reaching MinInt32 and
// MaxInt32, float keys of both signs, and composite keys whose codes span
// more than 2^32 — on Ocelot-CPU at one, two and eight threads and on the GPU
// model. Every engine must return the same group id column to the byte, and
// every result must equal the sequential baseline's: the same partition into
// groups, the same semi- and anti-join positions and the same join pairs.
func TestSortedAddressingAcrossEngines(t *testing.T) {
	const n = 30_000
	keys := sparseUnique(n/3, math.MinInt32, math.MaxInt32, 61)
	keys = append(keys, keys[:n/3]...)
	keys = append(keys, keys[:n/3]...) // every key three times
	rand.New(rand.NewSource(62)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	probeKeys := append(sparseUnique(n/2, math.MinInt32, math.MaxInt32, 63), keys[:n/2]...)
	floats := make([]float32, n)
	probeFloats := make([]float32, n)
	for i := range floats {
		floats[i] = math.Float32frombits(uint32(keys[i]) &^ (1 << 30)) // finite, both signs
		probeFloats[i] = math.Float32frombits(uint32(probeKeys[i]) &^ (1 << 30))
	}
	prev := randI32(n, 5, 64)
	type input struct {
		name        string
		build, test func() *bat.BAT
		prev        []int32
		nprev       int
	}
	inputs := []input{
		{"sparse int32", func() *bat.BAT { return i32Col("k", keys) }, func() *bat.BAT { return i32Col("p", probeKeys) }, nil, 0},
		{"float", func() *bat.BAT { return f32Col("k", floats) }, func() *bat.BAT { return f32Col("p", probeFloats) }, nil, 0},
		{"composite past 2^32", func() *bat.BAT { return i32Col("k", keys) }, nil, prev, 5},
	}
	engines := []*Engine{New(cl.NewCPUDevice(1)), New(cl.NewCPUDevice(2)), New(cl.NewCPUDevice(8)), New(cl.NewGPUDevice(128 << 20))}
	for _, in := range inputs {
		var grp *bat.BAT
		if in.prev != nil {
			grp = i32Col("g", in.prev)
		}
		refBAT, refGroups, err := crossMS.Group(in.build(), grp, in.nprev)
		if err != nil {
			t.Fatal(err)
		}
		ref := mem.U32(mem.BytesOfI32(refBAT.I32s()))
		var firstIDs []uint32
		for _, e := range engines {
			name := in.name + " on " + e.Name()
			col := in.build()
			var grp *bat.BAT
			if in.prev != nil {
				grp = i32Col("g", in.prev)
			}
			g, groups, err := e.Group(col, grp, in.nprev)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Sync(g); err != nil {
				t.Fatal(err)
			}
			ids := slices.Clone(mem.U32(mem.BytesOfI32(g.I32s())))
			if groups != refGroups || !samePartition(ids, ref) {
				t.Fatalf("%s: %d groups, baseline %d; same partition: %v", name, groups, refGroups, samePartition(ids, ref))
			}
			if firstIDs == nil {
				firstIDs = ids
			} else if !equalU32(ids, firstIDs) {
				t.Fatalf("%s: the group ids differ from %s's", name, engines[0].Name())
			}
			if in.test == nil {
				continue
			}
			probe := in.test()
			ht, err := e.slotTable(col)
			if err != nil {
				t.Fatal(err)
			}
			if ht.tab.Keys == nil || ht.ndistinct != n/3 {
				t.Fatalf("%s: the build side took %+v with %d distinct keys", name, ht.tab, ht.ndistinct)
			}
			for _, negate := range []bool{false, true} {
				got, err := e.existenceJoin(probe, col, negate)
				if err != nil {
					t.Fatal(err)
				}
				want, err := crossMS.SemiJoin(probe, col)
				if negate {
					want, err = crossMS.AntiJoin(probe, col)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !equalU32(syncedOIDs(t, e, got), want.OIDs()) {
					t.Fatalf("%s: existence join (negate %v) differs from the baseline's", name, negate)
				}
			}
			l, r := joinBytes(t, e, probe, col)
			wantL, wantR, err := crossMS.Join(probe, col)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sortedPairs(l, r), sortedPairs(wantL.OIDs(), wantR.OIDs())) {
				t.Fatalf("%s: join gives %d pairs, the baseline %d", name, len(l), wantL.Len())
			}
		}
	}
}
