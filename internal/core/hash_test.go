package core

import (
	"sync"
	"testing"

	"repro/internal/cl"
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
// through it, over the key shapes that take different rounds of the insertion
// ladder: unique keys (the optimistic round's collisions send the build to the
// pessimistic round), one key (test-before-store skips all but the first
// stores), a dup-heavy mix, and composite keys (group refinement: pessimistic
// only). The ids must number the distinct keys 0..ndistinct-1, one id per key.
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
			colBuf, wait, err := e.valuesOf(i32Col("k", c.keys))
			if err != nil {
				t.Fatal(err)
			}
			var prevBuf *cl.Buffer
			if c.prev != nil {
				var pw []*cl.Event
				if prevBuf, pw, err = e.valuesOf(i32Col("p", c.prev)); err != nil {
					t.Fatal(err)
				}
				wait = append(wait, pw...)
			}
			ht, err := e.buildSlots(c.name, colBuf, prevBuf, n, wait)
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
// and caches the slots stage only; the first join on the same column adds the
// buckets to that very table, and later joins and existence probes build
// nothing.
func TestBucketsBuiltOnceOnDemand(t *testing.T) {
	for _, e := range crossEngines() {
		r := i32Col("build", randI32(20_000, 5_000, 21))
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
		semiWarm := launchesOf(t, e, semi)
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
		if semiWarm >= semiCold || launchesOf(t, e, semi) != semiWarm {
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
		if err := e.buildLeaf(task, buckets); err != nil {
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
		for _, b := range []*cl.Buffer{ht.state, ht.keys1, ht.slotGid, ht.starts, ht.rowids} {
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
