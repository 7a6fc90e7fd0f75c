package core

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// handoverEngines are the two hand-over regimes of Sync: a host-resident
// device (the buffer's bytes become the heap) and a discrete one (the heap is
// a copy made at sync time).
func handoverEngines() []*Engine {
	return []*Engine{New(cl.NewCPUDevice(2)), New(cl.NewGPUDevice(64 << 20))}
}

// TestSyncHandsOverTheBuffer: a result is a descriptor without a heap until
// Sync; on the CPU the heap Sync supplies is the former device buffer itself
// (no allocation, no copy), on the simulated GPU a copy of it. Values and
// selection bitmaps (whose materialised oid list is what travels) alike.
func TestSyncHandsOverTheBuffer(t *testing.T) {
	vals := randI32(5000, 100, 31)
	for _, e := range handoverEngines() {
		col := i32Col("c", vals)
		doubled, err := e.BinopConst(ops.Mul, col, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := e.Select(col, nil, 10, 19, true, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*bat.BAT{doubled, sel} {
			if !res.OcelotOwned || res.Bytes() != nil {
				t.Fatalf("%s: %v must be an Ocelot-owned descriptor without a heap before Sync", e.Name(), res)
			}
			buf, _, err := e.valuesOf(res)
			if err != nil {
				t.Fatal(err)
			}
			device := &buf.Bytes()[0]
			if err := e.Sync(res); err != nil {
				t.Fatal(err)
			}
			if res.OcelotOwned || len(res.Bytes()) != res.Len()*4 {
				t.Fatalf("%s: after Sync %v has a %d-byte heap", e.Name(), res, len(res.Bytes()))
			}
			if aliases := &res.Bytes()[0] == device; aliases == e.dev.Discrete {
				t.Fatalf("%s: heap aliases the former device buffer = %v, want %v", e.Name(), aliases, !e.dev.Discrete)
			}
		}
		for i, v := range doubled.I32s() {
			if v != 2*vals[i] {
				t.Fatalf("%s: doubled[%d] = %d, want %d", e.Name(), i, v, 2*vals[i])
			}
		}
		k := 0
		for i, v := range vals {
			if v >= 10 && v <= 19 {
				if sel.OIDs()[k] != uint32(i) {
					t.Fatalf("%s: selection row %d = %d, want %d", e.Name(), k, sel.OIDs()[k], i)
				}
				k++
			}
		}
		if k != sel.Len() {
			t.Fatalf("%s: selection has %d rows, want %d", e.Name(), sel.Len(), k)
		}
	}
}

// TestSyncedResultIsNeverRecycled: the bytes handed over belong to the result
// from then on — releasing the BAT and churning a thousand allocations of the
// very same size through the free-list must not touch them.
func TestSyncedResultIsNeverRecycled(t *testing.T) {
	vals := randI32(3000, 50, 32)
	for _, e := range handoverEngines() {
		col := i32Col("c", vals)
		sum, err := e.Binop(ops.Add, col, col)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := e.Select(col, nil, 0, 24, true, true)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for _, res := range []*bat.BAT{sum, sel} {
			if err := e.Sync(res); err != nil {
				t.Fatal(err)
			}
			want = append(want, append([]byte(nil), res.Bytes()...))
			e.Release(res)
		}
		for _, words := range []int{sum.Len() + 1, sel.Len() + 1} {
			for i := 0; i < 1000; i++ {
				b, err := e.mm.Alloc(words * 4)
				if err != nil {
					t.Fatal(err)
				}
				for j := range b.Bytes() {
					b.Bytes()[j] = 0xFF
				}
				e.mm.Release(b)
			}
		}
		for i, res := range []*bat.BAT{sum, sel} {
			if string(res.Bytes()) != string(want[i]) {
				t.Fatalf("%s: %v changed after Release and 1000 same-size allocations", e.Name(), res)
			}
		}
	}
}

// TestSyncedValueFeedsLaterOperators: a value synced mid-plan (what ScalarF
// and mid-plan Sync do) stays usable as an operator input — values as
// operands, a selection as a candidate list — and gives the same answer as
// the unsynced value would.
func TestSyncedValueFeedsLaterOperators(t *testing.T) {
	vals := randI32(4000, 100, 33)
	for _, e := range handoverEngines() {
		col := i32Col("c", vals)
		inc, err := e.BinopConst(ops.Add, col, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := e.Select(col, nil, 50, 99, true, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*bat.BAT{inc, sel} {
			if err := e.Sync(b); err != nil {
				t.Fatal(err)
			}
		}
		prj, err := e.Project(sel, inc)
		if err != nil {
			t.Fatal(err)
		}
		total, err := e.Aggr(ops.Sum, prj, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Sync(total); err != nil {
			t.Fatal(err)
		}
		var want int32
		for _, v := range vals {
			if v >= 50 {
				want += v + 1
			}
		}
		if got := total.I32s()[0]; got != want {
			t.Fatalf("%s: sum over the synced selection of the synced column = %d, want %d", e.Name(), got, want)
		}
		for _, b := range []*bat.BAT{inc, sel, prj, total} {
			e.Release(b)
		}
	}
}

// TestAllocZeroedAfterRecycledGarbage: a zeroed allocation must hand out zeros
// even when the free-list serves it the bytes of a buffer that was released
// full of ones — the hash build's fail flag depends on it: kernels only ever
// raise that word, so a stale non-zero one reads as a failed insertion round
// and restarts the build with a doubled table.
func TestAllocZeroedAfterRecycledGarbage(t *testing.T) {
	for _, e := range handoverEngines() {
		dirty, err := e.mm.Alloc(4)
		if err != nil {
			t.Fatal(err)
		}
		first := &dirty.Bytes()[0]
		for i := range dirty.Bytes() {
			dirty.Bytes()[i] = 0xFF
		}
		e.mm.Release(dirty)
		flag, err := e.mm.alloc(4, true)
		if err != nil {
			t.Fatal(err)
		}
		if &flag.Bytes()[0] != first {
			t.Fatalf("%s: the zeroed allocation did not reuse the recycled word; the test proves nothing", e.Name())
		}
		if w := flag.U32()[0]; w != 0 {
			t.Fatalf("%s: a zeroed allocation returned %#x over recycled bytes", e.Name(), w)
		}
		e.mm.Release(flag)

		// End to end: stock the free-list with non-zero words, then build a
		// hashed (sparse-key) table; it must settle at the first capacity.
		var words []*cl.Buffer
		for i := 0; i < maxScratchFreePerSize; i++ {
			//lint:transfer collected in words, released in the next loop
			b, err := e.mm.Alloc(4)
			if err != nil {
				t.Fatal(err)
			}
			b.U32()[0] = 0xFFFFFFFF
			words = append(words, b)
		}
		for _, b := range words {
			e.mm.Release(b)
		}
		keys := make([]int32, 2000)
		for i := range keys {
			keys[i] = int32(i) * 1_000_003 // far too sparse for identity addressing
		}
		ht, err := e.BuildHash(i32Col("sparse", keys))
		if err != nil {
			t.Fatal(err)
		}
		h := ht.(*devHashTable)
		if h.tab.State == nil || h.tab.Capacity != kernels.TableCapacity(len(keys)) || h.ndistinct != len(keys) {
			t.Fatalf("%s: hashed build over recycled flag words: capacity %d (want %d), %d distinct (want %d)",
				e.Name(), h.tab.Capacity, kernels.TableCapacity(len(keys)), h.ndistinct, len(keys))
		}
		ht.Release()
	}
}
