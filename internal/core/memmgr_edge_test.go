package core

import (
	"errors"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/ops"
)

// TestEvictionWaitsForGatingConsumer evicts a cached base buffer that a
// still-pending command reads: the lazy queue has enqueued the select but
// nothing has forced it yet, so the §3.3 pressure protocol must wait on the
// recorded consumer events (the paper's footnote 5) before releasing the
// buffer — evicting under a reader would hand the bytes to the new
// allocation mid-scan.
func TestEvictionWaitsForGatingConsumer(t *testing.T) {
	e := New(cl.NewGPUDevice(2 << 20))
	vals := randI32(200_000, 1000, 41) // 800 KB cached on upload
	col := i32Col("gated", vals)

	sel, err := e.Select(col, nil, 100, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	// The select is enqueued, not executed; its read of col's cache is a
	// recorded consumer. Allocate past the remaining capacity so makeRoom
	// picks the base cache as the (only) pass-1 victim.
	buf, err := e.Memory().Alloc(3 << 19) // 1.5 MiB: forces pass-1 eviction
	if err != nil {
		t.Fatal(err)
	}
	if e.Memory().HasDeviceCopy(col) {
		t.Fatal("base cache survived the pressure it should have absorbed")
	}
	ev, _, _ := e.Memory().Stats()
	if ev == 0 {
		t.Fatal("expected a base eviction")
	}
	_ = buf.Release()

	var want []uint32
	for i, v := range vals {
		if v >= 100 && v <= 499 {
			want = append(want, uint32(i))
		}
	}
	got := syncedOIDs(t, e, sel)
	if len(got) != len(want) {
		t.Fatalf("select under eviction returned %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("oid %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestHashCachedBaseDroppedUnderPressureRebuilds drops the §5.2.6 hash-table
// cache of a base column (pressure pass 2), then joins against the column
// again: the table must rebuild transparently and produce identical pairs.
func TestHashCachedBaseDroppedUnderPressureRebuilds(t *testing.T) {
	e := New(cl.NewGPUDevice(16 << 20))
	r := i32Col("build", uniqueShuffledI32(20_000, 42))
	l := i32Col("probe", randI32(50_000, 20_000, 43))

	ht1, err := e.BuildHash(r)
	if err != nil {
		t.Fatal(err)
	}
	ol1, or1, err := e.Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	lref := append([]uint32(nil), syncedOIDs(t, e, ol1)...)
	rref := append([]uint32(nil), syncedOIDs(t, e, or1)...)
	e.Release(ol1)
	e.Release(or1)

	// Drain every evictable registration: base caches first, then the
	// unpinned hash table, then intermediate offloads.
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	for e.mm.makeRoom() {
	}
	e.mm.mu.Lock()
	cached := len(e.mm.hashCache)
	e.mm.mu.Unlock()
	if cached != 0 {
		t.Fatalf("hash cache still holds %d tables after full pressure drain", cached)
	}

	ht2, err := e.BuildHash(r)
	if err != nil {
		t.Fatal(err)
	}
	if ht1 == ht2 {
		t.Fatal("dropped hash table cannot be the cached pointer")
	}
	ol2, or2, err := e.Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	lg := syncedOIDs(t, e, ol2)
	rg := syncedOIDs(t, e, or2)
	if len(lg) != len(lref) {
		t.Fatalf("rebuilt join returned %d pairs, want %d", len(lg), len(lref))
	}
	for i := range lg {
		if lg[i] != lref[i] || rg[i] != rref[i] {
			t.Fatalf("pair %d: got (%d,%d), want (%d,%d)", i, lg[i], rg[i], lref[i], rref[i])
		}
	}
}

// TestReuploadAfterMidPlanEviction evicts a base column's device cache in
// the middle of a plan that reads the column again afterwards: the second
// operator must re-upload it and the final result must match an engine that
// never felt pressure.
func TestReuploadAfterMidPlanEviction(t *testing.T) {
	e := New(cl.NewGPUDevice(8 << 20))
	vals := randI32(150_000, 1000, 44)
	col := i32Col("base", vals)

	sel, err := e.Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	// Mid-plan pressure: shed every evictable buffer, the col cache
	// included, while sel stays live (offloaded to the host if needed).
	for e.mm.makeRoom() {
	}
	if e.Memory().HasDeviceCopy(col) {
		t.Fatal("column cache survived the drain")
	}

	// The plan continues: projecting through sel re-uploads col.
	prj, err := e.Project(sel, col)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Aggr(ops.Sum, prj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(sum); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range vals {
		if v <= 499 {
			want += int64(v)
		}
	}
	if got := int64(sum.I32s()[0]); got != want {
		t.Fatalf("post-eviction plan summed %d, want %d", got, want)
	}
	if !e.Memory().HasDeviceCopy(col) {
		t.Fatal("column was not re-uploaded by the consuming operator")
	}
	ev, _, _ := e.Memory().Stats()
	if ev == 0 {
		t.Fatal("expected at least one eviction")
	}
}

// TestPurgeDeviceCacheZeroesDeadDevice kills a device holding a cached base
// copy, a cached hash table and a live intermediate: the purge must shed the
// caches, keep the intermediate's registration (its release stays the
// owning session's job), and the corpse must account for zero bytes once
// the intermediate is released too.
func TestPurgeDeviceCacheZeroesDeadDevice(t *testing.T) {
	e := New(cl.NewGPUDevice(64 << 20))
	col := i32Col("base", randI32(100_000, 1000, 45))
	if _, _, err := e.Memory().ValuesForRead(col); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildHash(col); err != nil {
		t.Fatal(err)
	}
	sel, err := e.Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}

	e.Device().Kill()
	e.PurgeDeviceCache()
	if e.Memory().HasDeviceCopy(col) {
		t.Fatal("dead device still caches the base column")
	}
	e.mm.mu.Lock()
	cached := len(e.mm.hashCache)
	_, selRegistered := e.mm.entries[sel]
	e.mm.mu.Unlock()
	if cached != 0 {
		t.Fatalf("dead device still caches %d hash tables", cached)
	}
	if !selRegistered {
		t.Fatal("purge must not touch a live intermediate's registration")
	}

	e.Release(sel)
	if got := e.Device().Allocated(); got != 0 {
		t.Fatalf("dead device still accounts for %d bytes", got)
	}
}

// TestOversizedJoinRefusesCleanly: on a GPU-only engine a join whose table
// does not fit the device even after the Memory Manager has evicted
// everything it may fails with cl.ErrOutOfDeviceMemory — the refusal the
// hybrid engine's fallback answers on the CPU — and leaves no device bytes
// behind once the queue has drained.
func TestOversizedJoinRefusesCleanly(t *testing.T) {
	const n = 200_000
	keys := uniqueShuffledI32(n, 31)
	for i := range keys {
		keys[i] *= 7919 // spread over a wide range: sorted slots, ~4 MiB with the sort's scratch
	}
	dev := cl.NewGPUDevice(2 << 20)
	e := New(dev)
	joins := map[string]func(l, r *bat.BAT) error{
		"join": func(l, r *bat.BAT) error { _, _, err := e.Join(l, r); return err },
		"semi": func(l, r *bat.BAT) error { _, err := e.SemiJoin(l, r); return err },
		"anti": func(l, r *bat.BAT) error { _, err := e.AntiJoin(l, r); return err },
	}
	for name, join := range joins {
		if err := join(i32Col("l", keys), i32Col("r", keys)); !errors.Is(err, cl.ErrOutOfDeviceMemory) {
			t.Fatalf("%s: err = %v, want ErrOutOfDeviceMemory", name, err)
		}
		if err := e.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := dev.Allocated(); got != 0 {
			t.Fatalf("%s: %d device bytes live after the refused join", name, got)
		}
	}
}
