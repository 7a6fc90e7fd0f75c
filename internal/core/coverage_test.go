package core

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/ops"
)

// TestSelectOnMaterializedList pins the gather-based selection path: the
// candidate must be a *values* oid list (join output against a duplicate
// build side), not a bitmap.
func TestSelectOnMaterializedList(t *testing.T) {
	for _, e := range engines() {
		l := i32Col("l", []int32{7, 8, 9, 7, 8})
		r := i32Col("r", []int32{7, 7, 8}) // duplicates: general join path
		lres, _, err := e.Join(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, isBM := e.mm.IsBitmap(lres); isBM {
			t.Fatalf("%s: duplicate-build join should produce a values list", e.Name())
		}
		vals := i32Col("v", []int32{10, 20, 30, 40, 50})
		sel, err := e.Select(vals, lres, 15, 45, true, true)
		if err != nil {
			t.Fatal(err)
		}
		oids := syncedOIDs(t, e, sel)
		// lres keeps positions {0,0,1,3,3,4} (each 7 matches twice);
		// values 10,10,20,40,40,50 → in range: 20,40,40.
		if len(oids) != 3 {
			t.Fatalf("%s: list-path select = %v", e.Name(), oids)
		}
		for _, o := range oids {
			if v := vals.I32s()[o]; v < 15 || v > 45 {
				t.Fatalf("%s: oid %d fails predicate", e.Name(), o)
			}
		}
		// Float flavour of the same path.
		fvals := f32Col("fv", []float32{1.5, 2.5, 3.5, 4.5, 5.5})
		fsel, err := e.Select(fvals, lres, 2, 5, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if fsel.Len() == 0 {
			t.Fatalf("%s: float list-path select empty", e.Name())
		}
		// Empty interval on the list path.
		empty, err := e.Select(vals, lres, 9, 3, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if empty.Len() != 0 {
			t.Fatalf("%s: empty-interval list select = %d rows", e.Name(), empty.Len())
		}
	}
}

// TestOIDUnionHostFallback exercises the heterogeneous union path: one
// bitmap selection, one materialised list.
func TestOIDUnionHostFallback(t *testing.T) {
	for _, e := range engines() {
		col := i32Col("c", []int32{1, 2, 3, 4, 5, 6})
		a, err := e.Select(col, nil, 1, 2, true, true) // bitmap
		if err != nil {
			t.Fatal(err)
		}
		b := bat.NewOID("list", []uint32{3, 5}) // host list
		u, err := e.OIDUnion(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if u.OcelotOwned {
			if err := e.Sync(u); err != nil {
				t.Fatal(err)
			}
		}
		want := []uint32{0, 1, 3, 5}
		if u.Len() != len(want) {
			t.Fatalf("%s: mixed union = %v", e.Name(), u.OIDs())
		}
		for i, w := range want {
			if u.OIDs()[i] != w {
				t.Fatalf("%s: mixed union = %v, want %v", e.Name(), u.OIDs(), want)
			}
		}
	}
}

// TestGroupEmptyColumn covers the degenerate grouping.
func TestGroupEmptyColumn(t *testing.T) {
	e := New(cl.NewCPUDevice(2))
	g, n, err := e.Group(i32Col("empty", nil), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || g.Len() != 0 {
		t.Fatalf("empty grouping = (%d rows, %d groups)", g.Len(), n)
	}
	if _, _, err := e.Group(bat.NewVoid("v", 0, 3), nil, 0); err == nil {
		t.Fatal("grouping a void column must error")
	}
}

// TestIntermediateOffloadAndReload forces the offload/reload cycle
// explicitly: intermediates fill a device with no evictable base cache,
// then get consumed again after being offloaded.
func TestIntermediateOffloadAndReload(t *testing.T) {
	e := New(cl.NewGPUDevice(3 << 20))
	col := i32Col("base", randI32(200_000, 100, 31)) // 800 KB
	// Produce several ~800 KB intermediates to exceed the 3 MiB device.
	prjs := make([]*bat.BAT, 4)
	for i := range prjs {
		p, err := e.Project(nil, col)
		if err != nil {
			t.Fatal(err)
		}
		prjs[i] = p
	}
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	_, off, _ := e.Memory().Stats()
	if off == 0 {
		t.Fatal("expected intermediate offloads")
	}
	// Consuming the earliest intermediate must reload it and stay correct.
	sum, err := e.Aggr(ops.Sum, prjs[0], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(sum); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, v := range col.I32s() {
		want += int64(v)
	}
	if int64(sum.I32s()[0]) != want {
		t.Fatalf("offloaded intermediate reloaded wrong: sum %d, want %d", sum.I32s()[0], want)
	}
	_, _, rel := e.Memory().Stats()
	if rel == 0 {
		t.Fatal("expected a reload of the offloaded intermediate")
	}
}

// TestEngineAccessors covers the trivial surface.
func TestEngineAccessors(t *testing.T) {
	e := New(cl.NewGPUDevice(16 << 20))
	if !strings.Contains(e.Name(), "GPU") {
		t.Fatalf("engine name = %q", e.Name())
	}
	if e.Queue() == nil || e.Memory() == nil || e.Device() == nil {
		t.Fatal("nil accessors")
	}
	if e.Memory().Entries() != 0 {
		t.Fatal("fresh engine has registry entries")
	}
	names := e.Memory().sortedEntriesForTest()
	if len(names) != 0 {
		t.Fatalf("fresh engine LRU list = %v", names)
	}
	ht, err := e.BuildHash(i32Col("h", []int32{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if ht.BuildRows() != 3 {
		t.Fatalf("BuildRows = %d", ht.BuildRows())
	}
}

// TestHasDeviceCopy covers the placement-residency probe.
func TestHasDeviceCopy(t *testing.T) {
	e := New(cl.NewGPUDevice(16 << 20))
	col := i32Col("c", randI32(1000, 10, 32))
	if e.Memory().HasDeviceCopy(col) {
		t.Fatal("unused BAT reported resident")
	}
	if _, _, err := e.Memory().ValuesForRead(col); err != nil {
		t.Fatal(err)
	}
	if !e.Memory().HasDeviceCopy(col) {
		t.Fatal("uploaded BAT not reported resident")
	}
}

// sortedEntriesForTest returns BAT names by LRU order (oldest first).
func (m *MemoryManager) sortedEntriesForTest() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	type rec struct {
		name string
		use  uint64
	}
	var rs []rec
	for b, e := range m.entries {
		rs = append(rs, rec{b.Name, e.lastUse})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].use < rs[j].use })
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.name
	}
	return names
}
