package core

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
)

// TestScratchFreeListRecyclesBytes: releasing a scratch buffer keeps its
// backing array for the next same-size allocation and returns the device
// capacity immediately. Contents of recycled scratch are undefined (OpenCL
// cl_mem semantics), so no zeroing is asserted.
func TestScratchFreeListRecyclesBytes(t *testing.T) {
	dev := cl.NewGPUDevice(16 << 20)
	ctx := cl.NewContext(dev)
	m := NewMemoryManager(ctx, cl.NewQueue(ctx))

	b1, err := m.Alloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	first := b1.Bytes()
	first[7] = 0xAB
	m.Release(b1)
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("recycled scratch still holds %d device bytes, want 0", got)
	}

	b2, err := m.Alloc(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	second := b2.Bytes()
	if &second[0] != &first[0] {
		t.Fatal("same-size scratch allocation did not reuse the recycled backing array")
	}
	if got := dev.Allocated(); got != 1<<10 {
		t.Fatalf("recycled allocation charged %d bytes, want %d", got, 1<<10)
	}
	if hits, _ := m.ScratchStats(); hits != 1 {
		t.Fatalf("scratch hits = %d, want 1", hits)
	}
	// A different size must not match.
	b3, err := m.Alloc(2 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(b3.Bytes()) != 2<<10 {
		t.Fatalf("misallocated size %d", len(b3.Bytes()))
	}
	m.Release(b2)
	m.Release(b3)
}

// TestOperatorScratchReuse: the second run of the same operator sequence
// must be served from the scratch free-list (the counts/offsets/spine/total
// quartet of Join and the grouping scratch), not fresh allocations.
func TestOperatorScratchReuse(t *testing.T) {
	e := New(cl.NewCPUDevice(2))
	n := 20000
	l := i32Col("l", randI32(n, 50, 41))
	r := i32Col("r", randI32(n/10, 50, 42))
	run := func() {
		lres, rres, err := e.Join(l, r)
		if err != nil {
			t.Fatal(err)
		}
		grp, ng, err := e.Group(l, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ng <= 0 {
			t.Fatalf("grouping found %d groups", ng)
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, b := range []*bat.BAT{lres, rres, grp} {
			e.Release(b)
		}
	}
	run()
	hitsBefore, _ := e.Memory().ScratchStats()
	run()
	hitsAfter, _ := e.Memory().ScratchStats()
	if hitsAfter <= hitsBefore {
		t.Fatalf("second operator run hit the scratch free-list %d times, want > %d",
			hitsAfter-hitsBefore, 0)
	}
}
