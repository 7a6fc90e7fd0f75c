package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignment(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 8, 100, 4096, 1 << 20} {
		b := Alloc(n)
		if len(b) != n {
			t.Fatalf("Alloc(%d): got len %d", n, len(b))
		}
		if !Aligned(b) {
			t.Fatalf("Alloc(%d): not %d-byte aligned", n, Align)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Alloc(%d): byte %d not zeroed", n, i)
			}
		}
	}
}

func TestAllocZeroAndEmptyAligned(t *testing.T) {
	if b := Alloc(0); b != nil {
		t.Fatalf("Alloc(0) = %v, want nil", b)
	}
	if !Aligned(nil) {
		t.Fatal("nil slice should count as aligned")
	}
}

func TestAllocNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(-1) did not panic")
		}
	}()
	Alloc(-1)
}

func TestAllocAlignmentProperty(t *testing.T) {
	f := func(n uint16) bool {
		b := Alloc(int(n))
		return len(b) == int(n) && Aligned(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestI32ViewRoundTrip(t *testing.T) {
	b := Alloc(16)
	s := I32(b)
	if len(s) != 4 {
		t.Fatalf("I32 view length = %d, want 4", len(s))
	}
	s[0], s[3] = -7, 42
	s2 := I32(b)
	if s2[0] != -7 || s2[3] != 42 {
		t.Fatalf("views disagree: %v", s2)
	}
	if b[0] != 0xf9 { // -7 little-endian low byte
		t.Fatalf("byte view not shared: b[0]=%#x", b[0])
	}
}

func TestF32U32ViewsShareMemory(t *testing.T) {
	b := Alloc(8)
	F32(b)[0] = 1.0
	if got := U32(b)[0]; got != 0x3f800000 {
		t.Fatalf("U32 view of 1.0f = %#x, want 0x3f800000", got)
	}
}

func TestBytesOfI32Inverse(t *testing.T) {
	s := AllocI32(8)
	for i := range s {
		s[i] = int32(i * 3)
	}
	back := I32(BytesOfI32(s))
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("round-trip mismatch at %d: %d != %d", i, back[i], s[i])
		}
	}
}

func TestShortSlicesYieldNilViews(t *testing.T) {
	if I32([]byte{1, 2}) != nil || U32(nil) != nil || F32([]byte{}) != nil {
		t.Fatal("short byte slices must yield nil typed views")
	}
}

func TestTypedAllocs(t *testing.T) {
	if got := len(AllocI32(5)); got != 5 {
		t.Fatalf("AllocI32(5) len = %d", got)
	}
	if got := len(AllocU32(9)); got != 9 {
		t.Fatalf("AllocU32(9) len = %d", got)
	}
	if got := len(AllocF32(1)); got != 1 {
		t.Fatalf("AllocF32(1) len = %d", got)
	}
}
