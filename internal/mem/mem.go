// Package mem provides aligned raw-memory allocation and typed views over
// byte slices. It is the lowest layer of the storage stack: both the BAT
// storage layer and the kernel runtime's device buffers are backed by
// allocations from this package.
//
// MonetDB's heaps are plain malloc'd regions; the paper (§4.3) notes that the
// Intel OpenCL SDK requires 128-byte aligned memory for its SSE code paths,
// and that MonetDB's allocator had to be modified accordingly. We reproduce
// that contract here: every allocation is aligned to Align (128 bytes).
package mem

import "unsafe"

// Align is the alignment, in bytes, of every allocation returned by Alloc.
// It mirrors the 128-byte alignment requirement the paper imposed on
// MonetDB's memory manager for the Intel OpenCL SDK (§4.3).
const Align = 128

// Alloc returns a zeroed byte slice of length n whose first byte is aligned
// to Align. The slice keeps its backing array alive; no explicit free is
// needed (the Go runtime reclaims it once unreachable).
func Alloc(n int) []byte {
	if n < 0 {
		panic("mem: negative allocation size")
	}
	if n == 0 {
		return nil
	}
	// Allocate in uint64 units (8-byte aligned by the runtime) with enough
	// slack to slide the start to a 128-byte boundary.
	words := make([]uint64, (n+Align)/8+1)
	base := uintptr(unsafe.Pointer(&words[0]))
	off := 0
	if rem := int(base % Align); rem != 0 {
		off = Align - rem
	}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	return raw[off : off+n : off+n]
}

// Aligned reports whether the first byte of b sits on an Align boundary.
// Empty slices are considered aligned.
func Aligned(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b[0]))%Align == 0
}

// The view functions below reinterpret a byte slice as a slice of fixed-width
// elements without copying. They are the Go analogue of casting a cl_mem
// pointer inside an OpenCL kernel. The byte slice must be at least 4-byte
// aligned (always true for Alloc'd memory) and its length is truncated to a
// whole number of elements.

// I32 views b as a slice of int32.
func I32(b []byte) []int32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// U32 views b as a slice of uint32.
func U32(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// F32 views b as a slice of float32.
func F32(b []byte) []float32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// BytesOfI32 views an int32 slice as raw bytes (the inverse of I32).
func BytesOfI32(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// BytesOfU32 views a uint32 slice as raw bytes.
func BytesOfU32(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// BytesOfF32 views a float32 slice as raw bytes.
func BytesOfF32(s []float32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

// AllocI32 allocates an aligned, zeroed int32 slice of length n.
func AllocI32(n int) []int32 { return I32(Alloc(n * 4)) }

// AllocU32 allocates an aligned, zeroed uint32 slice of length n.
func AllocU32(n int) []uint32 { return U32(Alloc(n * 4)) }

// AllocF32 allocates an aligned, zeroed float32 slice of length n.
func AllocF32(n int) []float32 { return F32(Alloc(n * 4)) }
