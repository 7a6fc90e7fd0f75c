package cl

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Global-memory atomic operations available to kernels, mirroring OpenCL's
// atom_* built-ins. They operate directly on elements of buffer views.
//
// OpenCL 1.1 provides no atomic operations on floating-point data; the paper
// emulates them "through atomic compare-and-swap operations on integer
// values" (§4.1.7, footnote 7). AtomicAddF32/AtomicMinF32/AtomicMaxF32
// reproduce exactly that bit-cast CAS loop.

// AtomicAddI32 atomically adds delta to *p and returns the new value.
func AtomicAddI32(p *int32, delta int32) int32 {
	return atomic.AddInt32(p, delta)
}

// AtomicAddU32 atomically adds delta to *p and returns the value before the
// addition.
func AtomicAddU32(p *uint32, delta uint32) uint32 {
	return atomic.AddUint32(p, delta) - delta
}

// AtomicCASU32 performs compare-and-swap on *p (OpenCL atom_cmpxchg).
func AtomicCASU32(p *uint32, old, new uint32) bool {
	return atomic.CompareAndSwapUint32(p, old, new)
}

// AtomicLoadU32 atomically loads *p.
func AtomicLoadU32(p *uint32) uint32 { return atomic.LoadUint32(p) }

// AtomicStoreU32 atomically stores v into *p.
func AtomicStoreU32(p *uint32, v uint32) { atomic.StoreUint32(p, v) }

// AtomicMinI32 atomically stores min(*p, v) into *p.
func AtomicMinI32(p *int32, v int32) {
	for {
		old := atomic.LoadInt32(p)
		if v >= old || atomic.CompareAndSwapInt32(p, old, v) {
			return
		}
	}
}

// AtomicMaxI32 atomically stores max(*p, v) into *p.
func AtomicMaxI32(p *int32, v int32) {
	for {
		old := atomic.LoadInt32(p)
		if v <= old || atomic.CompareAndSwapInt32(p, old, v) {
			return
		}
	}
}

// AtomicOrU32 atomically ORs v into *p. Used by the bitmap selection kernels
// when threads share bitmap bytes.
func AtomicOrU32(p *uint32, v uint32) {
	for {
		old := atomic.LoadUint32(p)
		if old|v == old || atomic.CompareAndSwapUint32(p, old, old|v) {
			return
		}
	}
}

func f32bits(p *float32) *uint32 { return (*uint32)(unsafe.Pointer(p)) }

// AtomicAddF32 atomically adds delta to the float32 at *p using the CAS
// emulation on the integer bit pattern (§4.1.7 footnote 7).
func AtomicAddF32(p *float32, delta float32) {
	bp := f32bits(p)
	for {
		oldBits := atomic.LoadUint32(bp)
		newBits := math.Float32bits(math.Float32frombits(oldBits) + delta)
		if atomic.CompareAndSwapUint32(bp, oldBits, newBits) {
			return
		}
	}
}

// AtomicMinF32 atomically stores min(*p, v) via the CAS emulation.
func AtomicMinF32(p *float32, v float32) {
	bp := f32bits(p)
	for {
		oldBits := atomic.LoadUint32(bp)
		old := math.Float32frombits(oldBits)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint32(bp, oldBits, math.Float32bits(v)) {
			return
		}
	}
}

// AtomicMaxF32 atomically stores max(*p, v) via the CAS emulation.
func AtomicMaxF32(p *float32, v float32) {
	bp := f32bits(p)
	for {
		oldBits := atomic.LoadUint32(bp)
		old := math.Float32frombits(oldBits)
		if v <= old {
			return
		}
		if atomic.CompareAndSwapUint32(bp, oldBits, math.Float32bits(v)) {
			return
		}
	}
}
