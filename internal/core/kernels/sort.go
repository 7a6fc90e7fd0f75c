package kernels

import (
	"repro/internal/cl"
)

// Binary radix sort (§4.1.3), following Satish et al. and Helluy's portable
// OpenCL radix sort: per pass, (1) every work-item builds a histogram of the
// current radix digit over its contiguous block, (2) the histograms are laid
// out digit-major and exclusively scanned so all buckets of the same digit
// are consecutive in memory, and (3) the items re-walk their blocks and
// scatter keys (and the payload row ids) to their offsets. Per-item blocks
// plus in-order scatter make every pass stable, so the passes compose.
//
// The radix width is the device-dependent constant from §5.2.7: "For the
// CPU implementation, we use a radix of eight bits, for the GPU a radix of
// four bits" — exactly the kind of decision the injected build constants
// exist for.

// RadixBits returns the per-pass digit width for the device class.
func RadixBits(dev *cl.Device) int {
	if dev.Const.Class == cl.ClassGPU {
		return 4
	}
	return 8
}

// SortHistWords returns the histogram buffer size (in u32 words) required
// by SortPass on this device.
func SortHistWords(dev *cl.Device) int {
	_, _, gsz := Geometry(dev)
	return (1<<uint(RadixBits(dev)))*gsz + 1
}

// TransformI32Keys enqueues the order-preserving key transform for signed
// int32 data: flipping the sign bit makes unsigned comparison match signed
// order (the "negative values" handling the paper added to Helluy's sort).
func TransformI32Keys(q *cl.Queue, dst, src *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, s := dst.U32(), src.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = s[i] ^ 0x80000000
		}
	}, launch(q.Device(), "keys_i32", n, cl.Cost{BytesStreamed: int64(n) * 8}, wait))
}

// TransformF32Keys enqueues the float32 key transform: negative floats are
// bit-inverted, positives get the sign bit set, giving total order under
// unsigned comparison.
func TransformF32Keys(q *cl.Queue, dst, src *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, s := dst.U32(), src.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			u := s[i]
			if u&0x80000000 != 0 {
				u = ^u
			} else {
				u |= 0x80000000
			}
			d[i] = u
		}
	}, launch(q.Device(), "keys_f32", n, cl.Cost{BytesStreamed: int64(n) * 8}, wait))
}

// SortPass enqueues one stable counting pass over the current radix digit:
// (srcK, srcV) → (dstK, dstV), ordered by (srcK >> shift) & (2^bits - 1).
// hist must hold SortHistWords words.
func SortPass(q *cl.Queue, dstK, dstV, srcK, srcV, hist *cl.Buffer, n, shift, bits int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	dk, dv, sk, sv, h := dstK.U32(), dstV.U32(), srcK.U32(), srcV.U32(), hist.U32()
	buckets := 1 << uint(bits)
	mask := uint32(buckets - 1)
	sh := uint(shift)

	// Phase 1: per-item digit histograms, written digit-major
	// (hist[digit*gsz + item]) so the scan directly yields the shuffled
	// bucket layout the paper describes.
	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		var local [256]uint32 // private memory; buckets <= 256
		lo, hi := t.ChunkSpan(n)
		for i := lo; i < hi; i++ {
			local[(sk[i]>>sh)&mask]++
		}
		for b := 0; b < buckets; b++ {
			h[b*gsz+t.Global] = local[b]
		}
	}, launch(dev, "radix_hist", n, cl.Cost{BytesStreamed: int64(n)*4 + int64(buckets*gsz)*4, Ops: int64(n)}, wait))

	// Phase 2: exclusive scan of the digit-major histogram, by one work-item.
	total := buckets * gsz
	ev2 := q.EnqueueKernel(func(*cl.Thread) {
		var run uint32
		for i := 0; i < total; i++ {
			v := h[i]
			h[i] = run
			run += v
		}
		h[total] = run
	}, oneItem("radix_scan", cl.Cost{BytesStreamed: int64(total) * 8}, []*cl.Event{ev1}))

	// Phase 3: stable scatter. Each item replays its block in order,
	// bumping its private cursor per digit.
	return q.EnqueueKernel(func(t *cl.Thread) {
		var cursor [256]uint32
		for b := 0; b < buckets; b++ {
			cursor[b] = h[b*gsz+t.Global]
		}
		lo, hi := t.ChunkSpan(n)
		for i := lo; i < hi; i++ {
			k := sk[i]
			b := (k >> sh) & mask
			pos := cursor[b]
			cursor[b]++
			dk[pos] = k
			dv[pos] = sv[i]
		}
	}, launch(dev, "radix_scatter", n,
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 8, Ops: int64(n)}, []*cl.Event{ev2}))
}

// SortU32Bits enqueues the multi-pass radix sort of (keys, vals) at radix
// width bits (RadixBits is the device-class default): after the returned
// event, keys[:n] is ascending and vals carries the permuted payload.
// tmpK/tmpV are ping-pong buffers of n words; hist must hold (2^bits)·gsz+1
// words. Keys known to be below 2^keyBits need only ⌈keyBits/bits⌉ passes,
// the digits above being zero in every key — constant in the input, linear
// scaling in n (Figure 6).
func SortU32Bits(q *cl.Queue, keys, vals, tmpK, tmpV, hist *cl.Buffer, n, bits, keyBits int, wait []*cl.Event) *cl.Event {
	srcK, srcV, ev := sortPasses(q, keys, vals, tmpK, tmpV, hist, n, bits, keyBits, wait)
	if srcK != keys {
		// Odd number of passes: copy back into the caller's buffers.
		e1 := q.EnqueueCopy(keys, srcK, []*cl.Event{ev})
		e2 := q.EnqueueCopy(vals, srcV, []*cl.Event{ev})
		ev = q.EnqueueMarker([]*cl.Event{e1, e2})
	}
	return ev
}

// sortPasses runs the ⌈keyBits/bits⌉ counting passes, ping-ponging between
// the two buffer pairs, and returns the pair the sorted data ended up in.
func sortPasses(q *cl.Queue, keys, vals, tmpK, tmpV, hist *cl.Buffer, n, bits, keyBits int, wait []*cl.Event) (sortedK, sortedV *cl.Buffer, ev *cl.Event) {
	if bits < 1 || bits > 8 {
		panic("kernels: radix width must be 1..8 bits")
	}
	if keyBits < 1 || keyBits > 32 {
		panic("kernels: key width must be 1..32 bits")
	}
	passes := (keyBits + bits - 1) / bits
	ev = q.EnqueueMarker(wait)
	srcK, srcV, dstK, dstV := keys, vals, tmpK, tmpV
	for p := 0; p < passes; p++ {
		ev = SortPass(q, dstK, dstV, srcK, srcV, hist, n, p*bits, bits, []*cl.Event{ev})
		srcK, srcV, dstK, dstV = dstK, dstV, srcK, srcV
	}
	return srcK, srcV, ev
}
