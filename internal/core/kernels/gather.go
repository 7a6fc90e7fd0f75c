package kernels

import (
	"repro/internal/cl"
	"repro/internal/ops"
)

// Gather enqueues the parallel gather primitive [He et al., SC'07] behind
// Ocelot's projection / left-fetch-join (§4.1.2): dst[i] = col[idx[i]] for
// i < n. All four-byte types share the u32 view — a gather moves bit
// patterns.
func Gather(q *cl.Queue, dst, col, idx *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, src, ix := dst.U32(), col.U32(), idx.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = src[ix[i]]
		}
	}, launch(q.Device(), "gather",
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 4}, wait))
}

// GatherShift enqueues dst[i] = idx[i] + seq — fetching from a VOID (dense)
// column degenerates to an add.
func GatherShift(q *cl.Queue, dst, idx *cl.Buffer, n int, seq uint32, wait []*cl.Event) *cl.Event {
	d, ix := dst.U32(), idx.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = ix[i] + seq
		}
	}, launch(q.Device(), "gather_shift", cl.Cost{BytesStreamed: int64(n) * 8}, wait))
}

// CopyRange enqueues dst[0:n] = col[seq:seq+n] — the dense-candidate
// projection (a straight slice copy on the device).
func CopyRange(q *cl.Queue, dst, col *cl.Buffer, seq uint32, n int, wait []*cl.Event) *cl.Event {
	d, src := dst.U32(), col.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = src[int(seq)+i]
		}
	}, launch(q.Device(), "copy_range", cl.Cost{BytesStreamed: int64(n) * 8}, wait))
}

// The arithmetic kernels are one-step tile programs (fused.go): fused and
// unfused arithmetic run the same typed loops below, which is what keeps
// them bit-for-bit equal.

// column is the operand aliasing all of buf.
func column(buf *cl.Buffer) fusedArg { return fusedArg{col: buf.U32(), reg: -1} }

// mapStep enqueues the one-step program dst = s over n rows.
func mapStep(q *cl.Queue, name string, dst *cl.Buffer, s fusedStep, n int, cost cl.Cost, wait []*cl.Event) *cl.Event {
	s.dst = -1
	p := &FusedProgram{steps: []fusedStep{s}, tile: fusedTile(q.Device().Const, 0)}
	return evalTiles(q, name, dst, nil, p, n, cost, wait)
}

// MapBinop enqueues the element-wise arithmetic kernel dst = a ⟨op⟩ b.
// Exactly one of the typed flavours runs, chosen by isFloat (the engines
// promote mixed inputs before calling).
func MapBinop(q *cl.Queue, dst, a, b *cl.Buffer, isFloat bool, op ops.Bin, n int, wait []*cl.Event) *cl.Event {
	name := "map_binop_i32"
	if isFloat {
		name = "map_binop_f32"
	}
	return mapStep(q, name, dst, fusedStep{kind: stepBin, float: isFloat, bin: op, a: column(a), b: column(b)},
		n, cl.Cost{BytesStreamed: int64(n) * 12, Ops: int64(n)}, wait)
}

// MapBinopConst enqueues dst = a ⟨op⟩ c (or c ⟨op⟩ a when constFirst).
func MapBinopConst(q *cl.Queue, dst, a *cl.Buffer, isFloat bool, op ops.Bin, cF float32, cI int32, constFirst bool, n int, wait []*cl.Event) *cl.Event {
	name := "map_const_i32"
	if isFloat {
		name = "map_const_f32"
	}
	s := fusedStep{kind: stepBin, float: isFloat, bin: op, a: column(a), b: fusedArg{reg: -1, isConst: true, cf: cF, ci: cI}}
	if constFirst {
		s.a, s.b = s.b, s.a
	}
	return mapStep(q, name, dst, s, n, cl.Cost{BytesStreamed: int64(n) * 8, Ops: int64(n)}, wait)
}

// CastI32F32 enqueues dst(float32) = float32(a(int32)) — the promotion cast.
func CastI32F32(q *cl.Queue, dst, a *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	return mapStep(q, "cast_i32_f32", dst, fusedStep{kind: stepCast, a: column(a)},
		n, cl.Cost{BytesStreamed: int64(n) * 8}, wait)
}

func gatherU32(d, col, ix []uint32) {
	ix = ix[:len(d)]
	for i := range d {
		d[i] = col[ix[i]]
	}
}

func castI32F32(d []float32, a []int32) {
	a = a[:len(d)]
	for i := range d {
		d[i] = float32(a[i])
	}
}

// mapF32 computes d[i] = x[i] ⟨op⟩ y[i] over float32s; a nil x or y stands
// for the constant cx or cy.
func mapF32(op ops.Bin, d, x, y []float32, cx, cy float32) {
	switch {
	case x == nil:
		mapCV(op, d, cx, y)
	case y == nil:
		mapVC(op, d, x, cy)
	default:
		mapVV(op, d, x, y)
	}
}

// mapI32 is mapF32 over int32s; x / 0 is 0.
func mapI32(op ops.Bin, d, x, y []int32, cx, cy int32) {
	switch {
	case op == ops.Div:
		for i := range d {
			a, b := cx, cy
			if x != nil {
				a = x[i]
			}
			if y != nil {
				b = y[i]
			}
			if d[i] = 0; b != 0 {
				d[i] = a / b
			}
		}
	case x == nil:
		mapCV(op, d, cx, y)
	case y == nil:
		mapVC(op, d, x, cy)
	default:
		mapVV(op, d, x, y)
	}
}

// The loops proper: one per operator and operand form, the operator switch
// outside. Every product is converted explicitly, so that no platform fuses
// it into a multiply-add with a neighbouring step.

func mapVV[T int32 | float32](op ops.Bin, d, x, y []T) {
	x, y = x[:len(d)], y[:len(d)]
	switch op {
	case ops.Add:
		for i := range d {
			d[i] = x[i] + y[i]
		}
	case ops.SubOp:
		for i := range d {
			d[i] = x[i] - y[i]
		}
	case ops.Mul:
		for i := range d {
			d[i] = T(x[i] * y[i])
		}
	case ops.Div: // float32 only: mapI32 keeps integer division to itself
		for i := range d {
			d[i] = x[i] / y[i]
		}
	default:
		panic("kernels: unknown binop")
	}
}

func mapVC[T int32 | float32](op ops.Bin, d, x []T, c T) {
	x = x[:len(d)]
	switch op {
	case ops.Add:
		for i := range d {
			d[i] = x[i] + c
		}
	case ops.SubOp:
		for i := range d {
			d[i] = x[i] - c
		}
	case ops.Mul:
		for i := range d {
			d[i] = T(x[i] * c)
		}
	case ops.Div:
		for i := range d {
			d[i] = x[i] / c
		}
	default:
		panic("kernels: unknown binop")
	}
}

func mapCV[T int32 | float32](op ops.Bin, d []T, c T, y []T) {
	y = y[:len(d)]
	switch op {
	case ops.Add:
		for i := range d {
			d[i] = c + y[i]
		}
	case ops.SubOp:
		for i := range d {
			d[i] = c - y[i]
		}
	case ops.Mul:
		for i := range d {
			d[i] = T(c * y[i])
		}
	case ops.Div:
		for i := range d {
			d[i] = c / y[i]
		}
	default:
		panic("kernels: unknown binop")
	}
}
