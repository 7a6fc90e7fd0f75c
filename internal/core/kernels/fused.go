package kernels

import (
	"math/bits"

	"repro/internal/cl"
	"repro/internal/ops"
)

// Fused kernels: the execution side of operator fusion. A fusible region —
// a conjunction of selections over one base domain, an expression tree over
// columns projected through the selection, optionally a terminal scalar
// aggregate — runs as (at most) a fused selection pass, a materialisation,
// and a fused evaluation pass, instead of one kernel plus one intermediate
// column per member operator. Predicates and expressions are compiled on the
// host into closures evaluated per element, so the whole chain stays in
// registers; only the region's final output is written.
//
// Bit-for-bit equivalence with the unfused operators is part of the
// contract: the compiled closures replicate the unfused kernels' promotion
// rules (CastI32F32 before float arithmetic, the BinopConst integral-
// constant rule) and arithmetic (applyI32/applyF32), and aggregate-
// terminated regions feed the same Reduce kernels the unfused Aggr uses.

// FusedPred is a compiled filter conjunction over one bitmap byte: it
// returns the mask of rows [base, end) passing every conjunct (bit i = row
// base+i). Working a byte at a time keeps the dynamic-dispatch cost per
// *eight* rows — each conjunct's inner loop is a tight, branch-free scan, the
// very evaluator the unfused selection kernel runs (bitmap.go) — and
// lets the conjunction short-circuit whole bytes once the mask is empty,
// which is the fused analogue of the unfused kernels' candidate-bitmap AND.
type FusedPred func(base, end int) byte

// FusedPredFilter is one compiled-side filter conjunct over device buffers.
// Integer range bounds are pre-collapsed by the host (I32RangeBounds); float
// bounds keep their inclusivity flags, exactly like SelectF32.
type FusedPredFilter struct {
	Float      bool
	IsCmp      bool
	Col, Other *cl.Buffer
	LoI, HiI   int32
	LoF, HiF   float32
	LoIncl     bool
	HiIncl     bool
	Cmp        ops.Cmp
}

// CompileFusedPred compiles the filter conjunction into a per-byte mask
// evaluator. When bounded is set, rows outside [lo, hi) fail — the compiled
// form of a dense (VOID sub-range) candidate.
func CompileFusedPred(filters []FusedPredFilter, lo, hi int, bounded bool) FusedPred {
	ps := make([]FusedPred, 0, len(filters)+1)
	if bounded {
		ps = append(ps, func(base, end int) byte {
			var out byte
			for r := base; r < end; r++ {
				if r >= lo && r < hi {
					out |= 1 << uint(r-base)
				}
			}
			return out
		})
	}
	for _, f := range filters {
		switch {
		case f.IsCmp && f.Float:
			ps = append(ps, cmpMask(f.Col.F32(), f.Other.F32(), f.Cmp))
		case f.IsCmp:
			ps = append(ps, cmpMask(f.Col.I32(), f.Other.I32(), f.Cmp))
		case f.Float:
			ps = append(ps, rangeMaskF32(f.Col.F32(), f.LoF, f.HiF, f.LoIncl, f.HiIncl))
		default:
			ps = append(ps, rangeMaskI32(f.Col.I32(), f.LoI, f.HiI))
		}
	}
	if len(ps) == 1 {
		return ps[0]
	}
	return func(base, end int) byte {
		out := ps[0](base, end)
		for _, p := range ps[1:] {
			if out == 0 {
				return 0 // dead byte: skip the remaining conjuncts
			}
			out &= p(base, end)
		}
		return out
	}
}

// FusedSelect enqueues the fused selection: one pass over the base columns
// evaluates the whole predicate conjunction into bm (ANDing the optional
// candidate bitmap), and the population count is folded device-side into
// total — the separate per-predicate bitmaps, bitmap combines and
// BitmapCount launches of the unfused chain collapse into two launches.
// partials must hold gsz+1 words.
func FusedSelect(q *cl.Queue, bm, cand *cl.Buffer, pred FusedPred, n int, partials, total *cl.Buffer, cost cl.Cost, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	_, _, gsz := Geometry(dev)
	dst := bm.Bytes()
	var in []byte
	if cand != nil {
		in = cand.Bytes()
	}
	nb := BitmapBytes(n)
	p, tot := partials.U32(), total.U32()

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		blo, bhi, step := t.Span(nb)
		var sum uint32
		for b := blo; b < bhi; b += step {
			base := b * 8
			end := base + 8
			if end > n {
				end = n
			}
			var out byte
			if in == nil || in[b] != 0 { // candidate-dead bytes skip the predicates
				out = pred(base, end)
				if in != nil {
					out &= in[b]
				}
			}
			dst[b] = out
			sum += uint32(bits.OnesCount8(out))
		}
		p[t.Global] = sum
	}, launch(dev, "fused_select", cost, wait))

	return q.EnqueueKernel(func(t *cl.Thread) {
		if t.Global != 0 {
			return
		}
		var sum uint32
		for i := 0; i < gsz; i++ {
			sum += p[i]
		}
		tot[0] = sum
	}, launch(dev, "fused_select_count", cl.Cost{BytesStreamed: int64(gsz) * 4}, []*cl.Event{ev1}))
}

// FusedExprNode mirrors ops.FusedNode with device buffers bound and node
// types resolved by the host (Float on column leaves is the column type, on
// Bin nodes the unfused promotion result).
type FusedExprNode struct {
	Kind    ops.FusedNodeKind
	Buf     *cl.Buffer
	Float   bool
	Aligned bool
	C       float64
	Bin     ops.Bin
	L, R    int
}

// fusedEval is a compiled node: for column and bin nodes exactly one of f/g
// is set (the node's native type); constant leaves carry both so the parent
// picks the conversion the unfused BinopConst kernel would apply
// (float32(c) in float context, int32(c) in integer context — never
// float32(int32(c))).
type fusedEval struct {
	f func(r, i int) float32
	g func(r, i int) int32
}

func (e fusedEval) asF32() func(r, i int) float32 {
	if e.f != nil {
		return e.f
	}
	g := e.g
	return func(r, i int) float32 { return float32(g(r, i)) } // CastI32F32
}

func (e fusedEval) asI32() func(r, i int) int32 {
	if e.g == nil {
		panic("kernels: float operand in an integer fused node")
	}
	return e.g
}

// CompileFusedExpr compiles the node slice into a per-element evaluator of
// the root node (the last entry); r is the domain row feeding output
// position i. Exactly one of the returned evaluators is non-nil, matching
// isFloat.
func CompileFusedExpr(nodes []FusedExprNode) (f32 func(r, i int) float32, i32 func(r, i int) int32, isFloat bool) {
	e := compileFusedNode(nodes, len(nodes)-1)
	if nodes[len(nodes)-1].Kind == ops.FusedConst {
		panic("kernels: fused expression rooted at a constant")
	}
	if e.f != nil {
		return e.f, nil, true
	}
	return nil, e.g, false
}

func compileFusedNode(nodes []FusedExprNode, k int) fusedEval {
	n := nodes[k]
	switch n.Kind {
	case ops.FusedCol:
		if n.Float {
			v := n.Buf.F32()
			if n.Aligned {
				return fusedEval{f: func(r, i int) float32 { return v[i] }}
			}
			return fusedEval{f: func(r, i int) float32 { return v[r] }}
		}
		v := n.Buf.I32()
		if n.Aligned {
			return fusedEval{g: func(r, i int) int32 { return v[i] }}
		}
		return fusedEval{g: func(r, i int) int32 { return v[r] }}
	case ops.FusedConst:
		cf, ci := float32(n.C), int32(n.C)
		return fusedEval{
			f: func(r, i int) float32 { return cf },
			g: func(r, i int) int32 { return ci },
		}
	default: // FusedBin
		l := compileFusedNode(nodes, n.L)
		r := compileFusedNode(nodes, n.R)
		op := n.Bin
		if n.Float {
			lf, rf := l.asF32(), r.asF32()
			return fusedEval{f: func(rr, i int) float32 { return applyF32(op, lf(rr, i), rf(rr, i)) }}
		}
		li, ri := l.asI32(), r.asI32()
		return fusedEval{g: func(rr, i int) int32 { return applyI32(op, li(rr, i), ri(rr, i)) }}
	}
}

// FusedEvalF32 enqueues the fused evaluation pass: out[i] = expr(row(i), i)
// for i < m, where row(i) is idx[i] when idx is non-nil (a materialised
// candidate list) and seq+i otherwise (a dense candidate). The whole member
// chain evaluates in registers per element; only the final column is
// written.
func FusedEvalF32(q *cl.Queue, out, idx *cl.Buffer, seq uint32, f func(r, i int) float32, m int, cost cl.Cost, wait []*cl.Event) *cl.Event {
	d := out.F32()
	var ix []uint32
	if idx != nil {
		ix = idx.U32()
	}
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(m)
		for i := lo; i < hi; i += step {
			r := int(seq) + i
			if ix != nil {
				r = int(ix[i])
			}
			d[i] = f(r, i)
		}
	}, launch(q.Device(), "fused_eval_f32", cost, wait))
}

// FusedEvalI32 is the integer flavour of the fused evaluation pass.
func FusedEvalI32(q *cl.Queue, out, idx *cl.Buffer, seq uint32, f func(r, i int) int32, m int, cost cl.Cost, wait []*cl.Event) *cl.Event {
	d := out.I32()
	var ix []uint32
	if idx != nil {
		ix = idx.U32()
	}
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(m)
		for i := lo; i < hi; i += step {
			r := int(seq) + i
			if ix != nil {
				r = int(ix[i])
			}
			d[i] = f(r, i)
		}
	}, launch(q.Device(), "fused_eval_i32", cost, wait))
}
