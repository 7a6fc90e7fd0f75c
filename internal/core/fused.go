package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Fused implements ops.FusedOperators: it executes a fused
// select→project→binop(→sum/count) region as a short chain of generated
// kernels — a single predicate-conjunction pass over the base columns, one
// materialisation, and a single register-resident expression pass — instead
// of one kernel plus one intermediate column per member operator. Selection-
// carrying regions fold their population count device-side inside the fused
// selection pass, so the per-member bitmapCount launches of the unfused
// chain collapse into one size read.
//
// Results are bit-identical to the unfused member chain: the compiled
// expression replicates the unfused promotion and arithmetic rules, and an
// aggregate-terminated region evaluates into a compact scratch column and
// runs the very same Reduce kernel the unfused Aggr would run over the very
// same values.
//
// Every ops.ErrFusedUnsupported return happens before any device work is
// enqueued, so the executor's fall-back to the unfused members is free of
// fused side effects.
func (e *Engine) Fused(op *ops.FusedOp) (*bat.BAT, error) {
	if op.HasAgg && op.Agg != ops.Sum && op.Agg != ops.Count {
		return nil, ops.ErrFusedUnsupported
	}
	if len(op.Nodes) == 0 && !(len(op.Filters) > 0 && !op.HasAgg) {
		return nil, ops.ErrFusedUnsupported
	}
	if len(op.Filters) > 0 {
		return e.fusedFiltered(op)
	}
	return e.fusedMap(op)
}

func numericT(t bat.Type) bool { return t == bat.I32 || t == bat.F32 }

// fusedFiltered runs a region with absorbed selections: the domain is the
// filter columns' base domain, and the expression (if any) sees only rows
// passing the conjunction.
func (e *Engine) fusedFiltered(op *ops.FusedOp) (*bat.BAT, error) {
	n := op.Filters[0].Col.Len()

	// Validate everything up front — refusals must be side-effect-free.
	kf := make([]kernels.FusedPredFilter, len(op.Filters))
	for i, f := range op.Filters {
		if f.Col == nil || !numericT(f.Col.T) || f.Col.Len() != n {
			return nil, ops.ErrFusedUnsupported
		}
		p := kernels.FusedPredFilter{Float: f.Col.T == bat.F32, IsCmp: f.IsCmp}
		switch {
		case f.IsCmp:
			if f.Other == nil || f.Other.T != f.Col.T || f.Other.Len() != n {
				return nil, ops.ErrFusedUnsupported
			}
			p.Cmp = f.Cmp
		case p.Float:
			p.LoF, p.HiF = f32Bounds(f.Lo, f.Hi)
			p.LoIncl, p.HiIncl = f.LoIncl, f.HiIncl
		default:
			l, h, ok := kernels.I32RangeBounds(f.Lo, f.Hi, f.LoIncl, f.HiIncl)
			if !ok {
				// Statically empty interval: the unfused chain short-circuits
				// to an empty selection without running a kernel; so do we.
				return e.fusedEmptyResult(op)
			}
			p.LoI, p.HiI = l, h
		}
		kf[i] = p
	}
	for _, nd := range op.Nodes {
		// With filters the expression leaves must be base-domain columns;
		// already-aligned inputs would be aligned with the region's own
		// (interior) selection, which by construction never escapes.
		if nd.Kind == ops.FusedCol && (nd.Aligned || nd.Col == nil || !numericT(nd.Col.T)) {
			return nil, ops.ErrFusedUnsupported
		}
	}

	// Classify the incoming candidate: nil, a dense range, or a bitmap over
	// the same domain. Materialised oid lists take the unfused path.
	bounded, blo, bhi := false, 0, 0
	var candBM *bat.BAT
	switch {
	case op.Cand == nil:
	case op.Cand.T == bat.Void:
		if op.Cand.Seq != 0 || op.Cand.Len() != n {
			bounded, blo, bhi = true, int(op.Cand.Seq), int(op.Cand.Seq)+op.Cand.Len()
		}
	default:
		dom, isBM := e.mm.IsBitmap(op.Cand)
		if !isBM || dom != n {
			return nil, ops.ErrFusedUnsupported
		}
		candBM = op.Cand
	}

	// Resolve device buffers and build the fused predicate.
	var wait []*cl.Event
	cost := cl.Cost{BytesStreamed: int64(kernels.BitmapBytes(n)) * 2, Ops: int64(n) * int64(len(kf))}
	for i, f := range op.Filters {
		buf, w, err := e.valuesOf(f.Col)
		if err != nil {
			return nil, err
		}
		kf[i].Col = buf
		wait = append(wait, w...)
		cost.BytesStreamed += int64(n) * 4
		if f.IsCmp {
			if buf, w, err = e.valuesOf(f.Other); err != nil {
				return nil, err
			}
			kf[i].Other = buf
			wait = append(wait, w...)
			cost.BytesStreamed += int64(n) * 4
		}
	}
	var candBuf *cl.Buffer
	if candBM != nil {
		buf, _, w, err := e.mm.BitmapForRead(candBM)
		if err != nil {
			return nil, err
		}
		candBuf = buf
		wait = append(wait, w...)
		cost.BytesStreamed += int64(kernels.BitmapBytes(n))
	}
	pred := kernels.CompileFusedPred(kf, blo, bhi, bounded)

	outSel := len(op.Nodes) == 0 && !op.HasAgg
	var bm *cl.Buffer
	var err error
	if outSel {
		bm, err = e.mm.Alloc(bitmapWords(n) * 4) // the region's escaping payload
	} else {
		bm, err = e.mm.Alloc(bitmapWords(n) * 4) // transient: consumed below
	}
	if err != nil {
		return nil, err
	}
	sp, err := e.spine()
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	total, err := e.mm.Alloc(4)
	if err != nil {
		e.mm.Release(sp)
		_ = bm.Release()
		return nil, err
	}
	ev := kernels.FusedSelect(e.q, bm, candBuf, pred, n, sp, total, cost, wait)
	for _, f := range op.Filters {
		e.mm.NoteConsumer(f.Col, ev)
		if f.Other != nil {
			e.mm.NoteConsumer(f.Other, ev)
		}
	}
	if candBM != nil {
		e.mm.NoteConsumer(candBM, ev)
	}

	// The one host read of the region: its selection cardinality, folded
	// device-side inside the fused pass (no separate BitmapCount launches).
	count, err := e.readU32(total, []*cl.Event{ev})
	e.mm.Release(sp)
	e.mm.Release(total)
	if err != nil {
		e.releaseAfter(ev, bm)
		return nil, err
	}
	m := int(count)

	if outSel {
		res := bat.NewOcelotOwned("fused_sel", bat.OID, m)
		res.Props.Sorted, res.Props.Key = true, true
		e.mm.BindBitmap(res, bm, n, ev)
		return res, nil
	}
	if m == 0 || (op.HasAgg && op.Agg == ops.Count) {
		e.releaseAfter(ev, bm)
		if m == 0 {
			return e.fusedEmptyResult(op)
		}
		// Count ignores the expression values entirely, like the unfused
		// scalar Count (a descriptor fact; no kernel).
		out := bat.New("count", bat.I32, 1)
		out.I32s()[0] = int32(m)
		return out, nil
	}

	// Materialise the passing rows once, then evaluate the whole expression
	// per row in registers.
	positions, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		e.releaseAfter(ev, bm)
		return nil, err
	}
	sp2, err := e.spine()
	if err != nil {
		e.releaseAfter(ev, bm)
		_ = positions.Release()
		return nil, err
	}
	mev := kernels.Materialize(e.q, positions, bm, sp2, n, []*cl.Event{ev})
	e.releaseAfter(mev, sp2, bm)
	return e.fusedEvalFor(op, nil, positions, 0, m, []*cl.Event{mev})
}

// fusedMap runs a filterless region: a fused projection/arithmetic map over
// the incoming candidate (or a pure element-wise map when there is none).
// The output size is known up front, so the region runs with no host read at
// all.
func (e *Engine) fusedMap(op *ops.FusedOp) (*bat.BAT, error) {
	m := -1
	var seq uint32
	var idxBAT *bat.BAT
	switch {
	case op.Cand == nil:
	case op.Cand.T == bat.Void:
		m, seq = op.Cand.Len(), op.Cand.Seq
	default:
		m, idxBAT = op.Cand.Len(), op.Cand
	}
	dense := idxBAT == nil

	// Validate leaves against the domain before touching the device.
	for _, nd := range op.Nodes {
		if nd.Kind != ops.FusedCol {
			continue
		}
		if nd.Col == nil || !numericT(nd.Col.T) {
			return nil, ops.ErrFusedUnsupported
		}
		switch {
		case nd.Aligned || op.Cand == nil:
			// Element-wise input: must match the domain exactly.
			if m == -1 {
				m = nd.Col.Len()
			}
			if nd.Col.Len() != m {
				return nil, ops.ErrFusedUnsupported
			}
		case dense:
			// Projection through a dense candidate: a sub-range copy.
			if int(seq)+m > nd.Col.Len() {
				return nil, ops.ErrFusedUnsupported
			}
		}
	}
	if m == -1 {
		return nil, ops.ErrFusedUnsupported
	}
	if m == 0 {
		return e.fusedEmptyResult(op)
	}
	if op.HasAgg && op.Agg == ops.Count {
		out := bat.New("count", bat.I32, 1)
		out.I32s()[0] = int32(m)
		return out, nil
	}

	var wait []*cl.Event
	var idx *cl.Buffer
	if idxBAT != nil {
		//lint:transfer fusedEvalFor notes the expression pass on idxBAT
		buf, w, err := e.valuesOf(idxBAT) // bitmap candidates materialise here
		if err != nil {
			return nil, err
		}
		idx = buf
		wait = append(wait, w...)
	}
	return e.fusedEvalFor(op, idxBAT, idx, seq, m, wait)
}

// fusedEvalFor compiles and runs the expression pass over m output
// positions (idx/seq identify the domain row per position) and applies the
// terminal aggregate if the region carries one. A nil idxBAT with a non-nil
// idx marks an engine-owned transient positions buffer, released once the
// pass has consumed it; a non-nil idxBAT is a caller value whose cached
// device payload must stay bound.
func (e *Engine) fusedEvalFor(op *ops.FusedOp, idxBAT *bat.BAT, idx *cl.Buffer, seq uint32, m int, wait []*cl.Event) (*bat.BAT, error) {
	ownIdx := idxBAT == nil && idx != nil
	dropIdx := func(after *cl.Event) {
		if ownIdx {
			e.releaseAfter(after, idx)
		}
	}
	compiled := make([]kernels.FusedExprNode, len(op.Nodes))
	gathers, aligned, bins := 0, 0, 0
	for k, nd := range op.Nodes {
		kn := kernels.FusedExprNode{Kind: nd.Kind, Aligned: nd.Aligned, C: nd.C, Bin: nd.Bin, L: nd.L, R: nd.R}
		switch nd.Kind {
		case ops.FusedCol:
			buf, w, err := e.valuesOf(nd.Col)
			if err != nil {
				dropIdx(e.q.EnqueueMarker(wait))
				return nil, err
			}
			kn.Buf = buf
			kn.Float = nd.Col.T == bat.F32
			wait = append(wait, w...)
			if nd.Aligned || idx == nil {
				aligned++
			} else {
				gathers++
			}
		case ops.FusedBin:
			kn.Float = fusedChildFloat(compiled, op.Nodes, nd.L) || fusedChildFloat(compiled, op.Nodes, nd.R)
			bins++
		}
		compiled[k] = kn
	}
	f32, i32, isFloat := kernels.CompileFusedExpr(compiled)

	outType := bat.I32
	if isFloat {
		outType = bat.F32
	}
	var out *cl.Buffer
	var err error
	if op.HasAgg {
		out, err = e.mm.Alloc((m + 1) * 4) // compact expression values, fed to Reduce
	} else {
		out, err = e.mm.Alloc((m + 1) * 4)
	}
	if err != nil {
		dropIdx(e.q.EnqueueMarker(wait))
		return nil, err
	}

	cost := cl.Cost{
		BytesStreamed: int64(m) * 4 * int64(aligned+1),
		BytesRandom:   int64(m) * 4 * int64(gathers),
		Ops:           int64(m) * int64(bins),
	}
	if idx != nil {
		cost.BytesStreamed += int64(m) * 4
	}
	var ev *cl.Event
	if isFloat {
		ev = kernels.FusedEvalF32(e.q, out, idx, seq, f32, m, cost, wait)
	} else {
		ev = kernels.FusedEvalI32(e.q, out, idx, seq, i32, m, cost, wait)
	}
	for _, nd := range op.Nodes {
		if nd.Kind == ops.FusedCol {
			e.mm.NoteConsumer(nd.Col, ev)
		}
	}
	if idxBAT != nil {
		e.mm.NoteConsumer(idxBAT, ev)
	}
	dropIdx(ev)

	if !op.HasAgg {
		res := bat.NewOcelotOwned("fused", outType, m)
		e.mm.BindValues(res, out, ev)
		return res, nil
	}

	// Terminal scalar sum: the same Reduce kernel the unfused Aggr runs,
	// over the same compact values — bit-identical by construction.
	sp, err := e.spine()
	if err != nil {
		e.releaseAfter(ev, out)
		return nil, err
	}
	dst, err := e.mm.Alloc(4)
	if err != nil {
		e.releaseAfter(ev, out)
		e.mm.Release(sp)
		return nil, err
	}
	var rev *cl.Event
	if isFloat {
		rev = kernels.ReduceF32(e.q, dst, out, sp, ops.Sum, m, []*cl.Event{ev})
	} else {
		rev = kernels.ReduceI32(e.q, dst, out, sp, ops.Sum, m, []*cl.Event{ev})
	}
	e.releaseAfter(rev, sp, out)
	res := bat.NewOcelotOwned(ops.Sum.String(), outType, 1)
	e.mm.BindValues(res, dst, rev)
	return res, nil
}

// fusedChildFloat reports whether child node k contributes float-ness to its
// parent, replicating the unfused promotion rules: columns by type, computed
// nodes by their own promotion result, constants by the BinopConst integral
// rule.
func fusedChildFloat(compiled []kernels.FusedExprNode, nodes []ops.FusedNode, k int) bool {
	if nodes[k].Kind == ops.FusedConst {
		c := nodes[k].C
		return c != float64(int32(c))
	}
	return compiled[k].Float
}

// fusedRootIsFloat derives the region's output type without binding buffers.
func fusedRootIsFloat(nodes []ops.FusedNode) bool {
	var rec func(k int) bool
	rec = func(k int) bool {
		switch nodes[k].Kind {
		case ops.FusedCol:
			return nodes[k].Col.T == bat.F32
		case ops.FusedConst:
			c := nodes[k].C
			return c != float64(int32(c))
		default:
			return rec(nodes[k].L) || rec(nodes[k].R)
		}
	}
	return rec(len(nodes) - 1)
}

// fusedEmptyResult produces the region's result for an empty domain, exactly
// as the unfused member chain would: an empty candidate list, an empty value
// column, a zero Count or the typed zero Sum.
func (e *Engine) fusedEmptyResult(op *ops.FusedOp) (*bat.BAT, error) {
	t := bat.I32
	if len(op.Nodes) > 0 && fusedRootIsFloat(op.Nodes) {
		t = bat.F32
	}
	switch {
	case op.HasAgg && op.Agg == ops.Count:
		return bat.New("count", bat.I32, 1), nil
	case op.HasAgg && op.Agg == ops.Sum:
		return bat.New(op.Agg.String(), t, 1), nil
	case op.HasAgg:
		return nil, fmt.Errorf("core: %v of an empty column", op.Agg)
	case len(op.Nodes) == 0:
		return e.emptySelection("fused")
	default:
		return bat.New("fused", t, 0), nil
	}
}
