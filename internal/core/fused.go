package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Fused implements ops.FusedOperators: it executes a fused
// select→project→binop(→sum/count) region as a short chain of kernels — one
// selection pass over the base columns evaluating the whole conjunction, one
// materialisation, and one expression pass running the compiled tile program
// — instead of one kernel plus one intermediate column per member operator,
// with one size read where the unfused chain has one per member selection.
//
// Results are bit-identical to the unfused member chain: the conjunction
// and the expression run the row loops of the unfused kernels under the
// same promotion rules, and an aggregate-terminated region evaluates into a
// compact scratch column and runs the reduction the unfused Aggr would run
// over the very same values.
//
// Every ops.ErrFusedUnsupported return happens before any device work is
// enqueued, so the executor's fall-back to the unfused members is free of
// fused side effects. A grouped region runs in fusedGrouped.
func (e *Engine) Fused(op *ops.FusedOp) ([]*bat.BAT, error) {
	if len(op.Keys) > 0 {
		return e.fusedGrouped(op)
	}
	res, err := e.fusedExpr(op)
	if err != nil {
		return nil, err
	}
	return []*bat.BAT{res}, nil
}

// fusedExpr runs a single-exit region.
func (e *Engine) fusedExpr(op *ops.FusedOp) (*bat.BAT, error) {
	if op.HasAgg && op.Agg != ops.Sum && op.Agg != ops.Count {
		return nil, ops.ErrFusedUnsupported
	}
	if len(op.Nodes) == 0 && !(len(op.Filters) > 0 && !op.HasAgg) || !kernels.FusedFits(e.dev, len(op.Nodes)) {
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
		if f.IsCmp {
			if f.Other == nil || f.Other.T != f.Col.T || f.Other.Len() != n {
				return nil, ops.ErrFusedUnsupported
			}
			p.Cmp = f.Cmp
		} else {
			var ok bool
			if p.Lo, p.Hi, ok, _ = rangeKeys(f.Col, f.Lo, f.Hi, f.LoIncl, f.HiIncl); !ok {
				// Statically empty interval: the unfused chain short-circuits
				// to an empty selection without running a kernel; so do we.
				return e.fusedEmptyResult(op)
			}
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
	blo, bhi := 0, n
	var candBM *bat.BAT
	switch {
	case op.Cand == nil:
	case op.Cand.T == bat.Void:
		blo, bhi = int(op.Cand.Seq), int(op.Cand.Seq)+op.Cand.Len()
	default:
		dom, isBM := e.mm.IsBitmap(op.Cand)
		if !isBM || dom != n {
			return nil, ops.ErrFusedUnsupported
		}
		candBM = op.Cand
	}

	// Resolve device buffers.
	var wait []*cl.Event
	for i, f := range op.Filters {
		buf, w, err := e.valuesOf(f.Col)
		if err != nil {
			return nil, err
		}
		kf[i].Col = buf
		wait = append(wait, w...)
		if f.IsCmp {
			if buf, w, err = e.valuesOf(f.Other); err != nil {
				return nil, err
			}
			kf[i].Other = buf
			wait = append(wait, w...)
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
	}
	// The bitmap is the region's escaping payload when it has no expression,
	// transient otherwise.
	bm, sp, err := e.bitmapScratch(n)
	if err != nil {
		return nil, err
	}
	ev := kernels.Select(e.q, bm, candBuf, sp, kf, blo, bhi, n, wait)
	for _, f := range op.Filters {
		e.mm.NoteConsumer(f.Col, ev)
		if f.Other != nil {
			e.mm.NoteConsumer(f.Other, ev)
		}
	}
	if candBM != nil {
		e.mm.NoteConsumer(candBM, ev)
	}

	if len(op.Nodes) == 0 && !op.HasAgg {
		return e.finishBitmapSelection("fused", bm, sp, n, ev)
	}
	// The one host read of the region: its selection cardinality, folded
	// device-side inside the fused pass.
	m, err := e.countAndRelease(sp, ev)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	if m == 0 || (op.HasAgg && op.Agg == ops.Count) {
		e.releaseAfter(ev, bm)
		if m == 0 {
			return e.fusedEmptyResult(op)
		}
		// Count ignores the expression values entirely, like the unfused
		// scalar Count.
		return countOf(m), nil
	}

	// Materialise the passing rows once, then evaluate the whole expression
	// over them a tile at a time.
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
		return countOf(m), nil
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
	floats := fusedFloats(op.Nodes)
	gathers, aligned, bins := 0, 0, 0 // for the declared cost
	for k, nd := range op.Nodes {
		kn := kernels.FusedExprNode{Kind: nd.Kind, Float: floats[k], Aligned: nd.Aligned, C: nd.C, Bin: nd.Bin, L: nd.L, R: nd.R}
		switch nd.Kind {
		case ops.FusedCol:
			buf, w, err := e.valuesOf(nd.Col)
			if err != nil {
				dropIdx(e.q.EnqueueMarker(wait))
				return nil, err
			}
			kn.Buf = buf
			wait = append(wait, w...)
			if nd.Aligned || idx == nil {
				aligned++
			} else {
				gathers++
			}
		case ops.FusedBin:
			bins++
		}
		compiled[k] = kn
	}
	prog := kernels.CompileFusedExpr(e.dev, compiled, idx != nil, seq)
	isFloat := floats[len(floats)-1]
	outType := bat.I32
	if isFloat {
		outType = bat.F32
	}
	// With an aggregate these are the compact expression values fed to Reduce.
	out, err := e.mm.Alloc((m + 1) * 4)
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
	ev := kernels.FusedEval(e.q, out, idx, prog, m, cost, wait)
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

	// Terminal scalar sum: the reduction the unfused Aggr runs, over the same
	// compact values — bit-identical by construction.
	dst, sp, rev, err := e.reduceScalar(out, isFloat, ops.Sum, m, []*cl.Event{ev})
	if err != nil {
		e.releaseAfter(ev, out)
		return nil, err
	}
	e.releaseAfter(rev, sp, out)
	res := bat.NewOcelotOwned(ops.Sum.String(), outType, 1)
	e.mm.BindValues(res, dst, rev)
	return res, nil
}

// fusedFloats derives every node's type without binding buffers,
// replicating the unfused promotion rules: columns by type, constants by the
// BinopConst integral rule, Bin nodes float when either child is.
func fusedFloats(nodes []ops.FusedNode) []bool {
	float := make([]bool, len(nodes))
	for k, nd := range nodes {
		switch nd.Kind {
		case ops.FusedCol:
			float[k] = nd.Col.T == bat.F32
		case ops.FusedConst:
			float[k] = nd.C != float64(int32(nd.C))
		default:
			float[k] = float[nd.L] || float[nd.R]
		}
	}
	return float
}

// fusedEmptyResult produces the region's result for an empty domain, exactly
// as the unfused member chain would: an empty candidate list, an empty value
// column, a zero Count or the typed zero Sum.
func (e *Engine) fusedEmptyResult(op *ops.FusedOp) (*bat.BAT, error) {
	t := bat.I32
	if k := len(op.Nodes); k > 0 && fusedFloats(op.Nodes)[k-1] {
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
