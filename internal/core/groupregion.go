package core

import (
	"math/bits"
	"slices"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
	"repro/internal/ops"
)

// fusedGrouped runs a grouped region (ops.FusedOp.Keys): a chain of
// groupings over int32 keys and the aggregates over its ids, in three steps —
// one KeyRanges launch over every key column and one read-back; one fold of
// every aggregate by key code (kernels.GroupRegionFold); one launch that
// numbers the codes that occur and writes every result, after one read-back
// of which codes occur, ngroups. Where kernels.GroupRegionFits refuses the
// measured code range, the chain runs as its members, the first grouping on
// the measurement already taken (groupChain).
//
// Results are bit-identical to the chained members': the codes are
// last-key-major, which is how a chain of identity-addressed groupings — the
// addressing every link takes under the rule — numbers its ids, and every
// aggregate folds the chained path's chunks of rows in the chained path's
// order (kernels.GroupRegionFits). A sum and an average of one column share
// one accumulator, every count and average one count, and a Min or Max of a
// key is the key's digit of the code.
func (e *Engine) fusedGrouped(op *ops.FusedOp) ([]*bat.BAT, error) {
	n := op.Keys[0].Len()
	for _, k := range op.Keys {
		if k == nil || k.T != bat.I32 || k.Len() != n {
			return nil, ops.ErrFusedUnsupported
		}
	}
	for _, a := range op.Aggs {
		switch {
		case a.Vals == nil:
			if a.Kind != ops.Count {
				return nil, ops.ErrFusedUnsupported
			}
		case !numericT(a.Vals.T) || a.Vals.Len() != n || a.Kind > ops.Avg,
			a.Kind == ops.Avg && a.Vals.T != bat.F32:
			// Averages of integers cast before they sum; the members do that.
			return nil, ops.ErrFusedUnsupported
		}
	}
	out := make([]*bat.BAT, len(op.Aggs))
	if n == 0 {
		for i, a := range op.Aggs {
			out[i] = ops.EmptyAggr(a.Kind, a.Vals)
		}
		return out, nil
	}

	keys := make([]*cl.Buffer, len(op.Keys))
	var wait []*cl.Event
	for j, k := range op.Keys {
		buf, w, err := e.valuesOf(k)
		if err != nil {
			return nil, err
		}
		keys[j] = buf
		wait = append(wait, w...)
	}
	words := kernels.KeyRangesWords(e.dev, n, len(keys))
	partials, err := e.mm.Alloc(words * 4)
	if err != nil {
		return nil, err
	}
	mev := kernels.KeyRanges(e.q, partials, keys, n, wait)
	for _, k := range op.Keys {
		e.mm.NoteConsumer(k, mev)
	}
	host, err := e.hostView(partials, words*4, []*cl.Event{mev})
	var ks []kernels.KeySpace
	if err == nil {
		ks = kernels.FoldKeyRanges(e.dev, mem.U32(host), n, len(keys)) // before the release: host may be the buffer
	}
	e.mm.Release(partials)
	if err != nil {
		return nil, err
	}
	codes := uint64(1)
	for _, k := range ks {
		if codes *= uint64(k.Span) + 1; codes > uint64(n) {
			break // past any range the rule admits; and no product overflows
		}
	}
	if !kernels.GroupRegionFits(n, codes) {
		return e.groupChain(op, ks, out)
	}
	return e.groupFold(op, keys, ks, int(codes), n, wait, out)
}

// groupChain runs a refused region as its member operators: the first
// grouping on the measurement the region took, each later one on its key's
// measured range where that range times the previous group count is
// identity-addressed — the run verdict and distinct estimate a measurement
// adds are read only where it is not — and every aggregate over the last ids.
func (e *Engine) groupChain(op *ops.FusedOp, ks []kernels.KeySpace, out []*bat.BAT) ([]*bat.BAT, error) {
	n := op.Keys[0].Len()
	ids, ngroups, err := e.group(op.Keys[0], nil, 0, &ks[0])
	for j := 1; j < len(op.Keys) && err == nil; j++ {
		known := &kernels.KeySpace{Min: ks[j].Min, Span: ks[j].Span, Prev: uint32(ngroups)}
		if kernels.IdentityWords(e.dev, n, known.Range()) == 0 {
			known = nil
		}
		prev := ids
		ids, ngroups, err = e.group(op.Keys[j], prev, ngroups, known)
		e.Release(prev)
	}
	for i, a := range op.Aggs {
		if err != nil {
			break
		}
		out[i], err = e.Aggr(a.Kind, a.Vals, ids, ngroups)
	}
	e.Release(ids)
	if err != nil {
		for _, b := range out {
			e.Release(b)
		}
		return nil, err
	}
	return out, nil
}

// groupFold is the region's fold and final pass over codes key codes.
func (e *Engine) groupFold(op *ops.FusedOp, keys []*cl.Buffer, ks []kernels.KeySpace, codes, n int, wait []*cl.Event, out []*bat.BAT) ([]*bat.BAT, error) {
	sc := &scratchSet{mm: e.mm}
	code := sc.alloc(n + 1)
	pwords := (codes + 31) / 32
	present := sc.allocZeroed(pwords)
	table := kernels.SumChunks*codes + 1
	accs := []kernels.RegionAcc{{Kind: ops.Sum, Parts: sc.alloc(table)}} // the count
	var accCols []*bat.BAT                                               // accs[i+1] folds accCols[i]
	outs := make([]kernels.RegionOut, len(op.Aggs))
	for i, a := range op.Aggs {
		kind := a.Kind
		switch {
		case kind == ops.Count:
			continue // accumulator 0
		case kind == ops.Avg:
			kind, outs[i].Avg = ops.Sum, true
		case kind == ops.Min || kind == ops.Max:
			if j := slices.Index(op.Keys, a.Vals); j >= 0 {
				outs[i].Acc, outs[i].Key = -1, j
				continue
			}
		}
		outs[i].Acc = -1
		for k, c := range accCols {
			if c == a.Vals && accs[k+1].Kind == kind {
				outs[i].Acc = k + 1
				break
			}
		}
		if outs[i].Acc < 0 && sc.err == nil {
			//lint:transfer the fold notes itself on every column of accCols
			vals, w, err := e.valuesOf(a.Vals)
			if err != nil {
				sc.releaseAll()
				return nil, err
			}
			wait = append(wait, w...)
			outs[i].Acc = len(accs)
			accs = append(accs, kernels.RegionAcc{Kind: kind, Float: a.Vals.T == bat.F32, Vals: vals, Parts: sc.alloc(table)})
			accCols = append(accCols, a.Vals)
		}
	}
	if sc.err != nil {
		sc.releaseAll()
		return nil, sc.err
	}
	fev := kernels.GroupRegionFold(e.q, code, present, keys, ks, accs, n, codes, wait)
	for _, k := range op.Keys {
		e.mm.NoteConsumer(k, fev)
	}
	for _, c := range accCols {
		e.mm.NoteConsumer(c, fev)
	}
	host, err := e.hostView(present, pwords*4, []*cl.Event{fev})
	if err != nil {
		sc.releaseAll()
		return nil, err
	}
	ngroups := 0
	for _, w := range mem.U32(host) {
		ngroups += bits.OnesCount32(w)
	}

	dsts := &scratchSet{mm: e.mm}
	for i := range outs {
		outs[i].Dst = dsts.alloc(ngroups + 1)
	}
	if dsts.err != nil {
		dsts.releaseAll()
		sc.releaseAll()
		return nil, dsts.err
	}
	ev := kernels.GroupRegionFinal(e.q, present, ks, accs, outs, codes, []*cl.Event{fev})
	e.releaseAfter(ev, sc.bufs...)
	for i, a := range op.Aggs {
		t := bat.I32
		switch {
		case a.Kind == ops.Avg:
			t = bat.F32
		case a.Kind != ops.Count:
			t = a.Vals.T
		}
		out[i] = bat.NewOcelotOwned(a.Kind.String(), t, ngroups)
		e.mm.BindValues(out[i], outs[i].Dst, ev)
	}
	return out, nil
}
