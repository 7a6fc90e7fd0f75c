package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Aggr implements Ocelot's aggregation operator (§4.1.7): ungrouped
// aggregates use the parallel binary reduction, grouped aggregates
// partition-private partial tables folded in a final pass (single-table
// atomics once the partials would outgrow the input).
// Count returns I32, Avg F32, Sum/Min/Max the input type. All accumulation
// happens in four-byte types — the restriction of §3.1 — so float results
// may differ from wide-accumulator engines in the last few digits.
func (e *Engine) Aggr(kind ops.Agg, vals, groups *bat.BAT, ngroups int) (*bat.BAT, error) {
	if vals == nil && kind != ops.Count {
		return nil, fmt.Errorf("core: %v aggregate requires a value column", kind)
	}
	if vals == nil && groups == nil {
		return nil, fmt.Errorf("core: count aggregate needs a value column or groups")
	}
	if vals != nil && groups != nil && vals.Len() != groups.Len() {
		return nil, fmt.Errorf("core: aggregate misaligned: %d values, %d group ids",
			vals.Len(), groups.Len())
	}
	if groups == nil {
		return e.aggrScalar(kind, vals)
	}
	if ngroups <= 0 {
		if ngroups == 0 && groups.Len() == 0 {
			return ops.EmptyAggr(kind, vals), nil
		}
		return nil, fmt.Errorf("core: grouped aggregate with ngroups=%d", ngroups)
	}
	return e.aggrGrouped(kind, vals, groups, ngroups)
}

func (e *Engine) aggrScalar(kind ops.Agg, vals *bat.BAT) (*bat.BAT, error) {
	n := vals.Len()
	if kind == ops.Count {
		return countOf(n), nil
	}
	if n == 0 {
		// The sum of nothing is the typed zero, as MonetDB answers; the
		// other kinds have no value to give.
		if kind == ops.Sum && (vals.T == bat.I32 || vals.T == bat.F32) {
			return bat.New(kind.String(), vals.T, 1), nil
		}
		return nil, fmt.Errorf("core: %v of an empty column", kind)
	}
	valBuf, wait, err := e.valuesOf(vals)
	if err != nil {
		return nil, err
	}

	isFloat := vals.T == bat.F32
	wantFloat := isFloat || kind == ops.Avg
	var cast *cl.Buffer
	if wantFloat && !isFloat {
		if cast, err = e.mm.Alloc((n + 1) * 4); err != nil {
			return nil, err
		}
		cev := kernels.CastI32F32(e.q, cast, valBuf, n, wait)
		e.mm.NoteConsumer(vals, cev)
		valBuf, wait, isFloat = cast, []*cl.Event{cev}, true
	}

	redKind := kind
	if kind == ops.Avg {
		redKind = ops.Sum
	}
	dst, sp, ev, err := e.reduceScalar(valBuf, isFloat, redKind, n, wait)
	if err != nil {
		e.mm.Release(cast)
		return nil, err
	}
	e.mm.NoteConsumer(vals, ev)
	if kind == ops.Avg {
		//lint:transfer becomes dst, which is bound to the result below
		avg, err := e.mm.Alloc(4)
		if err != nil {
			_ = sp.Release()
			_ = dst.Release()
			e.mm.Release(cast)
			return nil, err
		}
		ev = kernels.MapBinopConst(e.q, avg, dst, true, ops.Div, float32(n), 0, false, 1, []*cl.Event{ev})
		e.releaseAfter(ev, dst)
		dst = avg
	}
	e.releaseAfter(ev, sp, cast)

	resType := bat.F32
	if !isFloat {
		resType = bat.I32
	}
	res := bat.NewOcelotOwned(kind.String(), resType, 1)
	e.mm.BindValues(res, dst, ev)
	return res, nil
}

// countOf is a scalar Count: the cardinality is a descriptor fact, no kernel
// needed.
func countOf(n int) *bat.BAT {
	out := bat.New("count", bat.I32, 1)
	out.I32s()[0] = int32(n)
	return out
}

// reduceScalar enqueues the reduction of src[:n] under kind into a fresh
// word dst — the one scalar path of Aggr and of a fused region's terminal
// sum, which is what keeps the two bit-identical. The caller releases the
// partials sp behind ev.
func (e *Engine) reduceScalar(src *cl.Buffer, isFloat bool, kind ops.Agg, n int, wait []*cl.Event) (dst, sp *cl.Buffer, ev *cl.Event, err error) {
	if sp, err = e.spine(); err != nil {
		return nil, nil, nil, err
	}
	if dst, err = e.mm.Alloc(4); err != nil {
		e.mm.Release(sp)
		return nil, nil, nil, err
	}
	if isFloat {
		return dst, sp, kernels.ReduceF32(e.q, dst, src, sp, kind, n, wait), nil
	}
	return dst, sp, kernels.ReduceI32(e.q, dst, src, sp, kind, n, wait), nil
}

func (e *Engine) aggrGrouped(kind ops.Agg, vals, groups *bat.BAT, ngroups int) (*bat.BAT, error) {
	gidBuf, gWait, err := e.valuesOf(groups)
	if err != nil {
		return nil, err
	}
	n := groups.Len()

	var valBuf *cl.Buffer
	var wait []*cl.Event
	isFloat := false
	if vals != nil {
		if valBuf, wait, err = e.valuesOf(vals); err != nil {
			return nil, err
		}
		isFloat = vals.T == bat.F32
	}
	wait = append(wait, gWait...)

	sc := &scratchSet{mm: e.mm}
	if kind == ops.Avg && !isFloat {
		cast := sc.alloc(n + 1)
		if sc.err != nil {
			return nil, sc.err
		}
		cev := kernels.CastI32F32(e.q, cast, valBuf, n, wait)
		e.mm.NoteConsumer(vals, cev)
		valBuf, wait, isFloat = cast, []*cl.Event{cev}, true
	}

	// sum enqueues the order-stable float sum into dst: the fixed-partition
	// kernel keeps the bit pattern identical on every device, so hybrid
	// placement (and N-device configurations) can move the aggregation
	// freely.
	sum := func(dst *cl.Buffer) *cl.Event {
		parts := sc.alloc(ngroups*kernels.GroupSumChunksFor(n, ngroups) + 1)
		if sc.err != nil {
			return nil
		}
		return kernels.GroupedSumF32(e.q, dst, valBuf, gidBuf, parts, n, ngroups, wait)
	}
	// fold enqueues every order-insensitive aggregate — counts (nil values),
	// integer Sum/Min/Max, float Min/Max — into dst.
	fold := func(dst, valBuf *cl.Buffer, kind ops.Agg, float bool) *cl.Event {
		var parts *cl.Buffer
		if words := kernels.GroupAggScratchWords(n, ngroups); words > 0 {
			parts = sc.alloc(words)
		}
		if sc.err != nil {
			return nil
		}
		if float {
			return kernels.GroupedAggF32(e.q, dst, valBuf, gidBuf, parts, kind, n, ngroups, wait)
		}
		return kernels.GroupedAggI32(e.q, dst, valBuf, gidBuf, parts, kind, n, ngroups, wait)
	}

	dst, err := e.mm.Alloc((ngroups + 1) * 4)
	if err != nil {
		sc.releaseAll()
		return nil, err
	}
	resType := bat.I32
	var ev *cl.Event
	switch {
	case kind == ops.Count:
		ev = fold(dst, nil, ops.Sum, false)
	case kind == ops.Avg:
		// The order-stable sum and the count run concurrently on disjoint
		// scratch (independent events, reorderable by the driver — Figure
		// 3's freedom).
		resType = bat.F32
		sums, cnts := sc.alloc(ngroups+1), sc.alloc(ngroups+1)
		sev, cev := sum(sums), fold(cnts, nil, ops.Sum, false)
		if sc.err == nil {
			ev = kernels.DivF32I32(e.q, dst, sums, cnts, ngroups, []*cl.Event{sev, cev})
		}
	case kind == ops.Sum && isFloat:
		resType = bat.F32
		ev = sum(dst)
	case kind == ops.Sum || kind == ops.Min || kind == ops.Max:
		if isFloat {
			resType = bat.F32
		}
		ev = fold(dst, valBuf, kind, isFloat)
	default:
		sc.err = fmt.Errorf("core: unknown aggregate %v", kind)
	}
	if sc.err != nil {
		sc.releaseAll()
		_ = dst.Release()
		return nil, sc.err
	}
	if vals != nil {
		e.mm.NoteConsumer(vals, ev)
	}
	e.mm.NoteConsumer(groups, ev)
	e.releaseAfter(ev, sc.bufs...)
	res := bat.NewOcelotOwned(kind.String(), resType, ngroups)
	e.mm.BindValues(res, dst, ev)
	return res, nil
}
