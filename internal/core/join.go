package core

import (
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Join is Ocelot's equi-join (§4.1.5): a hash join over the multi-stage
// lookup table, with the two-step count/prefix-sum/scatter procedure when
// the match cardinality is unknown, and the direct (bitmap) path when the
// build side is a key column. A join that does not fit the device once the
// Memory Manager has evicted what it can fails with cl.ErrOutOfDeviceMemory;
// the hybrid engine answers that on the CPU.
func (e *Engine) Join(l, r *bat.BAT) (*bat.BAT, *bat.BAT, error) {
	ht, err := e.BuildHash(r)
	if err != nil {
		return nil, nil, err
	}
	defer ht.Release()
	return e.HashProbe(l, ht)
}

// HashProbe probes ht with l's values (the phase Fig. 5i measures).
func (e *Engine) HashProbe(l *bat.BAT, ht ops.HashTable) (*bat.BAT, *bat.BAT, error) {
	h, ok := ht.(*devHashTable)
	if !ok {
		return nil, nil, fmt.Errorf("core: foreign hash table %T", ht)
	}
	// The allocations below may run the pressure protocol; the table stays
	// pinned until the probe kernels reading it are on record.
	h.pin()
	defer h.unpin()
	if err := h.ensureBuckets(); err != nil {
		return nil, nil, err
	}
	lBuf, wait, err := e.valuesOf(l)
	if err != nil {
		return nil, nil, err
	}
	wait = append(wait, h.buckets)
	n := l.Len()

	if h.uniqueKeys {
		return e.probeUnique(l, lBuf, h, n, wait)
	}

	// Two-step: count, scan, write (§4.1.5).
	sc := &scratchSet{mm: e.mm}
	counts := sc.alloc(n + 1)
	offsets := sc.alloc(n + 1)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, nil, sc.err
	}
	cev := kernels.JoinProbeCount(e.q, counts, h.tab, h.starts, lBuf, n, wait)
	e.mm.NoteConsumer(l, cev)
	h.noteReader(cev)
	sev := kernels.PrefixSum(e.q, offsets, counts, sp, total, n, []*cl.Event{cev})
	m32, err := e.readU32(total, []*cl.Event{sev})
	if err != nil {
		sc.releaseAll()
		return nil, nil, err
	}
	m := int(m32)

	outL, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		sc.releaseAll()
		return nil, nil, err
	}
	outR, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		_ = outL.Release()
		sc.releaseAll()
		return nil, nil, err
	}
	wev := kernels.JoinProbeWrite(e.q, outL, outR, offsets, h.tab, h.starts, h.rowids, lBuf, n, []*cl.Event{sev})
	e.mm.NoteConsumer(l, wev)
	h.noteReader(wev)
	e.releaseAfter(wev, sc.bufs...)

	lres := bat.NewOcelotOwned(l.Name+"_join", bat.OID, m)
	lres.Props.Sorted = true
	rres := bat.NewOcelotOwned("build_join", bat.OID, m)
	e.mm.BindValues(lres, outL, wev)
	e.mm.BindValues(rres, outR, wev)
	return lres, rres, nil
}

// probeUnique is the direct join path for key build sides: one kernel emits
// a match bitmap plus the matching build row per probe position; the left
// result is the materialised bitmap, the right result a gather over it.
func (e *Engine) probeUnique(l *bat.BAT, lBuf *cl.Buffer, h *devHashTable, n int, wait []*cl.Event) (*bat.BAT, *bat.BAT, error) {
	bm, sp, err := e.bitmapScratch(n)
	if err != nil {
		return nil, nil, err
	}
	rpos, err := e.mm.Alloc((n + 1) * 4)
	if err != nil {
		_ = bm.Release()
		e.mm.Release(sp)
		return nil, nil, err
	}
	pev := kernels.JoinProbeUnique(e.q, bm, rpos, sp, h.tab, h.starts, h.rowids, lBuf, n, wait)
	e.mm.NoteConsumer(l, pev)
	h.noteReader(pev)

	count, err := e.countAndRelease(sp, pev)
	if err != nil {
		_ = bm.Release()
		_ = rpos.Release()
		return nil, nil, err
	}
	lres := bat.NewOcelotOwned(l.Name+"_join", bat.OID, count)
	lres.Props.Sorted, lres.Props.Key = true, true
	e.mm.BindBitmap(lres, bm, n, pev)

	// Right side: gather the matched build rows at the bitmap's positions.
	lOids, lWait, err := e.materializedOIDs(lres)
	if err != nil {
		_ = rpos.Release()
		return nil, nil, err
	}
	outR, err := e.mm.Alloc((count + 1) * 4)
	if err != nil {
		_ = rpos.Release()
		return nil, nil, err
	}
	gev := kernels.Gather(e.q, outR, rpos, lOids, count, append(lWait, pev))
	e.mm.NoteConsumer(lres, gev)
	e.releaseAfter(gev, rpos)
	rres := bat.NewOcelotOwned("build_join", bat.OID, count)
	e.mm.BindValues(rres, outR, gev)
	return lres, rres, nil
}

// ThetaJoin evaluates an inequality join with the two-step nested-loop
// kernels of §4.1.5: a counting pass, a prefix sum into unique write
// offsets, and the scatter pass.
func (e *Engine) ThetaJoin(l, r *bat.BAT, cmp ops.Cmp) (*bat.BAT, *bat.BAT, error) {
	if l.T != r.T {
		return nil, nil, fmt.Errorf("core: theta join type mismatch %v vs %v", l.T, r.T)
	}
	var pred func(a, b uint32) bool
	switch l.T {
	case bat.I32:
		pred = func(a, b uint32) bool { return cmpI32Bits(a, b, cmp) }
	case bat.F32:
		pred = func(a, b uint32) bool { return cmpF32Bits(a, b, cmp) }
	default:
		return nil, nil, fmt.Errorf("core: theta join on %v columns", l.T)
	}
	lBuf, lWait, err := e.valuesOf(l)
	if err != nil {
		return nil, nil, err
	}
	rBuf, rWait, err := e.valuesOf(r)
	if err != nil {
		return nil, nil, err
	}
	wait := append(lWait, rWait...)
	nl, nr := l.Len(), r.Len()

	sc := &scratchSet{mm: e.mm}
	counts := sc.alloc(nl + 1)
	offsets := sc.alloc(nl + 1)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, nil, sc.err
	}
	cev := kernels.NestedLoopCount(e.q, counts, lBuf, rBuf, nl, nr, pred, wait)
	e.mm.NoteConsumer(l, cev)
	e.mm.NoteConsumer(r, cev)
	sev := kernels.PrefixSum(e.q, offsets, counts, sp, total, nl, []*cl.Event{cev})
	m32, err := e.readU32(total, []*cl.Event{sev})
	if err != nil {
		sc.releaseAll()
		return nil, nil, err
	}
	m := int(m32)
	outL, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		sc.releaseAll()
		return nil, nil, err
	}
	outR, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		_ = outL.Release()
		sc.releaseAll()
		return nil, nil, err
	}
	wev := kernels.NestedLoopWrite(e.q, outL, outR, offsets, lBuf, rBuf, nl, nr, pred, []*cl.Event{sev})
	e.mm.NoteConsumer(l, wev)
	e.mm.NoteConsumer(r, wev)
	e.releaseAfter(wev, sc.bufs...)

	lres := bat.NewOcelotOwned(l.Name+"_theta", bat.OID, m)
	lres.Props.Sorted = true
	rres := bat.NewOcelotOwned(r.Name+"_theta", bat.OID, m)
	e.mm.BindValues(lres, outL, wev)
	e.mm.BindValues(rres, outR, wev)
	return lres, rres, nil
}

func cmpI32Bits(a, b uint32, c ops.Cmp) bool {
	x, y := int32(a), int32(b)
	switch c {
	case ops.Lt:
		return x < y
	case ops.Le:
		return x <= y
	case ops.Gt:
		return x > y
	case ops.Ge:
		return x >= y
	case ops.Eq:
		return x == y
	default:
		return x != y
	}
}

func cmpF32Bits(a, b uint32, c ops.Cmp) bool {
	x, y := math.Float32frombits(a), math.Float32frombits(b)
	switch c {
	case ops.Lt:
		return x < y
	case ops.Le:
		return x <= y
	case ops.Gt:
		return x > y
	case ops.Ge:
		return x >= y
	case ops.Eq:
		return x == y
	default:
		return x != y
	}
}

// SemiJoin returns the positions of l with a match in r (EXISTS), as a
// selection bitmap over l's positions.
func (e *Engine) SemiJoin(l, r *bat.BAT) (*bat.BAT, error) {
	return e.existenceJoin(l, r, false)
}

// AntiJoin returns the positions of l without a match in r (NOT EXISTS).
func (e *Engine) AntiJoin(l, r *bat.BAT) (*bat.BAT, error) {
	return e.existenceJoin(l, r, true)
}

func (e *Engine) existenceJoin(l, r *bat.BAT, negate bool) (*bat.BAT, error) {
	// Existence needs only the slots stage, never the buckets.
	h, err := e.slotTable(r)
	if err != nil {
		return nil, err
	}
	defer h.Release()
	h.pin() // as in HashProbe
	defer h.unpin()
	lBuf, wait, err := e.valuesOf(l)
	if err != nil {
		return nil, err
	}
	wait = append(wait, h.slots)
	n := l.Len()
	bm, sp, err := e.bitmapScratch(n)
	if err != nil {
		return nil, err
	}
	ev := kernels.ExistsProbe(e.q, bm, sp, h.tab, lBuf, n, negate, wait)
	e.mm.NoteConsumer(l, ev)
	h.noteReader(ev)
	name := l.Name + "_semi"
	if negate {
		name = l.Name + "_anti"
	}
	return e.finishBitmapSelection(name, bm, sp, n, ev)
}
