package core

import (
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Select is Ocelot's selection operator (§4.1.1): the result is encoded as a
// bitmap over the column's rows, so its cost is independent of selectivity
// (Fig. 5b) and conjunctions are free (the candidate bitmap is ANDed inside
// the kernel). Candidate lists that are already materialised positions (join
// outputs) take the gather path instead.
func (e *Engine) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	n := col.Len()
	candBm, candTransient, candWait, listCand, err := e.selectionCandidate(cand, n)
	if err != nil {
		return nil, err
	}
	if listCand != nil {
		return e.selectOnList(col, listCand, cand, lo, hi, loIncl, hiIncl)
	}

	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, err
	}
	wait = append(wait, candWait...)

	bm, err := e.mm.Alloc(bitmapWords(n) * 4)
	if err != nil {
		return nil, err
	}
	var ev *cl.Event
	switch col.T {
	case bat.I32:
		l, h, ok := kernels.I32RangeBounds(lo, hi, loIncl, hiIncl)
		if !ok {
			_ = bm.Release()
			if candTransient {
				// The synthesised range bitmap may still be in flight; gate
				// its release on the producing events so the recycled bytes
				// cannot be handed out while the kernel writes them.
				e.releaseAfter(e.q.EnqueueMarker(candWait), candBm)
			}
			return e.emptySelection(col.Name)
		}
		ev = kernels.SelectI32(e.q, bm, colBuf, candBm, n, l, h, wait)
	case bat.F32:
		fl, fh := f32Bounds(lo, hi)
		ev = kernels.SelectF32(e.q, bm, colBuf, candBm, n, fl, fh, loIncl, hiIncl, wait)
	default:
		_ = bm.Release()
		if candTransient {
			e.releaseAfter(e.q.EnqueueMarker(candWait), candBm)
		}
		return nil, fmt.Errorf("core: select on %v column %q", col.T, col.Name)
	}
	if candTransient {
		e.releaseAfter(ev, candBm)
	}
	e.mm.NoteConsumer(col, ev)
	e.mm.NoteConsumer(cand, ev)
	return e.finishBitmapSelection(col.Name, bm, n, ev)
}

// SelectCmp evaluates a[oid] cmp b[oid] into a bitmap (§4.1.1's bit-operation
// combining makes these composable with Select results).
func (e *Engine) SelectCmp(a, b *bat.BAT, cmp ops.Cmp, cand *bat.BAT) (*bat.BAT, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("core: selectcmp on misaligned columns %q(%d)/%q(%d)",
			a.Name, a.Len(), b.Name, b.Len())
	}
	if a.T != b.T {
		return nil, fmt.Errorf("core: selectcmp type mismatch %v vs %v", a.T, b.T)
	}
	n := a.Len()
	candBm, candTransient, candWait, listCand, err := e.selectionCandidate(cand, n)
	if err != nil {
		return nil, err
	}
	if listCand != nil {
		return nil, fmt.Errorf("core: selectcmp over materialised candidate lists is not supported; project first")
	}
	// On any early error the transient candidate bitmap must still be
	// released (event-gated: its producer may be in flight).
	dropCand := func() {
		if candTransient {
			e.releaseAfter(e.q.EnqueueMarker(candWait), candBm)
		}
	}
	ab, waitA, err := e.valuesOf(a)
	if err != nil {
		dropCand()
		return nil, err
	}
	bb, waitB, err := e.valuesOf(b)
	if err != nil {
		dropCand()
		return nil, err
	}
	wait := append(append(waitA, waitB...), candWait...)
	bm, err := e.mm.Alloc(bitmapWords(n) * 4)
	if err != nil {
		dropCand()
		return nil, err
	}
	ev := kernels.SelectCmp(e.q, bm, ab, bb, a.T == bat.F32, cmp, candBm, n, wait)
	if candTransient {
		e.releaseAfter(ev, candBm)
	}
	e.mm.NoteConsumer(a, ev)
	e.mm.NoteConsumer(b, ev)
	e.mm.NoteConsumer(cand, ev)
	return e.finishBitmapSelection(a.Name, bm, n, ev)
}

// OIDUnion combines two selections disjunctively. When both are bitmaps over
// the same domain this is the one-kernel ∨ of Figure 3; otherwise the lists
// are synchronised and merged on the host (the MonetDB fallback path the
// rewriter would otherwise schedule).
func (e *Engine) OIDUnion(a, b *bat.BAT) (*bat.BAT, error) {
	da, aIsBM := e.mm.IsBitmap(a)
	db, bIsBM := e.mm.IsBitmap(b)
	if aIsBM && bIsBM && da == db {
		ba, _, waitA, err := e.mm.BitmapForRead(a)
		if err != nil {
			return nil, err
		}
		bb, _, waitB, err := e.mm.BitmapForRead(b)
		if err != nil {
			return nil, err
		}
		bm, err := e.mm.Alloc(bitmapWords(da) * 4)
		if err != nil {
			return nil, err
		}
		ev := kernels.BitmapOr(e.q, bm, ba, bb, kernels.BitmapBytes(da), append(waitA, waitB...))
		e.mm.NoteConsumer(a, ev)
		e.mm.NoteConsumer(b, ev)
		return e.finishBitmapSelection("union", bm, da, ev)
	}

	// Host fallback for heterogeneous inputs.
	if err := e.Sync(a); err != nil {
		return nil, err
	}
	if err := e.Sync(b); err != nil {
		return nil, err
	}
	as, bs := a.MaterializeOIDs(), b.MaterializeOIDs()
	out := make([]uint32, 0, len(as)+len(bs))
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		switch {
		case as[i] < bs[j]:
			out = append(out, as[i])
			i++
		case as[i] > bs[j]:
			out = append(out, bs[j])
			j++
		default:
			out = append(out, as[i])
			i++
			j++
		}
	}
	out = append(out, as[i:]...)
	out = append(out, bs[j:]...)
	res := bat.NewOID("union", out)
	res.Props.Sorted, res.Props.Key = true, true
	return res, nil
}

// selectionCandidate prepares the candidate argument for a bitmap-producing
// kernel: it yields either a candidate bitmap (possibly synthesised from a
// dense sub-range), or a materialised list descriptor for the gather path.
func (e *Engine) selectionCandidate(cand *bat.BAT, n int) (bm *cl.Buffer, transient bool, wait []*cl.Event, list *candidate, err error) {
	switch {
	case cand == nil:
		return nil, false, nil, nil, nil
	case cand.T == bat.Void:
		if cand.Seq == 0 && cand.Len() == n {
			return nil, false, nil, nil, nil
		}
		bm, err := e.mm.Alloc(bitmapWords(n) * 4)
		if err != nil {
			return nil, false, nil, nil, err
		}
		ev := kernels.BitmapRange(e.q, bm, n, int(cand.Seq), int(cand.Seq)+cand.Len(), nil)
		// The range bitmap is transient scratch: released once consumed.
		return bm, true, []*cl.Event{ev}, nil, nil
	}
	if domain, isBM := e.mm.IsBitmap(cand); isBM {
		if domain != n {
			return nil, false, nil, nil, fmt.Errorf("core: candidate bitmap domain %d does not match column length %d", domain, n)
		}
		buf, _, w, err := e.mm.BitmapForRead(cand)
		return buf, false, w, nil, err
	}
	c, err := e.resolveCand(cand, n)
	if err != nil {
		return nil, false, nil, nil, err
	}
	return nil, false, nil, &c, nil
}

// selectOnList evaluates a range predicate over a materialised candidate
// list: gather → bitmap over list positions → materialise → map back to
// input oids.
func (e *Engine) selectOnList(col *bat.BAT, c *candidate, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, err
	}
	m := c.n
	gathered, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		return nil, err
	}
	gev := kernels.Gather(e.q, gathered, colBuf, c.buf, m, append(wait, c.wait...))
	e.mm.NoteConsumer(col, gev)
	e.mm.NoteConsumer(cand, gev)

	bm, err := e.mm.Alloc(bitmapWords(m) * 4)
	if err != nil {
		_ = gathered.Release()
		return nil, err
	}
	var sev *cl.Event
	switch col.T {
	case bat.I32:
		l, h, ok := kernels.I32RangeBounds(lo, hi, loIncl, hiIncl)
		if !ok {
			_ = gathered.Release()
			_ = bm.Release()
			return e.emptySelection(col.Name)
		}
		sev = kernels.SelectI32(e.q, bm, gathered, nil, m, l, h, []*cl.Event{gev})
	case bat.F32:
		fl, fh := f32Bounds(lo, hi)
		sev = kernels.SelectF32(e.q, bm, gathered, nil, m, fl, fh, loIncl, hiIncl, []*cl.Event{gev})
	default:
		_ = gathered.Release()
		_ = bm.Release()
		return nil, fmt.Errorf("core: select on %v column %q", col.T, col.Name)
	}
	e.releaseAfter(sev, gathered)

	// Count, materialise positions within the list, then map back to the
	// original oids with a second gather.
	count, err := e.bitmapCount(bm, m, sev)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	positions, err := e.mm.Alloc((count + 1) * 4)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	sp, err := e.spine()
	if err != nil {
		_ = bm.Release()
		_ = positions.Release()
		return nil, err
	}
	mev := kernels.Materialize(e.q, positions, bm, sp, m, []*cl.Event{sev})
	e.releaseAfter(mev, sp, bm)

	out, err := e.mm.Alloc((count + 1) * 4)
	if err != nil {
		_ = positions.Release()
		return nil, err
	}
	oev := kernels.Gather(e.q, out, c.buf, positions, count, []*cl.Event{mev})
	e.mm.NoteConsumer(cand, oev)
	e.releaseAfter(oev, positions)

	res := bat.NewOcelotOwned(col.Name+"_sel", bat.OID, count)
	res.Props.Sorted, res.Props.Key = true, true
	e.mm.BindValues(res, out, oev)
	return res, nil
}

// finishBitmapSelection counts the bitmap, builds the result BAT and binds
// the bitmap payload.
func (e *Engine) finishBitmapSelection(name string, bm *cl.Buffer, n int, ev *cl.Event) (*bat.BAT, error) {
	count, err := e.bitmapCount(bm, n, ev)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	res := bat.NewOcelotOwned(name+"_sel", bat.OID, count)
	res.Props.Sorted, res.Props.Key = true, true
	e.mm.BindBitmap(res, bm, n, ev)
	return res, nil
}

// bitmapCount runs the popcount reduction and reads back the total — the
// size read every materialising engine needs before allocating results.
func (e *Engine) bitmapCount(bm *cl.Buffer, n int, ev *cl.Event) (int, error) {
	sp, err := e.spine()
	if err != nil {
		return 0, err
	}
	total, err := e.mm.Alloc(4)
	if err != nil {
		e.mm.Release(sp)
		return 0, err
	}
	cev := kernels.BitmapCount(e.q, bm, sp, total, n, []*cl.Event{ev})
	count, err := e.readU32(total, []*cl.Event{cev})
	// readU32 waited on cev, so the scratch pair is quiescent and its bytes
	// can be recycled immediately.
	e.mm.Release(sp)
	e.mm.Release(total)
	if err != nil {
		return 0, err
	}
	return int(count), nil
}

// emptySelection returns an empty, host-visible candidate list.
func (e *Engine) emptySelection(name string) (*bat.BAT, error) {
	res := bat.New(name+"_sel", bat.OID, 0)
	res.Props.Sorted, res.Props.Key = true, true
	return res, nil
}

func bitmapWords(n int) int { return (kernels.BitmapBytes(n) + 3) / 4 }

func f32Bounds(lo, hi float64) (float32, float32) {
	l := float32(math.Max(lo, -math.MaxFloat32))
	h := float32(math.Min(hi, math.MaxFloat32))
	if math.IsInf(lo, -1) {
		l = float32(math.Inf(-1))
	}
	if math.IsInf(hi, 1) {
		h = float32(math.Inf(1))
	}
	return l, h
}
