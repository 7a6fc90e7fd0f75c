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
	c, err := e.selectionCandidate(cand, n)
	if err != nil {
		return nil, err
	}
	if c.list != nil {
		return e.selectOnList(col, c.list, cand, lo, hi, loIncl, hiIncl)
	}
	l, h, ok, err := rangeKeys(col, lo, hi, loIncl, hiIncl)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.emptySelection(col.Name)
	}
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, err
	}
	bm, sp, err := e.bitmapScratch(n)
	if err != nil {
		return nil, err
	}
	ev := kernels.Select(e.q, bm, c.bm, sp, []kernels.FusedPredFilter{{Float: col.T == bat.F32, Col: colBuf, Lo: l, Hi: h}},
		c.lo, c.hi, n, append(wait, c.wait...))
	e.mm.NoteConsumer(col, ev)
	e.mm.NoteConsumer(cand, ev)
	return e.finishBitmapSelection(col.Name, bm, sp, n, ev)
}

// rangeKeys collapses a range predicate over col to the inclusive interval of
// integer keys the selection kernels test; ok is false when it is empty.
func rangeKeys(col *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (l, h int32, ok bool, err error) {
	switch col.T {
	case bat.I32:
		l, h, ok = kernels.I32RangeBounds(lo, hi, loIncl, hiIncl)
	case bat.F32:
		fl, fh := f32Bounds(lo, hi)
		l, h, ok = kernels.F32RangeBounds(fl, fh, loIncl, hiIncl)
	default:
		err = fmt.Errorf("core: select on %v column %q", col.T, col.Name)
	}
	return l, h, ok, err
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
	c, err := e.selectionCandidate(cand, n)
	if err != nil {
		return nil, err
	}
	if c.list != nil {
		return e.selectCmpOnList(a, b, cmp, cand)
	}
	ab, waitA, err := e.valuesOf(a)
	if err != nil {
		return nil, err
	}
	bb, waitB, err := e.valuesOf(b)
	if err != nil {
		return nil, err
	}
	bm, sp, err := e.bitmapScratch(n)
	if err != nil {
		return nil, err
	}
	ev := kernels.Select(e.q, bm, c.bm, sp, []kernels.FusedPredFilter{{IsCmp: true, Float: a.T == bat.F32, Col: ab, Other: bb, Cmp: cmp}},
		c.lo, c.hi, n, append(append(waitA, waitB...), c.wait...))
	e.mm.NoteConsumer(a, ev)
	e.mm.NoteConsumer(b, ev)
	e.mm.NoteConsumer(cand, ev)
	return e.finishBitmapSelection(a.Name, bm, sp, n, ev)
}

// selectCmpOnList compares over a materialised candidate list: both columns
// are projected through the list, the projections compared with no
// candidate, and the surviving positions mapped back through the list.
func (e *Engine) selectCmpOnList(a, b *bat.BAT, cmp ops.Cmp, cand *bat.BAT) (*bat.BAT, error) {
	pa, err := e.Project(cand, a)
	if err != nil {
		return nil, err
	}
	defer e.Release(pa)
	pb, err := e.Project(cand, b)
	if err != nil {
		return nil, err
	}
	defer e.Release(pb)
	sel, err := e.SelectCmp(pa, pb, cmp, nil)
	if err != nil {
		return nil, err
	}
	defer e.Release(sel)
	res, err := e.Project(sel, cand)
	if err != nil {
		return nil, err
	}
	res.Props.Sorted, res.Props.Key = cand.Props.Sorted, cand.Props.Key
	return res, nil
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
		bm, sp, err := e.bitmapScratch(da)
		if err != nil {
			return nil, err
		}
		ev := kernels.BitmapOr(e.q, bm, ba, bb, sp, da, append(waitA, waitB...))
		e.mm.NoteConsumer(a, ev)
		e.mm.NoteConsumer(b, ev)
		return e.finishBitmapSelection("union", bm, sp, da, ev)
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

// selCand is the candidate argument of a bitmap-producing kernel: the rows
// [lo, hi) — all of them unless the candidate is a dense (VOID) sub-range,
// which the kernel renders as mask arithmetic — ANDed with the candidate
// bitmap bm when there is one; or, for the gather path, a materialised list.
type selCand struct {
	bm     *cl.Buffer
	lo, hi int
	wait   []*cl.Event
	list   *candidate
}

func (e *Engine) selectionCandidate(cand *bat.BAT, n int) (selCand, error) {
	switch {
	case cand == nil:
		return selCand{hi: n}, nil
	case cand.T == bat.Void:
		return selCand{lo: int(cand.Seq), hi: int(cand.Seq) + cand.Len()}, nil
	}
	if domain, isBM := e.mm.IsBitmap(cand); isBM {
		if domain != n {
			return selCand{}, fmt.Errorf("core: candidate bitmap domain %d does not match column length %d", domain, n)
		}
		buf, _, w, err := e.mm.BitmapForRead(cand)
		return selCand{bm: buf, hi: n, wait: w}, err
	}
	c, err := e.resolveCand(cand, n)
	return selCand{list: &c}, err
}

// selectOnList evaluates a range predicate over a materialised candidate
// list: gather → bitmap over list positions → materialise → map back to
// input oids.
func (e *Engine) selectOnList(col *bat.BAT, c *candidate, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	l, h, ok, err := rangeKeys(col, lo, hi, loIncl, hiIncl)
	if err != nil {
		return nil, err
	}
	if !ok {
		return e.emptySelection(col.Name)
	}
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, err
	}
	m := c.n
	gathered, err := e.mm.Alloc((m + 1) * 4)
	if err != nil {
		return nil, err
	}
	bm, sp, err := e.bitmapScratch(m)
	if err != nil {
		_ = gathered.Release()
		return nil, err
	}
	gev := kernels.Gather(e.q, gathered, colBuf, c.buf, m, append(wait, c.wait...))
	e.mm.NoteConsumer(col, gev)
	e.mm.NoteConsumer(cand, gev)
	sev := kernels.Select(e.q, bm, nil, sp, []kernels.FusedPredFilter{{Float: col.T == bat.F32, Col: gathered, Lo: l, Hi: h}},
		0, m, m, []*cl.Event{gev})
	e.releaseAfter(sev, gathered)

	// Count, materialise positions within the list, then map back to the
	// original oids with a second gather.
	count, err := e.countAndRelease(sp, sev)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	positions, err := e.mm.Alloc((count + 1) * 4)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	sp, err = e.spine()
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

// bitmapScratch allocates what every bitmap-producing kernel writes: the
// bitmap over n rows and the per-item population counts beside it.
func (e *Engine) bitmapScratch(n int) (bm, sp *cl.Buffer, err error) {
	if bm, err = e.mm.Alloc(kernels.BitmapWords(n) * 4); err != nil {
		return nil, nil, err
	}
	if sp, err = e.spine(); err != nil {
		_ = bm.Release()
		return nil, nil, err
	}
	return bm, sp, nil
}

// finishBitmapSelection reads the count the bitmap's producer ev folded into
// sp, builds the result BAT and binds the bitmap payload.
func (e *Engine) finishBitmapSelection(name string, bm, sp *cl.Buffer, n int, ev *cl.Event) (*bat.BAT, error) {
	count, err := e.countAndRelease(sp, ev)
	if err != nil {
		_ = bm.Release()
		return nil, err
	}
	res := bat.NewOcelotOwned(name+"_sel", bat.OID, count)
	res.Props.Sorted, res.Props.Key = true, true
	e.mm.BindBitmap(res, bm, n, ev)
	return res, nil
}

// countAndRelease sums the per-item population counts ev's kernel left in sp
// and reads the total back — the size read every materialising engine needs
// before allocating results — then recycles sp. ev has completed when it
// returns, with or without an error.
func (e *Engine) countAndRelease(sp *cl.Buffer, ev *cl.Event) (int, error) {
	total, err := e.mm.Alloc(4)
	if err != nil {
		_ = ev.Wait()
		e.mm.Release(sp)
		return 0, err
	}
	count, err := e.readU32(total, []*cl.Event{kernels.FoldCount(e.q, sp, total, []*cl.Event{ev})})
	// readU32 waited on the fold, so the scratch pair is quiescent and its
	// bytes can be recycled immediately.
	e.mm.Release(sp)
	e.mm.Release(total)
	return int(count), err
}

// emptySelection returns an empty, host-visible candidate list.
func (e *Engine) emptySelection(name string) (*bat.BAT, error) {
	res := bat.New(name+"_sel", bat.OID, 0)
	res.Props.Sorted, res.Props.Key = true, true
	return res, nil
}

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
