package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
)

// Group assigns dense group ids to col (§4.1.6). Sorted inputs take the
// boundary-flag + prefix-sum path; unsorted inputs build a hash table and
// assign ids via hash look-ups. Multi-column grouping refines a previous
// grouping by hashing the (value, previous id) pair — the recursive
// combined-id scheme of §4.1.6.
func (e *Engine) Group(col, grp *bat.BAT, ngrp int) (*bat.BAT, int, error) {
	if col.T == bat.Void {
		return nil, 0, fmt.Errorf("core: grouping a void column %q is meaningless", col.Name)
	}
	n := col.Len()
	if grp != nil && grp.Len() != n {
		return nil, 0, fmt.Errorf("core: group refinement misaligned: %d vs %d rows", grp.Len(), n)
	}
	if n == 0 {
		return newOwnedEmptyGroups(col.Name), 0, nil
	}

	if col.Props.Sorted && grp == nil {
		return e.groupSorted(col, n)
	}

	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, 0, err
	}
	var prevBuf *cl.Buffer
	if grp != nil {
		var prevWait []*cl.Event
		if prevBuf, prevWait, err = e.valuesOf(grp); err != nil {
			return nil, 0, err
		}
		wait = append(wait, prevWait...)
	}
	// Grouping needs the table's slots and the per-row dense ids looked up
	// through them — exactly the grouping result — and never its buckets.
	ht, err := e.buildSlots(col.Name, colBuf, prevBuf, ngrp, n, orderedKeys(col), wait)
	if err != nil {
		return nil, 0, err
	}
	gids, gev, err := ht.lookupGids(colBuf, prevBuf, nil)
	if err != nil {
		ht.release()
		return nil, 0, err
	}
	e.mm.NoteConsumer(col, gev)
	if grp != nil {
		e.mm.NoteConsumer(grp, gev)
	}
	res := bat.NewOcelotOwned(col.Name+"_grp", bat.I32, n)
	e.mm.BindValues(res, gids, gev)
	e.releaseAfter(gev, ht.buffers()...)
	return res, ht.ndistinct, nil
}

// groupSorted implements the sorted path: boundary flags, scan, ids.
func (e *Engine) groupSorted(col *bat.BAT, n int) (*bat.BAT, int, error) {
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, 0, err
	}
	sc := &scratchSet{mm: e.mm}
	flags := sc.alloc(n + 1)
	excl := sc.alloc(n + 1)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	ids, err2 := e.mm.Alloc((n + 1) * 4)
	if sc.err != nil || err2 != nil {
		sc.releaseAll()
		if err2 == nil {
			_ = ids.Release()
		}
		if sc.err != nil {
			return nil, 0, sc.err
		}
		return nil, 0, err2
	}
	fev := kernels.GroupBoundaryFlags(e.q, flags, colBuf, nil, n, wait)
	e.mm.NoteConsumer(col, fev)
	sev := kernels.PrefixSum(e.q, excl, flags, sp, total, n, []*cl.Event{fev})
	iev := kernels.GroupIDsFromScan(e.q, ids, excl, flags, n, []*cl.Event{sev})
	boundaries, err := e.readU32(total, []*cl.Event{sev})
	if err != nil {
		sc.releaseAll()
		_ = ids.Release()
		return nil, 0, err
	}
	e.releaseAfter(iev, sc.bufs...)

	res := bat.NewOcelotOwned(col.Name+"_grp", bat.I32, n)
	res.Props.Sorted = true // ids are non-decreasing on sorted input
	e.mm.BindValues(res, ids, iev)
	return res, int(boundaries) + 1, nil
}

func newOwnedEmptyGroups(name string) *bat.BAT {
	b := bat.New(name+"_grp", bat.I32, 0)
	b.Props.Sorted = true
	return b
}
