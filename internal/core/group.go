package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
)

// Group assigns dense group ids to col (§4.1.6). Sorted inputs take the
// boundary-flag + prefix-sum path. Unsorted inputs are measured once
// (measureKeys) and then either sorted into that same path — sparse integer
// keys with too many distinct values for a cache-resident table,
// kernels.SortGroupBits — or given ids by look-ups through the slots of a
// hash table. Multi-column grouping refines a previous grouping by keying on
// the (value, previous id) pair — the recursive combined-id scheme of §4.1.6.
// A refinement the rule would sort, of previous ids measured non-decreasing in
// short runs, is numbered inside its runs instead (kernels.GroupByRuns), to
// the same ids.
func (e *Engine) Group(col, grp *bat.BAT, ngrp int) (*bat.BAT, int, error) {
	return e.group(col, grp, ngrp, nil)
}

// group is Group over keys whose measurement is given, when measured is not
// nil — a grouped region the rule refused hands on what it measured.
func (e *Engine) group(col, grp *bat.BAT, ngrp int, measured *kernels.KeySpace) (*bat.BAT, int, error) {
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
	var ks kernels.KeySpace
	if measured != nil {
		ks = *measured
	} else if ks, err = e.measureKeys(colBuf, prevBuf, ngrp, n, orderedKeys(col), wait); err != nil {
		return nil, 0, err
	}
	var gids *cl.Buffer
	var gev *cl.Event
	var ngroups int
	switch {
	case kernels.SortGroupBits(e.dev, n, ks.Range(), ks.Distinct) == 0:
		gids, gev, ngroups, err = e.groupBySlots(col.Name, colBuf, prevBuf, ks, n, wait)
	case ks.Runs:
		gids, gev, ngroups, err = e.groupByRuns(colBuf, prevBuf, n, wait)
	default:
		gids, gev, ngroups, err = e.groupBySort(colBuf, prevBuf, ks, n, wait)
	}
	if err != nil {
		return nil, 0, err
	}
	e.mm.NoteConsumer(col, gev)
	if grp != nil {
		e.mm.NoteConsumer(grp, gev)
	}
	res := bat.NewOcelotOwned(col.Name+"_grp", bat.I32, n)
	e.mm.BindValues(res, gids, gev)
	return res, ngroups, nil
}

// groupBySlots is the table path: grouping needs the table's slots and the
// per-row dense ids looked up through them — exactly the grouping result —
// and never its buckets.
func (e *Engine) groupBySlots(name string, colBuf, prev *cl.Buffer, ks kernels.KeySpace, n int, wait []*cl.Event) (*cl.Buffer, *cl.Event, int, error) {
	ht, err := e.slotsFor(name, ks, colBuf, prev, n, wait)
	if err != nil {
		return nil, nil, 0, err
	}
	gids, gev, err := ht.lookupGids(colBuf, prev, nil)
	if err != nil {
		ht.release()
		return nil, nil, 0, err
	}
	e.releaseAfter(gev, ht.buffers()...)
	return gids, gev, ht.ndistinct, nil
}

// groupBySort is the sort path (kernels.GroupBySort): ids in composite-key
// order, the same on every device and thread count. Its scratch — four
// n-word buffers and the histogram — stays below the hashed table's.
func (e *Engine) groupBySort(colBuf, prev *cl.Buffer, ks kernels.KeySpace, n int, wait []*cl.Event) (*cl.Buffer, *cl.Event, int, error) {
	sc := &scratchSet{mm: e.mm}
	s := kernels.GroupSortScratch{
		K0: sc.alloc(n + 1), V0: sc.alloc(n + 1), K1: sc.alloc(n + 1), V1: sc.alloc(n + 1),
		Hist: sc.alloc(kernels.SortHistWords(e.dev) + 1), Spine: sc.alloc(spineWords(e.dev)), Total: sc.alloc(1),
	}
	ids := sc.alloc(n + 1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, nil, 0, sc.err
	}
	scanned, done := kernels.GroupBySort(e.q, ids, colBuf, prev, ks, s, n, wait)
	boundaries, err := e.readU32(s.Total, []*cl.Event{scanned})
	if err != nil {
		sc.releaseAll()
		return nil, nil, 0, err
	}
	e.releaseAfter(done, s.K0, s.V0, s.K1, s.V1, s.Hist, s.Spine, s.Total)
	return ids, done, int(boundaries) + 1, nil
}

// groupByRuns is the run path (kernels.GroupByRuns): the sort path's ids,
// where the previous ids come in short non-decreasing runs, from three
// launches over the rows as they lie.
func (e *Engine) groupByRuns(colBuf, prev *cl.Buffer, n int, wait []*cl.Event) (*cl.Buffer, *cl.Event, int, error) {
	ids, done, groups, err := e.groupByScan(n, func(ids, flags, excl, sp, total *cl.Buffer) (*cl.Event, *cl.Event) {
		return kernels.GroupByRuns(e.q, ids, colBuf, prev, flags, excl, sp, total, n, wait)
	})
	return ids, done, int(groups), err
}

// groupSorted implements the sorted path: boundary flags, scan, ids.
func (e *Engine) groupSorted(col *bat.BAT, n int) (*bat.BAT, int, error) {
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, 0, err
	}
	ids, iev, boundaries, err := e.groupByScan(n, func(ids, flags, excl, sp, total *cl.Buffer) (*cl.Event, *cl.Event) {
		fev := kernels.GroupBoundaryFlags(e.q, flags, colBuf, n, wait)
		e.mm.NoteConsumer(col, fev)
		sev := kernels.PrefixSum(e.q, excl, flags, sp, total, n, []*cl.Event{fev})
		return sev, kernels.GroupIDsFromScan(e.q, ids, excl, flags, n, []*cl.Event{sev})
	})
	if err != nil {
		return nil, 0, err
	}
	res := bat.NewOcelotOwned(col.Name+"_grp", bat.I32, n)
	res.Props.Sorted = true // ids are non-decreasing on sorted input
	e.mm.BindValues(res, ids, iev)
	return res, int(boundaries) + 1, nil
}

// groupByScan is what the sorted and the run path share: it allocates the
// ids and the scratch of a flag per row, the flags' exclusive scan, scan
// partials and total; enqueue chains the path's kernels over them, and the
// total is read back once scanned has landed.
func (e *Engine) groupByScan(n int, enqueue func(ids, flags, excl, sp, total *cl.Buffer) (scanned, done *cl.Event)) (*cl.Buffer, *cl.Event, uint32, error) {
	sc := &scratchSet{mm: e.mm}
	flags, excl, sp, total := sc.alloc(n+1), sc.alloc(n+1), sc.alloc(spineWords(e.dev)), sc.alloc(1)
	ids := sc.alloc(n + 1)
	if sc.err != nil {
		sc.releaseAll()
		return nil, nil, 0, sc.err
	}
	scanned, done := enqueue(ids, flags, excl, sp, total)
	count, err := e.readU32(total, []*cl.Event{scanned})
	if err != nil {
		sc.releaseAll()
		return nil, nil, 0, err
	}
	e.releaseAfter(done, flags, excl, sp, total)
	return ids, done, count, nil
}

func newOwnedEmptyGroups(name string) *bat.BAT {
	b := bat.New(name+"_grp", bat.I32, 0)
	b.Props.Sorted = true
	return b
}
