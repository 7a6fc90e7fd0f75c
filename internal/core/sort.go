package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
)

// Sort is Ocelot's binary radix sort (§4.1.3, §5.2.7): keys are transformed
// into order-preserving unsigned patterns (handling negatives and floats),
// then sorted in 32/RadixBits stable counting passes. The returned order is
// the permutation; the sorted column is a gather through it.
func (e *Engine) Sort(col *bat.BAT) (*bat.BAT, *bat.BAT, error) {
	n := col.Len()
	if col.T == bat.Void {
		return bat.NewVoid(col.Name+"_sorted", col.Seq, n),
			bat.NewVoid(col.Name+"_order", 0, n), nil
	}
	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		return nil, nil, err
	}

	bits := kernels.RadixBits(e.dev)
	_, _, gsz := kernels.Geometry(e.dev)
	sc := &scratchSet{mm: e.mm}
	keys := sc.alloc(n + 1)
	tmpK := sc.alloc(n + 1)
	tmpV := sc.alloc(n + 1)
	hist := sc.alloc((1<<uint(bits))*gsz + 2)
	perm, permErr := e.mm.Alloc((n + 1) * 4)
	sorted, sortedErr := e.mm.Alloc((n + 1) * 4)
	if sc.err != nil || permErr != nil || sortedErr != nil {
		sc.releaseAll()
		if permErr == nil {
			_ = perm.Release()
		}
		if sortedErr == nil {
			_ = sorted.Release()
		}
		for _, err := range []error{sc.err, permErr, sortedErr} {
			if err != nil {
				return nil, nil, err
			}
		}
	}

	var tev *cl.Event
	switch col.T {
	case bat.I32:
		tev = kernels.TransformI32Keys(e.q, keys, colBuf, n, wait)
	case bat.F32:
		tev = kernels.TransformF32Keys(e.q, keys, colBuf, n, wait)
	case bat.OID:
		// Unsigned values sort directly.
		tev = kernels.CopyRange(e.q, keys, colBuf, 0, n, wait)
	default:
		sc.releaseAll()
		_ = perm.Release()
		_ = sorted.Release()
		return nil, nil, fmt.Errorf("core: sort on %v column %q", col.T, col.Name)
	}
	e.mm.NoteConsumer(col, tev)
	iev := kernels.Iota(e.q, perm, n, 0, nil)
	sev := kernels.SortU32Bits(e.q, keys, perm, tmpK, tmpV, hist, n, bits, 32, append(wait, tev, iev))

	gev := kernels.Gather(e.q, sorted, colBuf, perm, n, append(wait, sev))
	e.mm.NoteConsumer(col, gev)
	e.releaseAfter(gev, sc.bufs...)

	order := bat.NewOcelotOwned(col.Name+"_order", bat.OID, n)
	e.mm.BindValues(order, perm, sev)
	e.mm.NoteConsumer(order, gev) // the gather above reads the permutation
	res := bat.NewOcelotOwned(col.Name+"_sorted", col.T, n)
	res.Props.Sorted = true
	e.mm.BindValues(res, sorted, gev)
	return res, order, nil
}
