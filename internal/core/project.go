package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/core/kernels"
)

// Project is Ocelot's left fetch join (§4.1.2): "since the tuple IDs
// directly identify the join partner, it can be implemented by directly
// fetching the projected values from the column", via the parallel gather
// primitive. Bitmap candidates are first materialised into tuple-id lists
// (transparently, through the Memory Manager — §4.1.1).
func (e *Engine) Project(cand, col *bat.BAT) (*bat.BAT, error) {
	c, err := e.resolveCand(cand, col.Len())
	if err != nil {
		return nil, err
	}
	n := c.n
	resType := col.T
	if resType == bat.Void {
		resType = bat.OID
	}
	name := col.Name + "_prj"

	// Dense candidate over a Void column: still dense.
	if c.dense && col.T == bat.Void {
		res := bat.NewVoid(name, col.Seq+c.seq, n)
		return res, nil
	}

	out, err := e.mm.Alloc((n + 1) * 4)
	if err != nil {
		return nil, err
	}
	res := bat.NewOcelotOwned(name, resType, n)

	if c.dense {
		if int(c.seq)+n > col.Len() {
			_ = out.Release()
			return nil, fmt.Errorf("core: dense projection [%d,%d) out of range of %q (%d rows)",
				c.seq, int(c.seq)+n, col.Name, col.Len())
		}
		colBuf, wait, err := e.valuesOf(col)
		if err != nil {
			_ = out.Release()
			return nil, err
		}
		ev := kernels.CopyRange(e.q, out, colBuf, c.seq, n, wait)
		e.mm.NoteConsumer(col, ev)
		res.Props = col.Props
		e.mm.BindValues(res, out, ev)
		return res, nil
	}

	if col.T == bat.Void {
		ev := kernels.GatherShift(e.q, out, c.buf, n, col.Seq, c.wait)
		e.mm.NoteConsumer(cand, ev)
		e.mm.BindValues(res, out, ev)
		return res, nil
	}

	colBuf, wait, err := e.valuesOf(col)
	if err != nil {
		_ = out.Release()
		return nil, err
	}
	ev := kernels.Gather(e.q, out, colBuf, c.buf, n, append(wait, c.wait...))
	e.mm.NoteConsumer(col, ev)
	e.mm.NoteConsumer(cand, ev)
	e.mm.BindValues(res, out, ev)
	return res, nil
}
