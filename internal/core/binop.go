package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Binop computes a ⟨op⟩ b element-wise with the map kernels; mixed I32/F32
// inputs are promoted to F32 by a cast kernel.
func (e *Engine) Binop(op ops.Bin, a, b *bat.BAT) (*bat.BAT, error) {
	if a.Len() != b.Len() {
		return nil, fmt.Errorf("core: binop on misaligned columns %q(%d)/%q(%d)",
			a.Name, a.Len(), b.Name, b.Len())
	}
	if err := checkNumeric(a); err != nil {
		return nil, err
	}
	if err := checkNumeric(b); err != nil {
		return nil, err
	}
	n := a.Len()
	name := fmt.Sprintf("(%s%s%s)", a.Name, op, b.Name)
	isFloat := a.T == bat.F32 || b.T == bat.F32

	ab, waitA, err := e.valuesOf(a)
	if err != nil {
		return nil, err
	}
	bb, waitB, err := e.valuesOf(b)
	if err != nil {
		return nil, err
	}
	wait := append(waitA, waitB...)

	var casts []*cl.Buffer
	if isFloat {
		if ab, wait, err = e.promote(a, ab, wait, &casts); err != nil {
			return nil, err
		}
		if bb, wait, err = e.promote(b, bb, wait, &casts); err != nil {
			return nil, err
		}
	}

	out, err := e.mm.Alloc((n + 1) * 4)
	if err != nil {
		return nil, err
	}
	ev := kernels.MapBinop(e.q, out, ab, bb, isFloat, op, n, wait)
	e.mm.NoteConsumer(a, ev)
	e.mm.NoteConsumer(b, ev)
	e.releaseAfter(ev, casts...)

	resType := bat.I32
	if isFloat {
		resType = bat.F32
	}
	res := bat.NewOcelotOwned(name, resType, n)
	e.mm.BindValues(res, out, ev)
	return res, nil
}

// BinopConst computes a ⟨op⟩ c element-wise (or c ⟨op⟩ a when constFirst).
func (e *Engine) BinopConst(op ops.Bin, a *bat.BAT, c float64, constFirst bool) (*bat.BAT, error) {
	if err := checkNumeric(a); err != nil {
		return nil, err
	}
	n := a.Len()
	name := fmt.Sprintf("(%s%s const)", a.Name, op)
	isFloat := !(a.T == bat.I32 && c == float64(int32(c)))

	ab, wait, err := e.valuesOf(a)
	if err != nil {
		return nil, err
	}
	var casts []*cl.Buffer
	if isFloat && a.T == bat.I32 {
		if ab, wait, err = e.promote(a, ab, wait, &casts); err != nil {
			return nil, err
		}
	}
	out, err := e.mm.Alloc((n + 1) * 4)
	if err != nil {
		return nil, err
	}
	ev := kernels.MapBinopConst(e.q, out, ab, isFloat, op, float32(c), int32(c), constFirst, n, wait)
	e.mm.NoteConsumer(a, ev)
	e.releaseAfter(ev, casts...)

	resType := bat.I32
	if isFloat {
		resType = bat.F32
	}
	res := bat.NewOcelotOwned(name, resType, n)
	e.mm.BindValues(res, out, ev)
	return res, nil
}

// promote casts an I32 payload to F32, tracking the transient buffer.
func (e *Engine) promote(b *bat.BAT, buf *cl.Buffer, wait []*cl.Event, casts *[]*cl.Buffer) (*cl.Buffer, []*cl.Event, error) {
	if b.T != bat.I32 {
		return buf, wait, nil
	}
	n := b.Len()
	cast, err := e.mm.Alloc((n + 1) * 4)
	if err != nil {
		return nil, nil, err
	}
	ev := kernels.CastI32F32(e.q, cast, buf, n, wait)
	e.mm.NoteConsumer(b, ev)
	*casts = append(*casts, cast)
	return cast, []*cl.Event{ev}, nil
}

func checkNumeric(b *bat.BAT) error {
	if b.T != bat.I32 && b.T != bat.F32 {
		return fmt.Errorf("core: arithmetic on %v column %q", b.T, b.Name)
	}
	return nil
}
