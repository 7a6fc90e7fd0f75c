// consumernote cases: a function that obtains a BAT's device buffer for
// reading must note a consumer event on that BAT, be a read accessor itself,
// or carry a //lint:transfer marker.
package core

type BAT struct{ Name string }
type Buf struct{}
type Event struct{}

type MM struct{}

func (m *MM) ValuesForRead(b *BAT) (*Buf, []*Event, error)      { return nil, nil, nil }
func (m *MM) BitmapForRead(b *BAT) (*Buf, int, []*Event, error) { return nil, 0, nil, nil }
func (m *MM) NoteConsumer(b *BAT, ev *Event)                    {}

type Engine struct{ mm *MM }

type filter struct{ Col, Other *BAT }

func kernel(bufs ...*Buf) *Event { return nil }
func wait(ev *Event)             {}

// valuesOf is a read accessor: the obligation travels with the buffer.
func (e *Engine) valuesOf(b *BAT) (*Buf, []*Event, error) {
	return e.mm.ValuesForRead(b)
}

func (e *Engine) forgets(col *BAT) {
	buf, _, _ := e.valuesOf(col) // want `forgets obtains the device buffer of col but never notes a consumer on it`
	kernel(buf)
}

func (e *Engine) notesTheWrongOne(col, cand *BAT) {
	cb, _, _ := e.valuesOf(col)
	bm, _, _, _ := e.mm.BitmapForRead(cand) // want `notesTheWrongOne obtains the device buffer of cand but never notes`
	ev := kernel(cb, bm)
	e.mm.NoteConsumer(col, ev)
}

func (e *Engine) notes(col, cand *BAT) {
	cb, _, _ := e.valuesOf(col)
	bm, _, _, _ := e.mm.BitmapForRead(cand)
	ev := kernel(cb, bm)
	e.mm.NoteConsumer(col, ev)
	e.mm.NoteConsumer(cand, ev)
}

// notesInAnotherLoop matches the BAT by expression text, not by position.
func (e *Engine) notesInAnotherLoop(fs []filter) {
	var bufs []*Buf
	for _, f := range fs {
		buf, _, _ := e.valuesOf(f.Col)
		bufs = append(bufs, buf)
	}
	ev := kernel(bufs...)
	for _, f := range fs {
		e.mm.NoteConsumer(f.Col, ev)
	}
}

func (e *Engine) notesOnlyHalf(fs []filter) {
	var bufs []*Buf
	for _, f := range fs {
		a, _, _ := e.valuesOf(f.Col)
		b, _, _ := e.valuesOf(f.Other) // want `notesOnlyHalf obtains the device buffer of f.Other but never notes`
		bufs = append(bufs, a, b)
	}
	ev := kernel(bufs...)
	for _, f := range fs {
		e.mm.NoteConsumer(f.Col, ev)
	}
}

func (e *Engine) waitsItOut(b *BAT) {
	//lint:transfer the read is waited for before returning
	buf, _, _ := e.valuesOf(b)
	wait(kernel(buf))
}

func (e *Engine) noBAT() {
	_, _, _ = e.valuesOf(nil) // no BAT, nothing to note
}
