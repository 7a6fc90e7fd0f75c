// releasepair cases: a scratch acquisition must be released on every path,
// transfer ownership out, or carry a //lint:transfer marker.
package core

type Buf struct{}

func (b *Buf) Release() error { return nil }

type MM struct{ bufs []*Buf }

func (m *MM) Alloc(n int) (*Buf, error)  { return nil, nil }
func (m *MM) Release(b *Buf)             {}
func (m *MM) BindValues(res int, b *Buf) {}

var errFail error

func use(b *Buf) {}

func leaky(m *MM) error {
	b, err := m.Alloc(8) // want `b acquired from Alloc is never released or transferred`
	if err != nil {
		return err
	}
	use(b)
	return nil
}

func earlyReturn(m *MM, fail bool) error {
	b, err := m.Alloc(8)
	if err != nil {
		return err // the acquisition's own failure guard: nothing to release
	}
	use(b)
	if fail {
		return errFail // want `return leaks b \(acquired from Alloc`
	}
	m.Release(b)
	return nil
}

func released(m *MM) error {
	b, err := m.Alloc(8)
	if err != nil {
		return err
	}
	use(b)
	m.Release(b)
	return nil
}

func releasedOnEveryPath(m *MM, fail bool) error {
	b, err := m.Alloc(8)
	if err != nil {
		return err
	}
	use(b)
	if fail {
		m.Release(b)
		return errFail // released just above, on this path
	}
	m.Release(b)
	return nil
}

func deferred(m *MM, fail bool) error {
	b, err := m.Alloc(8)
	if err != nil {
		return err
	}
	defer m.Release(b)
	use(b)
	if fail {
		return errFail // covered by the defer
	}
	return nil
}

func transfers(m *MM) *Buf {
	b, _ := m.Alloc(8)
	return b // ownership moves to the caller
}

func stores(m *MM) {
	b, _ := m.Alloc(8)
	m.bufs = append(m.bufs, b) // escapes into m
}

func binds(m *MM) {
	b, _ := m.Alloc(8)
	m.BindValues(1, b) // Bind* hands the buffer to a result
}

func marked(m *MM) {
	//lint:transfer the engine's completion callback releases it
	b, _ := m.Alloc(8)
	use(b)
}
