// Package kernels is Ocelot's hardware-oblivious kernel library: the single
// set of data-parallel primitives every Ocelot operator is composed of
// (§4.1). Each primitive is written once against the kernel programming
// model of internal/cl and runs unchanged on every registered device; all
// device-dependent decisions — launch geometry, memory access pattern —
// derive from the device's build constants, mirroring the paper's injected
// pre-processor constants (§4.2).
//
// Every function here is *host code* in the paper's sense (§3.2): it only
// enqueues kernels and returns events; nothing blocks. Callers chain the
// returned events through wait-lists, which is what gives Ocelot its lazy,
// driver-reorderable execution model (§3.4, Figure 3).
package kernels

import (
	"repro/internal/cl"
)

// Geometry returns the launch geometry of the paper's scheduling rule
// (§4.2): groups = n_c, local = 4·n_a, so gsz = 4·n_c·n_a work-items.
func Geometry(dev *cl.Device) (groups, local, gsz int) {
	groups, local = cl.DefaultLaunch(dev)
	return groups, local, groups * local
}

// launch builds a Launch descriptor for a kernel whose loop covers n
// elements of work: Geometry's work-items, in as few work-groups as the work
// asks for (cl.WorkLaunch). A kernel that walks a bitmap a word at a time but
// handles its rows one by one counts rows, and the nested loop join counts
// row pairs.
func launch(dev *cl.Device, name string, n int, cost cl.Cost, wait []*cl.Event) cl.Launch {
	g, l := cl.WorkLaunch(dev, n)
	return cl.Launch{Name: name, Groups: g, Local: l, Cost: cost, Wait: wait}
}

// oneItem builds the Launch descriptor of a kernel that one work-item runs
// alone — a fold or scan of per-item partials. A one-group launch that is
// ready at enqueue runs on the enqueuing goroutine, so the step costs no
// hand-off; cost is the launch's footprint on a simulated device.
func oneItem(name string, cost cl.Cost, wait []*cl.Event) cl.Launch {
	return cl.Launch{Name: name, Groups: 1, Local: 1, Cost: cost, Wait: wait}
}

// Fill enqueues a kernel setting every element of dst[:n] to v.
func Fill(q *cl.Queue, dst *cl.Buffer, n int, v uint32, wait []*cl.Event) *cl.Event {
	d := dst.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = v
		}
	}, launch(q.Device(), "fill", n, cl.Cost{BytesStreamed: int64(n) * 4}, wait))
}

// Iota enqueues a kernel writing dst[i] = seq+i for i < n (materialising a
// VOID column on the device).
func Iota(q *cl.Queue, dst *cl.Buffer, n int, seq uint32, wait []*cl.Event) *cl.Event {
	d := dst.U32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			d[i] = seq + uint32(i)
		}
	}, launch(q.Device(), "iota", n, cl.Cost{BytesStreamed: int64(n) * 4}, wait))
}
