package kernels

import (
	"repro/internal/cl"
	"repro/internal/ops"
)

// Grouped aggregation keeps the paper's hierarchical shape (§4.1.7) —
// "work-groups are scheduled on disjunct data partitions and build
// intermediate aggregation tables […]; afterwards one thread per group
// combines the intermediates" — but makes every intermediate table private
// to one partition, so it needs neither atomics nor a barrier. The paper
// spreads a group's updates over several accumulators "inversely
// proportional to the number of groups" because same-address atomics
// serialise; a private row per partition is that rule taken to its end.
// Only when the partials table would outgrow the input itself (tens of
// thousands of groups, where two rows rarely meet on an address anyway) do
// the kernels fall back to a single table of atomics, written straight
// into the result.

// GroupAggScratchWords is the crossover rule, a pure function of (n,
// ngroups): it returns the size of the partition-private partials table
// (ngroups × GroupSumChunksFor words), or 0 — aggregate with atomics straight
// into the result — once that table would exceed the n input rows, where
// initialising and folding it costs more than the contention it avoids
// (Ablation A1 is the evidence).
func GroupAggScratchWords(n, ngroups int) int {
	if words := ngroups * GroupSumChunksFor(n, ngroups); words <= n {
		return words
	}
	return 0
}

// GroupedAggI32 enqueues the grouped aggregation of vals (int32, aligned
// with gids) under kind ∈ {Sum, Min, Max}; dst receives one int32 per group.
// A nil vals counts rows (every row adds 1). scratch is the partials table
// of ngroups × GroupSumChunksFor(n, ngroups) words, its previous contents
// ignored; a nil scratch selects the direct-atomic path. Host code sizes it
// with GroupAggScratchWords.
func GroupedAggI32(q *cl.Queue, dst, vals, gids, scratch *cl.Buffer, kind ops.Agg, n, ngroups int, wait []*cl.Event) *cl.Event {
	var v, p []int32
	if vals != nil {
		v = vals.I32()
	}
	if scratch != nil {
		p = scratch.I32()
	}
	// The direct path's row loop, with the kind/nil switch hoisted out of it
	// the way foldRows does for the partials path: a count is one atomic add
	// per row, not an indirect call and a nil test.
	d, g := dst.I32(), gids.I32()
	var direct func(lo, hi, step int)
	switch {
	case v == nil:
		direct = func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				cl.AtomicAddI32(&d[g[i]], 1)
			}
		}
	case kind == ops.Min:
		direct = func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				cl.AtomicMinI32(&d[g[i]], v[i])
			}
		}
	case kind == ops.Max:
		direct = func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				cl.AtomicMaxI32(&d[g[i]], v[i])
			}
		}
	default:
		direct = func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				cl.AtomicAddI32(&d[g[i]], v[i])
			}
		}
	}
	return groupedAgg(q, "groupagg_i32", d, v, g, p, kind, identityI32(kind), direct, n, ngroups, wait)
}

// GroupedAggF32 is the float32 flavour, for kind ∈ {Min, Max} only: float
// sums are order-sensitive and belong to GroupedSumF32.
func GroupedAggF32(q *cl.Queue, dst, vals, gids, scratch *cl.Buffer, kind ops.Agg, n, ngroups int, wait []*cl.Event) *cl.Event {
	var p []float32
	if scratch != nil {
		p = scratch.F32()
	}
	d, v, g := dst.F32(), vals.F32(), gids.I32()
	direct := func(lo, hi, step int) {
		for i := lo; i < hi; i += step {
			cl.AtomicMinF32(&d[g[i]], v[i])
		}
	}
	if kind == ops.Max {
		direct = func(lo, hi, step int) {
			for i := lo; i < hi; i += step {
				cl.AtomicMaxF32(&d[g[i]], v[i])
			}
		}
	}
	return groupedAgg(q, "groupagg_f32", d, v, g, p, kind, identityF32(kind), direct, n, ngroups, wait)
}

// foldRows folds rows [lo, hi) into acc[gid], hoisting the kind switch out of
// the row loop. A nil v adds 1 per row.
func foldRows[T int32 | float32](kind ops.Agg, acc, v []T, g []int32, lo, hi int) {
	switch {
	case v == nil:
		for i := lo; i < hi; i++ {
			acc[g[i]]++
		}
	case kind == ops.Min:
		for i := lo; i < hi; i++ {
			if a := &acc[g[i]]; v[i] < *a {
				*a = v[i]
			}
		}
	case kind == ops.Max:
		for i := lo; i < hi; i++ {
			if a := &acc[g[i]]; v[i] > *a {
				*a = v[i]
			}
		}
	default:
		for i := lo; i < hi; i++ {
			acc[g[i]] += v[i]
		}
	}
}

// groupedAgg is the shape both flavours share. direct folds rows lo, lo+step,
// … below hi into d atomically — the caller's typed row loop.
func groupedAgg[T int32 | float32](q *cl.Queue, name string, d, v []T, g []int32, p []T, kind ops.Agg, id T, direct func(lo, hi, step int), n, ngroups int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	if p == nil {
		// Single table: dst starts at the identity and every row folds into
		// its group's element atomically — no intermediate, no final pass.
		init := q.EnqueueKernel(func(t *cl.Thread) {
			lo, hi, step := t.Span(ngroups)
			for i := lo; i < hi; i += step {
				d[i] = id
			}
		}, launch(dev, name+"_init", cl.Cost{BytesStreamed: int64(ngroups) * 4}, wait))
		return q.EnqueueKernel(func(t *cl.Thread) {
			direct(t.Span(n))
		}, launch(dev, name+"_direct", cl.Cost{
			BytesStreamed: int64(n) * 8, Atomics: int64(n), AtomicTargets: int64(ngroups),
		}, []*cl.Event{init}))
	}

	// Partition-private partials: chunk c owns row c of the table (chunk-
	// major, so a chunk's accumulators are contiguous), initialises it and
	// folds its contiguous rows into it.
	chunks := GroupSumChunksFor(n, ngroups)
	chunkLen := (n + chunks - 1) / chunks
	tbl := ngroups * chunks
	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		for c := t.Global; c < chunks; c += t.GlobalSize {
			row := p[c*ngroups : (c+1)*ngroups]
			for i := range row {
				row[i] = id
			}
			foldRows(kind, row, v, g, min(c*chunkLen, n), min((c+1)*chunkLen, n))
		}
	}, launch(dev, name+"_partials",
		// As GroupedSumF32: vals and gids stream, the per-row read-modify-
		// write of the private accumulator is a data-dependent scatter.
		cl.Cost{BytesStreamed: int64(n)*8 + int64(tbl)*4, BytesRandom: int64(n) * 8, Ops: int64(n)}, wait))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(ngroups)
		for grp := lo; grp < hi; grp += step {
			acc := id
			for c := 0; c < chunks; c++ {
				acc = fold(kind, acc, p[c*ngroups+grp])
			}
			d[grp] = acc
		}
	}, launch(dev, name+"_final",
		cl.Cost{BytesStreamed: int64(tbl) * 4, Ops: int64(tbl)}, []*cl.Event{ev1}))
}

// DivF32I32 enqueues dst[i] = a[i] / float32(cnt[i]) (0 when cnt[i]==0) —
// the Avg finalisation over per-group sums and counts.
func DivF32I32(q *cl.Queue, dst, a, cnt *cl.Buffer, n int, wait []*cl.Event) *cl.Event {
	d, av, cv := dst.F32(), a.F32(), cnt.I32()
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(n)
		for i := lo; i < hi; i += step {
			if cv[i] != 0 {
				d[i] = av[i] / float32(cv[i])
			} else {
				d[i] = 0
			}
		}
	}, launch(q.Device(), "avg_div", cl.Cost{BytesStreamed: int64(n) * 12}, wait))
}

// GroupSumChunksFor returns the fixed partition width of the grouped float
// sum for n rows over ngroups groups. Like the scalar SumChunks partition
// (reduce.go), it is derived from device-independent quantities only — the
// same (n, ngroups) pair partitions identically on every device — but it
// additionally bounds the partials table (ngroups × chunks words) so many-
// group aggregations do not balloon scratch under device-memory pressure.
// The bound is soft below minGroupSumChunks: chunks are the kernel's only
// parallelism, so high-cardinality groupings keep at least that many even
// though their table then exceeds the budget (a 1M-group sum pays a 64 MB
// table rather than collapsing to a single sequential accumulator thread).
func GroupSumChunksFor(n, ngroups int) int {
	if ngroups < 1 {
		ngroups = 1
	}
	const budgetWords = 1 << 18 // 1 MiB partials target
	chunks := budgetWords / ngroups
	if chunks > SumChunks {
		chunks = SumChunks
	}
	if chunks < minGroupSumChunks {
		chunks = minGroupSumChunks
	}
	return chunks
}

// minGroupSumChunks floors the grouped-sum parallelism. Device-independent
// like SumChunks: the floor must not track any device's compute-unit count
// or the partition (and the result bits) would differ across devices.
const minGroupSumChunks = 16

// GroupedSumF32 enqueues the order-stable grouped float sum: rows are cut
// into a fixed, device-independent partition of contiguous chunks
// (GroupSumChunksFor), each chunk accumulates its rows *sequentially in row
// order* into a private partials row — no atomics, so no scheduling-
// dependent interleaving — and the final pass folds each group's chunk
// partials in ascending chunk order. The fold shape per group (a two-level
// row-order-within-chunk, chunk-order-across tree, NOT the same expression
// as one sequential row-order sum) is a pure function of (n, ngroups), on
// every device and under every launch
// geometry: the bit pattern of a grouped float sum no longer depends on
// where placement runs it, which is what lets hybrid plans move grouped
// aggregations between devices (and N-device configurations agree byte for
// byte). Min/Max and integer sums are order-insensitive; GroupedAggF32/I32
// give them the same partition-private shape without the fixed fold order.
//
// partials must hold ngroups*chunks words; its previous contents are
// ignored (an init pass clears it, so recycled scratch is fine).
func GroupedSumF32(q *cl.Queue, dst, vals, gids, partials *cl.Buffer, n, ngroups, chunks int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	v, g, p, d := vals.F32(), gids.I32(), partials.F32(), dst.F32()
	tbl := ngroups * chunks
	chunkLen := (n + chunks - 1) / chunks

	init := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(tbl)
		for i := lo; i < hi; i += step {
			p[i] = 0
		}
	}, launch(dev, "groupsum_f32_init", cl.Cost{BytesStreamed: int64(tbl) * 4}, wait))

	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		for c := t.Global; c < chunks; c += t.GlobalSize {
			lo := c * chunkLen
			hi := lo + chunkLen
			if lo > n {
				lo = n
			}
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				p[int(g[i])*chunks+c] += v[i]
			}
		}
	}, launch(dev, "groupsum_f32_partials",
		// vals and gids stream; the per-row read-modify-write of the group's
		// partial is a data-dependent scatter (like Gather's BytesRandom) —
		// the table access cost the atomic scheme expressed as Atomics.
		cl.Cost{BytesStreamed: int64(n) * 8, BytesRandom: int64(n) * 8, Ops: int64(n)},
		[]*cl.Event{init}))

	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(ngroups)
		for grp := lo; grp < hi; grp += step {
			acc := float32(0)
			base := grp * chunks
			for c := 0; c < chunks; c++ {
				acc += p[base+c]
			}
			d[grp] = acc
		}
	}, launch(dev, "groupsum_f32_final",
		cl.Cost{BytesStreamed: int64(tbl) * 4, Ops: int64(tbl)}, []*cl.Event{ev1}))
}
