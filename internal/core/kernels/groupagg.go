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
	// the way foldRows does for the partials path: a count is one add per
	// row, not an indirect call and a nil test.
	d, g := dst.I32(), gids.I32()
	var direct func(lo, hi, step int, a, b int32)
	switch {
	case v == nil:
		// Counts, the common case of the direct path, add plainly to the
		// groups no other work-item has.
		direct = func(lo, hi, step int, a, b int32) {
			for i := lo; i < hi; i += step {
				if x := g[i]; a < x && x < b {
					d[x]++
				} else {
					cl.AtomicAddI32(&d[x], 1)
				}
			}
		}
	case kind == ops.Min:
		direct = func(lo, hi, step int, _, _ int32) {
			for i := lo; i < hi; i += step {
				cl.AtomicMinI32(&d[g[i]], v[i])
			}
		}
	case kind == ops.Max:
		direct = func(lo, hi, step int, _, _ int32) {
			for i := lo; i < hi; i += step {
				cl.AtomicMaxI32(&d[g[i]], v[i])
			}
		}
	default:
		direct = func(lo, hi, step int, _, _ int32) {
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
	direct := func(lo, hi, step int, _, _ int32) {
		for i := lo; i < hi; i += step {
			cl.AtomicMinF32(&d[g[i]], v[i])
		}
	}
	if kind == ops.Max {
		direct = func(lo, hi, step int, _, _ int32) {
			for i := lo; i < hi; i += step {
				cl.AtomicMaxF32(&d[g[i]], v[i])
			}
		}
	}
	return groupedAgg(q, "groupagg_f32", d, v, g, p, kind, identityF32(kind), direct, n, ngroups, wait)
}

// foldLanes is the number of chunks one work-item of the partials kernel
// folds in lockstep. With few groups, most rows of a chunk add to the
// accumulator its previous row added to, and wait on that store; chunks fold
// into private rows of their own, so four chunks are four independent chains
// that fill each other's waits. Each chunk still folds its rows in row order:
// the fold shape, and every float sum's bits, is that of one chunk at a time.
// Min and Max stay chunk by chunk: a row stores only when it wins, so their
// rows rarely wait on one another.
const foldLanes = 4

// foldChunks gives chunks c0..c1-1 (at most foldLanes) their private rows of
// the partials table p, initialised to id, and folds each chunk's rows into
// its row: where there are four, in lockstep over the rows all four have,
// then chunk by chunk over the rest.
func foldChunks[T int32 | float32](kind ops.Agg, p, v []T, g []int32, id T, c0, c1, ngroups, chunkLen, n int) {
	var rows [foldLanes][]T
	var lo [foldLanes]int
	common := chunkLen
	if c1-c0 < foldLanes || kind == ops.Min || kind == ops.Max {
		common = 0
	}
	for l := range c1 - c0 {
		c := c0 + l
		rows[l] = p[c*ngroups : (c+1)*ngroups]
		for i := range rows[l] {
			rows[l][i] = id
		}
		lo[l] = min(c*chunkLen, n)
		common = min(common, min(lo[l]+chunkLen, n)-lo[l])
	}
	if common > 0 {
		foldLockstep(rows, v, g, lo, common)
	}
	for l := range c1 - c0 {
		foldRows(kind, rows[l], v, g, lo[l]+common, min(lo[l]+chunkLen, n))
	}
}

// foldLockstep is foldRows under Sum over rows lo[l]..lo[l]+m-1 into acc[l]
// for the four lanes l, one row of each lane a step.
func foldLockstep[T int32 | float32](acc [foldLanes][]T, v []T, g []int32, lo [foldLanes]int, m int) {
	a0, a1, a2, a3 := acc[0], acc[1], acc[2], acc[3]
	g0, g1, g2, g3 := g[lo[0]:lo[0]+m], g[lo[1]:lo[1]+m], g[lo[2]:lo[2]+m], g[lo[3]:lo[3]+m]
	if v == nil {
		for i := range g0 {
			a0[g0[i]]++
			a1[g1[i]]++
			a2[g2[i]]++
			a3[g3[i]]++
		}
		return
	}
	v0, v1, v2, v3 := v[lo[0]:lo[0]+m], v[lo[1]:lo[1]+m], v[lo[2]:lo[2]+m], v[lo[3]:lo[3]+m]
	for i := range g0 {
		a0[g0[i]] += v0[i]
		a1[g1[i]] += v1[i]
		a2[g2[i]] += v2[i]
		a3[g3[i]] += v3[i]
	}
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

// groupedAgg is the shape GroupedAggI32, GroupedAggF32 and GroupedSumF32
// share. direct folds rows lo, lo+step, … below hi into d atomically — the
// caller's typed row loop — or plainly where it may: a row whose id lies in
// (a, b) is one no other work-item has.
func groupedAgg[T int32 | float32](q *cl.Queue, name string, d, v []T, g []int32, p []T, kind ops.Agg, id T, direct func(lo, hi, step int, a, b int32), n, ngroups int, wait []*cl.Event) *cl.Event {
	dev := q.Device()
	if p == nil {
		// Single table: dst starts at the identity and every row folds into
		// its group's element — no intermediate, no final pass. On contiguous
		// spans init also takes each work-item's id range (ownedIDs); on ids
		// that grow with the row, nearly every id is one work-item's alone.
		_, _, gsz := Geometry(dev)
		ranges := make([]int32, 2*gsz)
		init := q.EnqueueKernel(func(t *cl.Thread) {
			lo, hi, step := t.Span(ngroups)
			for i := lo; i < hi; i += step {
				d[i] = id
			}
			if _, _, step = t.Span(n); step == 1 {
				ranges[2*t.Global], ranges[2*t.Global+1] = minMaxI32(g[:n], t)
			}
		}, launch(dev, name+"_init", cl.Cost{BytesStreamed: int64(ngroups) * 4}, wait))
		return q.EnqueueKernel(func(t *cl.Thread) {
			lo, hi, step := t.Span(n)
			a, b := ownedIDs(ranges, t.Global, ngroups, step)
			direct(lo, hi, step, a, b)
		}, launch(dev, name+"_direct", cl.Cost{
			BytesStreamed: int64(n) * 8, Atomics: int64(n), AtomicTargets: int64(ngroups),
		}, []*cl.Event{init}))
	}

	// Partition-private partials: chunk c owns row c of the table (chunk-
	// major, so a chunk's accumulators are contiguous), initialises it and
	// folds its contiguous rows into it. Chunks are the kernel's only
	// parallelism, so every work-group (a core) takes an equal share of
	// them, and its work-items — which run one after another on that core —
	// take foldLanes consecutive chunks of the share at a time.
	chunks := GroupSumChunksFor(n, ngroups)
	chunkLen := (n + chunks - 1) / chunks
	tbl := ngroups * chunks
	ev1 := q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi := t.GroupSpan(chunks)
		for c := lo + foldLanes*t.Local; c < hi; c += foldLanes * t.LocalSize {
			foldChunks(kind, p, v, g, id, c, min(c+foldLanes, hi), ngroups, chunkLen, n)
		}
	}, launch(dev, name+"_partials",
		// vals and gids stream, the per-row read-modify-write of the private
		// accumulator is a data-dependent scatter.
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

// ownedIDs is the range (a, b) of ids work-item w alone holds, from each
// work-item's smallest and largest id in ranges: above every earlier one's
// largest, below every later one's smallest. Strided spans own nothing.
func ownedIDs(ranges []int32, w, ngroups, step int) (a, b int32) {
	if step != 1 {
		return 0, 0
	}
	a, b = -1, int32(ngroups)
	for j := 0; j < len(ranges)/2; j++ {
		if j < w {
			a = max(a, ranges[2*j+1])
		} else if j > w {
			b = min(b, ranges[2*j])
		}
	}
	return a, b
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

// GroupedSumF32 enqueues the order-stable grouped float sum, groupedAgg's
// partials path under Sum: each chunk of a fixed, device-independent
// partition (GroupSumChunksFor) folds its rows in row order into a private
// row, and the final pass folds each group's chunk partials in ascending
// chunk order. The fold shape — NOT that of one sequential row-order sum — is
// a pure function of (n, ngroups) on every device and launch geometry, so
// placement can move a grouped float sum between devices without changing
// its bits (and the hybrid agrees with either device byte for byte).
//
// partials must hold ngroups*GroupSumChunksFor(n, ngroups) words; its
// previous contents are ignored (each chunk initialises its own row, so
// recycled scratch is fine).
func GroupedSumF32(q *cl.Queue, dst, vals, gids, partials *cl.Buffer, n, ngroups int, wait []*cl.Event) *cl.Event {
	return groupedAgg(q, "groupsum_f32", dst.F32(), vals.F32(), gids.I32(), partials.F32(), ops.Sum, 0, nil, n, ngroups, wait)
}
