// Partition-wise spilling hash join: the beyond-device-memory execution
// path. The in-memory join of join.go assumes the whole multi-stage table
// (§4.1.4) fits the device; when the estimated footprint of a join exceeds
// the device budget, the engine instead partitions build and probe sides by
// an independent hash, joins partition pairs on the device one wave at a
// time — the hottest partitions share the device simultaneously, the rest
// wait in host memory — and recursively repartitions oversized (skewed)
// partitions. Results are merged on the host in global probe order, so the
// output is byte-identical to the in-memory join whenever the in-memory join
// is itself deterministic (unique build keys: every TPC-H join). The merged
// result is host-resident — the join's output is exactly the state that
// spilled — and downstream operators re-upload it like any base BAT.
//
// The partition hash must be independent of the slot hashing the table
// kernels use (kernels/hash.go): partitioning by the same function would
// concentrate each partition's keys on a fraction of the slots and cripple
// the per-partition builds. A murmur3-style finalizer, re-seeded per
// recursion level, provides the independence.
package core

import (
	"errors"
	"sort"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/mem"
)

const (
	// spillHeadroom scales the free device capacity into the join budget:
	// the pressure protocol needs slack for the operator's own scratch.
	spillHeadroomNum = 3
	spillHeadroomDen = 4
	// spillMaxFanout caps the partitions produced per recursion level.
	spillMaxFanout = 256
	// spillMaxDepth caps recursive repartitioning: a partition still over
	// budget at the bottom (pathological skew: one key repeated) runs
	// anyway and leans on the Memory Manager's evict/offload protocol.
	spillMaxDepth = 4
	// spillMinRows is the build-side size below which partitioning is never
	// worth it — the table fits comfortably or the pressure protocol copes.
	spillMinRows = 1024
	// spillMinBudget floors the automatic budget so a device whose capacity
	// is fully booked by resident state still partitions (finely) instead of
	// degenerating to zero-byte waves.
	spillMinBudget = 1 << 20
)

// SetSpillBudget overrides the device budget the join planner compares
// footprints against: >0 forces that budget in bytes (tests, tools), 0
// restores the automatic budget (free device capacity with headroom), <0
// disables partition-wise execution entirely.
func (e *Engine) SetSpillBudget(b int64) { e.spillBudget.Store(b) }

// SpillStats reports (partition-wise joins run, partition pairs joined,
// bytes of partition state held host-side across them).
func (e *Engine) SpillStats() (joins, partitions, spilledBytes int64) {
	return e.spillJoins.Load(), e.spillParts.Load(), e.spillBytes.Load()
}

// joinBudget returns the byte budget a join's device footprint must fit.
// ok is false when partitioning is disabled or the device is not
// capacity-limited (host memory never spills).
func (e *Engine) joinBudget() (budget int64, ok bool) {
	if !e.dev.Discrete {
		// The CPU driver computes in host memory: there is nothing to
		// spill *to*, so even a forced budget never binds.
		return 0, false
	}
	over := e.spillBudget.Load()
	if over < 0 {
		return 0, false
	}
	if over > 0 {
		return over, true
	}
	if e.dev.GlobalMemSize <= 0 {
		return 0, false
	}
	free := e.dev.GlobalMemSize - e.dev.Allocated()
	b := free * spillHeadroomNum / spillHeadroomDen
	if b < spillMinBudget {
		b = spillMinBudget
	}
	return b, true
}

// joinFootprint estimates the device bytes a hash join of nl probe rows
// against nr build rows occupies at its peak: the multi-stage table (the
// slots under either addressing, kernels.SlotBytes; gids, rowids, starts over
// the build rows), both key columns, and the two-step probe scratch.
func (e *Engine) joinFootprint(nl, nr int) int64 {
	table := kernels.SlotBytes(e.dev, nr) + 12*int64(nr+2)
	probe := 12 * int64(nl+1) // probe keys + counts + offsets
	return table + probe
}

// spillPartHash is the partition hash: a murmur3 finalizer over the key bits
// with a per-level seed. Its constants are disjoint from kernels/hash.go's
// multiplicative slot hashing, so a partition's keys still spread uniformly
// over its table's slots.
func spillPartHash(k uint32, level int) uint32 {
	h := k ^ (0x9747B28C + uint32(level)*0x3C6EF372)
	h ^= h >> 16
	h *= 0x85EBCA6B
	h ^= h >> 13
	h *= 0xC2B2AE35
	h ^= h >> 16
	return h
}

// spillTask is one partition pair awaiting a device join: key bits plus the
// global positions they came from (nil = identity, only at the root).
type spillTask struct {
	lk, lpos []uint32
	rk, rpos []uint32
	level    int
	foot     int64

	// per-wave device state (build → probe → merge)
	ht           *devHashTable
	m            int
	hostL, hostR []uint32
	done         *cl.Event
}

// hostKeys reads b's value payload back to the host as raw key bits: the
// zero-copy host heap for base BATs, the materialised oid list for
// bitmap-backed candidates, the offload copy or a device read-back for
// Ocelot-owned intermediates.
func (e *Engine) hostKeys(b *bat.BAT) ([]uint32, error) {
	n := b.Len()
	if _, isBM := e.mm.IsBitmap(b); isBM {
		//lint:transfer read back and waited for right here
		buf, wait, err := e.materializedOIDs(b)
		if err != nil {
			return nil, err
		}
		host := mem.Alloc(n * 4)
		if err := e.q.EnqueueRead(host, buf, wait).Wait(); err != nil {
			return nil, err
		}
		return mem.U32(host), nil
	}
	if !b.OcelotOwned {
		return mem.U32(b.Bytes()[:n*4]), nil
	}
	// Offloaded intermediates already live on the host: partition them there
	// instead of re-uploading just to read them back.
	e.mm.mu.Lock()
	if ent := e.mm.entries[b]; ent != nil && ent.buf == nil && len(ent.offload) >= n*4 {
		off := ent.offload
		e.mm.mu.Unlock()
		return mem.U32(off[:n*4]), nil
	}
	e.mm.mu.Unlock()
	//lint:transfer read back and waited for right here
	buf, wait, err := e.mm.ValuesForRead(b)
	if err != nil {
		return nil, err
	}
	host := mem.Alloc(n * 4)
	if err := e.q.EnqueueRead(host, buf, wait).Wait(); err != nil {
		return nil, err
	}
	return mem.U32(host), nil
}

// partitionSpill splits keys (with their global positions) into p buckets of
// the level hash. A nil pos means identity. The pass is a sequential host
// scan, so within each bucket the original order — and therefore the global
// probe order the merge restores — is preserved.
func partitionSpill(keys, pos []uint32, level int, p uint32) (outK, outP [][]uint32) {
	counts := make([]uint32, p)
	for _, k := range keys {
		counts[spillPartHash(k, level)&(p-1)]++
	}
	outK = make([][]uint32, p)
	outP = make([][]uint32, p)
	for i := uint32(0); i < p; i++ {
		if counts[i] > 0 {
			outK[i] = make([]uint32, 0, counts[i])
			outP[i] = make([]uint32, 0, counts[i])
		}
	}
	for i, k := range keys {
		b := spillPartHash(k, level) & (p - 1)
		g := uint32(i)
		if pos != nil {
			g = pos[i]
		}
		outK[b] = append(outK[b], k)
		outP[b] = append(outP[b], g)
	}
	return outK, outP
}

// nextPow2 rounds up to a power of two (≥1).
func nextPow2(x int64) int64 {
	p := int64(1)
	for p < x {
		p <<= 1
	}
	return p
}

// spillLeaves recursively partitions a task until every leaf fits the budget
// (or the depth cap is hit) and appends the non-empty leaves to out.
func (e *Engine) spillLeaves(t *spillTask, budget int64, out []*spillTask, spilled *int64) []*spillTask {
	t.foot = e.joinFootprint(len(t.lk), len(t.rk))
	if len(t.lk) == 0 || len(t.rk) == 0 {
		return out // no matches can come from an empty side
	}
	if t.foot <= budget || t.level >= spillMaxDepth || len(t.rk) < spillMinRows {
		return append(out, t)
	}
	p := nextPow2((t.foot + budget - 1) / budget)
	if p < 2 {
		p = 2
	}
	if p > spillMaxFanout {
		p = spillMaxFanout
	}
	lks, lps := partitionSpill(t.lk, t.lpos, t.level, uint32(p))
	rks, rps := partitionSpill(t.rk, t.rpos, t.level, uint32(p))
	*spilled += 8 * int64(len(t.lk)+len(t.rk))
	for i := int64(0); i < p; i++ {
		out = e.spillLeaves(&spillTask{
			lk: lks[i], lpos: lps[i], rk: rks[i], rpos: rps[i],
			level: t.level + 1,
		}, budget, out, spilled)
	}
	return out
}

// packWaves orders leaves hottest-first (largest probe side) and greedily
// packs them into waves whose summed footprint fits the budget: every leaf
// of a wave keeps its table device-resident while the whole wave probes —
// the "hottest partitions stay resident" half of a hybrid hash join — and
// the remaining waves wait in host memory.
func packWaves(leaves []*spillTask, budget int64) [][]*spillTask {
	order := make([]*spillTask, len(leaves))
	copy(order, leaves)
	sort.SliceStable(order, func(i, j int) bool { return len(order[i].lk) > len(order[j].lk) })
	var waves [][]*spillTask
	var cur []*spillTask
	var used int64
	for _, t := range order {
		if len(cur) > 0 && used+t.foot > budget {
			waves = append(waves, cur)
			cur, used = nil, 0
		}
		cur = append(cur, t)
		used += t.foot
	}
	if len(cur) > 0 {
		waves = append(waves, cur)
	}
	return waves
}

// uploadKeys allocates a device buffer through the pressure protocol and
// writes the keys into it.
func (e *Engine) uploadKeys(keys []uint32) (*cl.Buffer, *cl.Event, error) {
	buf, err := e.mm.Alloc(len(keys) * 4)
	if err != nil {
		return nil, nil, err
	}
	ev := e.q.EnqueueWrite(buf, mem.BytesOfU32(keys), nil)
	return buf, ev, nil
}

// buildLeaf builds the partition's hash table from an uploaded key buffer,
// up to the stage its probe needs — buckets for a join, slots for an
// existence probe — and releases the keys after that last stage. ordered is
// buildSlots' (orderedKeys of the build column).
func (e *Engine) buildLeaf(t *spillTask, buckets, ordered bool) error {
	rbuf, wev, err := e.uploadKeys(t.rk)
	if err != nil {
		return err
	}
	ht, err := e.buildSlots("spill_part", rbuf, nil, 0, len(t.rk), ordered, []*cl.Event{wev})
	if err != nil {
		_ = rbuf.Release()
		return err
	}
	last := ht.slots
	if buckets {
		if err := ht.ensureBuckets(rbuf, nil); err != nil {
			ht.release()
			_ = rbuf.Release()
			return err
		}
		last = ht.buckets
	}
	e.releaseAfter(last, rbuf)
	t.ht = ht
	return nil
}

// probeLeaf runs the two-step probe of join.go against the leaf's table and
// enqueues the pair read-backs; t.done completes when the host copies are
// valid. Always the generic two-step path — for unique build keys each count
// is 0/1, so the merged output matches the in-memory direct path bit for
// bit.
func (e *Engine) probeLeaf(t *spillTask) error {
	n := len(t.lk)
	lbuf, wev, err := e.uploadKeys(t.lk)
	if err != nil {
		return err
	}
	h := t.ht
	sc := &scratchSet{mm: e.mm}
	counts := sc.alloc(n + 1)
	offsets := sc.alloc(n + 1)
	sp := sc.alloc(spineWords(e.dev))
	total := sc.alloc(1)
	if sc.err != nil {
		sc.releaseAll()
		_ = lbuf.Release()
		return sc.err
	}
	cev := kernels.JoinProbeCount(e.q, counts, h.tab, h.starts, lbuf, n, []*cl.Event{wev, h.buckets})
	sev := kernels.PrefixSum(e.q, offsets, counts, sp, total, n, []*cl.Event{cev})
	m32, err := e.readU32(total, []*cl.Event{sev})
	if err != nil {
		sc.releaseAll()
		_ = lbuf.Release()
		return err
	}
	t.m = int(m32)

	outL, err := e.mm.Alloc((t.m + 1) * 4)
	if err != nil {
		sc.releaseAll()
		_ = lbuf.Release()
		return err
	}
	outR, err := e.mm.Alloc((t.m + 1) * 4)
	if err != nil {
		_ = outL.Release()
		sc.releaseAll()
		_ = lbuf.Release()
		return err
	}
	wev2 := kernels.JoinProbeWrite(e.q, outL, outR, offsets, h.tab, h.starts, h.rowids, lbuf, n, []*cl.Event{sev})

	t.hostL = mem.AllocU32(t.m)
	t.hostR = mem.AllocU32(t.m)
	var reads []*cl.Event
	if t.m > 0 {
		rl := e.q.EnqueueRead(mem.BytesOfU32(t.hostL), outL, []*cl.Event{wev2})
		rr := e.q.EnqueueRead(mem.BytesOfU32(t.hostR), outR, []*cl.Event{wev2})
		reads = []*cl.Event{rl, rr}
	} else {
		reads = []*cl.Event{wev2}
	}
	t.done = e.q.EnqueueMarker(reads)
	e.releaseAfter(t.done, append(sc.bufs, lbuf, outL, outR)...)
	return nil
}

// partitionedJoin is the spilling equi-join. It mirrors Engine.Join's
// result contract (aligned OID candidate lists, probe side sorted) but
// returns host-resident BATs: the join's output is precisely the data that
// no longer fits the device.
func (e *Engine) partitionedJoin(l, r *bat.BAT, budget int64) (*bat.BAT, *bat.BAT, error) {
	lk, err := e.hostKeys(l)
	if err != nil {
		return nil, nil, err
	}
	rk, err := e.hostKeys(r)
	if err != nil {
		return nil, nil, err
	}
	nl, nr := len(lk), len(rk)

	var spilled int64
	leaves := e.spillLeaves(&spillTask{lk: lk, rk: rk}, budget, nil, &spilled)
	e.spillJoins.Add(1)
	e.spillParts.Add(int64(len(leaves)))
	e.spillBytes.Add(spilled)

	counts := make([]uint32, nl+1)
	totalPairs := 0
	ndistinct := 0
	var merged []*spillTask
	for _, wave := range packWaves(leaves, budget) {
		// Phase 1: every table of the wave is built and stays resident.
		for _, t := range wave {
			if err := e.buildLeaf(t, true, orderedKeys(r)); err != nil {
				e.releaseWave(wave)
				return nil, nil, err
			}
		}
		// Phase 2: probes run against the co-resident tables.
		for _, t := range wave {
			if err := e.probeLeaf(t); err != nil {
				e.releaseWave(wave)
				return nil, nil, err
			}
		}
		// Phase 3: collect the pair read-backs, drop the wave's tables.
		for _, t := range wave {
			if err := t.done.Wait(); err != nil {
				e.releaseWave(wave)
				return nil, nil, err
			}
			ndistinct += t.ht.ndistinct
			t.ht.release()
			t.ht = nil
			for _, li := range t.hostL {
				g := li
				if t.lpos != nil {
					g = t.lpos[li]
				}
				counts[g]++
			}
			merged = append(merged, t)
		}
	}

	for i := range counts {
		totalPairs += int(counts[i])
	}
	// Exclusive scan into per-probe-row cursors, then place each leaf's
	// pairs. A probe row lives in exactly one leaf and its matches are
	// contiguous there in bucket order, so sequential placement reproduces
	// the in-memory output order.
	cursors := make([]uint32, nl+1)
	var run uint32
	for i := 0; i <= nl; i++ {
		cursors[i] = run
		run += counts[i]
	}
	ol := mem.AllocU32(totalPairs)
	orr := mem.AllocU32(totalPairs)
	for _, t := range merged {
		for k := 0; k < t.m; k++ {
			li, ri := t.hostL[k], t.hostR[k]
			gl, gr := li, ri
			if t.lpos != nil {
				gl = t.lpos[li]
			}
			if t.rpos != nil {
				gr = t.rpos[ri]
			}
			ol[cursors[gl]] = gl
			orr[cursors[gl]] = gr
			cursors[gl]++
		}
	}

	lres := bat.NewOID(l.Name+"_join", ol)
	lres.Props.Sorted = true
	lres.Props.Key = ndistinct == nr // unique build keys: ≤1 match per probe row
	rres := bat.NewOID("build_join", orr)
	return lres, rres, nil
}

// releaseWave drops whatever device state a wave accumulated before a
// failure (error paths; phase 3 releases the success path).
func (e *Engine) releaseWave(wave []*spillTask) {
	for _, t := range wave {
		if t.ht != nil {
			t.ht.release()
			t.ht = nil
		}
	}
}

// partitionedExists is the spilling existence join: a probe row's matches
// can only live in its own partition, so per-partition ExistsProbe verdicts
// (including negation) compose by union. The composed verdicts are written
// back as a device bitmap over l's rows — the exact result shape of the
// in-memory path, byte-identical bits included.
func (e *Engine) partitionedExists(l, r *bat.BAT, negate bool, budget int64) (*bat.BAT, error) {
	lk, err := e.hostKeys(l)
	if err != nil {
		return nil, err
	}
	rk, err := e.hostKeys(r)
	if err != nil {
		return nil, err
	}
	nl := len(lk)

	var spilled int64
	leaves := e.spillLeaves(&spillTask{lk: lk, rk: rk}, budget, nil, &spilled)
	e.spillJoins.Add(1)
	e.spillParts.Add(int64(len(leaves)))
	e.spillBytes.Add(spilled)

	hits := make([]bool, nl)
	if negate {
		// Probe rows whose partition has an empty build side (dropped by
		// spillLeaves) have no match anywhere: they qualify.
		for i := range hits {
			hits[i] = true
		}
	}
	for _, wave := range packWaves(leaves, budget) {
		type probeState struct {
			t    *spillTask
			host []byte
			done *cl.Event
		}
		var probes []probeState
		fail := func(err error) (*bat.BAT, error) {
			e.releaseWave(wave)
			return nil, err
		}
		for _, t := range wave {
			if err := e.buildLeaf(t, false, orderedKeys(r)); err != nil {
				return fail(err)
			}
		}
		for _, t := range wave {
			n := len(t.lk)
			lbuf, wev, err := e.uploadKeys(t.lk)
			if err != nil {
				return fail(err)
			}
			bm, sp, err := e.bitmapScratch(n)
			if err != nil {
				_ = lbuf.Release()
				return fail(err)
			}
			ev := kernels.ExistsProbe(e.q, bm, sp, t.ht.tab, lbuf, n, negate, []*cl.Event{wev, t.ht.slots})
			host := mem.Alloc(kernels.BitmapBytes(n))
			rd := e.q.EnqueueRead(host, bm, []*cl.Event{ev})
			e.releaseAfter(rd, lbuf, bm, sp)
			probes = append(probes, probeState{t: t, host: host, done: rd})
		}
		for _, p := range probes {
			if err := p.done.Wait(); err != nil {
				return fail(err)
			}
			p.t.ht.release()
			p.t.ht = nil
			for i := 0; i < len(p.t.lk); i++ {
				set := p.host[i/8]&(1<<uint(i%8)) != 0
				g := uint32(i)
				if p.t.lpos != nil {
					g = p.t.lpos[i]
				}
				if negate {
					hits[g] = set // the partition's verdict replaces the default
				} else if set {
					hits[g] = true
				}
			}
		}
	}

	// Compose the global verdicts into the same bitmap-backed selection the
	// in-memory path returns: downstream operators (selectcmp, the bitmap
	// fast paths) expect existence-join results to be Memory-Manager
	// bitmaps, not materialised oid lists.
	host := mem.Alloc(kernels.BitmapWords(nl) * 4)
	for i, h := range hits {
		if h {
			host[i/8] |= 1 << uint(i%8)
		}
	}
	bm, sp, err := e.bitmapScratch(nl)
	if err != nil {
		return nil, err
	}
	// No kernel produced this bitmap, so none folded its count: count it.
	ev := kernels.BitmapCount(e.q, bm, sp, nl, []*cl.Event{e.q.EnqueueWrite(bm, host, nil)})
	name := l.Name + "_semi"
	if negate {
		name = l.Name + "_anti"
	}
	return e.finishBitmapSelection(name, bm, sp, nl, ev)
}

// spillRetryable reports whether an in-memory join failure warrants the
// partitioned retry: a capacity refusal on a discrete device (not a dead
// one — partitioning cannot resurrect lost hardware).
func (e *Engine) spillRetryable(err error) bool {
	return err != nil && e.dev.Discrete &&
		errors.Is(err, cl.ErrOutOfDeviceMemory) && !errors.Is(err, cl.ErrDeviceLost)
}
