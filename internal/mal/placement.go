// Plan-level operator placement for the hybrid configuration (§7): instead
// of hybrid.Engine's greedy one-call-at-a-time choice, this pass walks the
// whole plan fragment with the calibrated device profiles (core.Profile),
// costs transfer-vs-compute over entire operator chains, and pins every
// instruction to a device before execution. The pin is stamped on the
// instruction (PInstr.Device, a device *label* such as "CPU" or "GPU1") and
// enforced per call by the executor through hybrid.Engine.On — no
// engine-global state is involved, so pins cannot leak across plans or
// interleave across concurrent sessions; the engine's cost-ordered
// out-of-memory fallback still applies underneath.
//
// The pass relaxes over the whole device set, not a CPU/GPU binary choice:
// each instruction carries a per-device compute estimate, transfers are
// priced per link (a discrete→discrete hop pays both PCIe directions,
// host↔CPU is free), and a parallel-load term spreads *independent* plan
// subtrees across equally fast devices — two selects feeding a join may pin
// to different GPUs, while a serial chain (whose members can never overlap)
// pays no such penalty and stays together. Fused regions are costed per
// device as one instruction (estimateFused).
package mal

import (
	"repro/internal/bat"
	"repro/internal/hybrid"
	"repro/internal/ops"
)

// placement cost constants: per-operator streamed-byte multipliers mirror
// the greedy cost model the eager hybrid layer used, so the plan-level pass
// is comparable call-for-call and better only through lookahead.
const defaultGroupGuess = 64 // estimated groups when the count is symbolic

// estimator carries cardinality estimates keyed by canonical plan value.
// What the session has already produced is priced at its observed length;
// the rest comes from the model: load-time column statistics where a base
// column carries them, the historical fixed constants otherwise — so plans
// over stats-free columns place exactly as the constant model did.
type estimator struct {
	s    *Session
	rows map[*bat.BAT]float64
}

func (s *Session) newEstimator() *estimator {
	return &estimator{s: s, rows: map[*bat.BAT]float64{}}
}

// statsOf returns the load-time column statistics of a plan value, or nil
// for intermediates (only base columns carry stats).
func (e *estimator) statsOf(b *bat.BAT) *bat.Stats {
	if b == nil {
		return nil
	}
	return e.s.canon(b).Stats
}

// rowsOf estimates a value's cardinality: concrete values report exactly,
// base BATs report their length, fragment-internal values use the estimate
// propagated from their producer.
func (e *estimator) rowsOf(b *bat.BAT) float64 {
	if b == nil {
		return 0
	}
	b = e.s.canon(b)
	if c, ok := e.s.env[b]; ok {
		return float64(c.Len())
	}
	if r, ok := e.rows[b]; ok {
		return r
	}
	if e.s.tpl.isPH[b] {
		return 0 // produced by an instruction this pass has not costed yet
	}
	return float64(b.Len())
}

// estimate predicts an instruction's output cardinalities and streamed byte
// volume (the bandwidth-bound footprint the profiles price). A result the
// session already holds overrides the model's output rows — nothing does
// while a fragment is placed before it runs, every result does when the
// finished plan is placed again at seal. The streamed volume stays
// model-priced: it depends on input sizes, which rowsOf already resolves.
func (e *estimator) estimate(in *PInstr) (outRows []float64, streamedBytes float64) {
	outRows, streamedBytes = e.model(in)
	for i := range outRows {
		if c, ok := e.s.env[e.s.canon(in.Rets[i])]; ok {
			outRows[i] = float64(c.Len())
		}
	}
	return outRows, streamedBytes
}

// model is the per-operator cardinality model: column statistics where the
// column carries them, the historical fixed constants otherwise.
func (e *estimator) model(in *PInstr) (outRows []float64, streamedBytes float64) {
	r := func(i int) float64 { return e.rowsOf(in.Args[i]) }
	switch in.Kind {
	case OpSelect:
		n := r(0)
		if in.Args[1] != nil {
			n = r(1)
		}
		out := n / 3 // the fixed per-selection selectivity guess
		if st := e.statsOf(in.Args[0]); st != nil {
			lo, hi, _ := e.s.scalars(in)
			out = n * st.Selectivity(lo, hi)
		}
		return []float64{out}, 4 * r(0)
	case OpSelectCmp:
		n := r(0)
		if in.Args[2] != nil {
			n = r(2)
		}
		return []float64{n / 3}, 8 * r(0)
	case OpProject:
		return []float64{r(0)}, 4 * (r(0) + r(1))
	case OpJoin:
		out := r(0)
		if r(1) > out {
			out = r(1)
		}
		return []float64{out, out}, 3 * 4 * (r(0) + r(1))
	case OpThetaJoin:
		out := r(0) * r(1) / 4
		return []float64{out, out}, 4 * r(0) * (r(1) + 1)
	case OpSemiJoin, OpAntiJoin:
		return []float64{r(0) / 2}, 2 * 4 * (r(0) + r(1))
	case OpGroup:
		return []float64{r(0)}, 6 * 4 * r(0)
	case OpAggr:
		out := float64(defaultGroupGuess)
		if in.NgrpRef >= 0 {
			// A symbolic count resolved by an earlier fragment's Group (or a
			// bound integer parameter) beats the guess.
			if slot := e.s.canonSlot(in.NgrpRef); slot >= 0 && slot < len(e.s.slots) && e.s.slots[slot] >= 0 {
				out = float64(e.s.slots[slot])
			}
		} else {
			if in.NgrpLit > 0 {
				out = float64(in.NgrpLit)
			} else {
				out = 1 // scalar aggregate
			}
		}
		return []float64{out}, 4 * (r(0) + r(1))
	case OpSort:
		return []float64{r(0), r(0)}, 10 * 4 * r(0)
	case OpBinop:
		return []float64{r(0)}, 3 * 4 * r(0)
	case OpBinopConst:
		return []float64{r(0)}, 2 * 4 * r(0)
	case OpUnion:
		return []float64{r(0) + r(1)}, 4 * (r(0) + r(1))
	case OpFused:
		return e.estimateFused(in.Fuse)
	default:
		return nil, 0
	}
}

// estimateFused costs a fused region as ONE instruction: the summed compute
// of its members over the shared domain, with only the region's external
// inputs contributing transfer volume (the executor resolves interior values
// in registers, so placement must not price — and cannot be biased by —
// intermediates that never exist). This is what stops the relaxation from
// splitting a fused chain across devices.
func (e *estimator) estimateFused(f *ops.FusedOp) (outRows []float64, streamedBytes float64) {
	if len(f.Keys) > 0 {
		// A grouped region streams each key and value column once and
		// writes one column per aggregate, of the guessed group count.
		outRows = make([]float64, len(f.Aggs))
		for i := range outRows {
			outRows[i] = defaultGroupGuess
		}
		return outRows, 4 * e.rowsOf(f.Keys[0]) * float64(len(f.Inputs()))
	}
	leaves := 0
	var firstLeaf *bat.BAT
	for _, nd := range f.Nodes {
		if nd.Kind == ops.FusedCol {
			leaves++
			if firstLeaf == nil {
				firstLeaf = nd.Col
			}
		}
	}
	var domain float64
	switch {
	case len(f.Filters) > 0:
		domain = e.rowsOf(f.Filters[0].Col)
	case f.Cand != nil:
		domain = e.rowsOf(f.Cand)
	case firstLeaf != nil:
		domain = e.rowsOf(firstLeaf)
	}
	streamed := 4 * domain * float64(leaves)
	out := domain
	for _, fl := range f.Filters {
		streamed += 4 * domain
		if fl.IsCmp {
			streamed += 4 * domain
		}
		if st := e.statsOf(fl.Col); st != nil && !fl.IsCmp {
			// Fused members are param-free (a verifier rule), so the
			// descriptor's bounds are the bounds the kernel will run with.
			out *= st.Selectivity(fl.Lo, fl.Hi)
			continue
		}
		out /= 3 // the per-selection selectivity guess the unfused model uses
	}
	if f.HasAgg {
		out = 1
	}
	streamed += 4 * out
	return []float64{out}, streamed
}

// hostLoc marks a value resident on the host (no device owns it).
const hostLoc = -1

// placementPass pins each compute instruction of the fragment to a device.
// It seeds every pin greedily in plan order (per-device compute plus input
// transfers plus the parallel load already assigned to the device), then
// relaxes the DAG a few rounds: each instruction re-chooses its device given
// where its producers *and* consumers currently sit, so a cheap operator in
// the middle of a device chain stays on that device instead of bouncing the
// intermediate over PCIe — the lookahead the greedy per-call model lacks.
// The parallel-load term only counts instructions the candidate is neither
// an ancestor nor a descendant of: work on the same dependency chain
// serialises anyway, while independent subtrees genuinely compete for the
// device, which is what pushes them onto distinct GPUs.
func (s *Session) placementPass(batch []*PInstr, outputs []*bat.BAT) {
	s.place(batch, outputs, func(in *PInstr, label string) { in.Device = label })
}

// place is the placement core, run twice per plan: over each fragment before
// it executes (placementPass, pricing with statistics and estimates) and
// once more over the whole finished plan when its template is sealed
// (Session.Template, pricing every produced value at its observed length).
// It reports the chosen device label per compute instruction through sink.
func (s *Session) place(batch []*PInstr, outputs []*bat.BAT, sink func(*PInstr, string)) {
	h, ok := s.o.(*hybrid.Engine)
	if !ok {
		return
	}
	est := s.newEstimator()
	devs := h.Devices()
	nd := len(devs)
	if nd == 0 {
		return
	}
	type devFact struct {
		label    string
		scan     float64 // profiled scan bandwidth, bytes/s
		launch   float64 // profiled per-kernel overhead, seconds
		link     float64 // host link bandwidth, bytes/s (discrete only)
		discrete bool
		capBytes float64 // free device memory with headroom; 0 = unlimited
		alive    bool    // dead devices (fault injection, ErrDeviceLost) take no pins
	}
	facts := make([]devFact, nd)
	byLabel := map[string]int{}
	anyAlive := false
	for i, d := range devs {
		dev := d.Eng.Device()
		facts[i] = devFact{
			label:    d.Label,
			scan:     d.Prof.ScanBandwidth,
			launch:   d.Prof.LaunchOverhead.Seconds(),
			link:     dev.Perf.TransferBandwidth,
			discrete: dev.Discrete,
			alive:    !dev.Dead(),
		}
		if dev.GlobalMemSize > 0 {
			free := dev.GlobalMemSize - dev.Allocated()
			if free < 0 {
				free = 0
			}
			facts[i].capBytes = float64(free) * 3 / 4
		}
		anyAlive = anyAlive || facts[i].alive
		byLabel[d.Label] = i
	}
	if !anyAlive {
		return // nothing sensible to pin; the executor's fallback chain decides
	}

	type node struct {
		in        *PInstr
		comp      []float64 // compute seconds per device
		outBytes  float64
		resBytes  float64    // estimated peak device-resident bytes while running
		producers []*bat.BAT // canonical args
		isOutput  bool
	}
	outSet := map[*bat.BAT]bool{}
	for _, o := range outputs {
		outSet[s.canon(o)] = true
	}

	var nodes []*node
	producerOf := map[*bat.BAT]*node{}
	for _, in := range batch {
		if !in.computes() {
			continue
		}
		outRows, streamed := est.estimate(in)
		var outBytes float64
		for i, r := range in.Rets {
			est.rows[r] = outRows[i]
			outBytes += 4 * outRows[i]
		}
		n := &node{in: in, comp: make([]float64, nd), outBytes: outBytes}
		for d := range facts {
			n.comp[d] = seconds(streamed, facts[d].scan) + facts[d].launch
		}
		n.resBytes = outBytes
		for _, a := range in.Args {
			if a != nil {
				n.resBytes += 4 * est.rowsOf(a)
			}
		}
		// Operator working state beyond inputs and outputs: the multi-stage
		// hash table for joins and grouping (≈26 B/build row at the table's
		// over-allocation), the merge-sort double buffer.
		switch in.Kind {
		case OpJoin, OpSemiJoin, OpAntiJoin:
			n.resBytes += 26 * est.rowsOf(in.Args[1])
		case OpGroup:
			n.resBytes += 26 * est.rowsOf(in.Args[0])
		case OpFused:
			// A grouped region's working state: a code a row and at most
			// one partials table per aggregate and one for the count, each
			// no larger than the input under the region's rule — or the
			// chained grouping's where the rule refuses.
			if f := in.Fuse; len(f.Keys) > 0 {
				n.resBytes += float64(max(26, 4*(2+len(f.Aggs)))) * est.rowsOf(f.Keys[0])
			}
		case OpSort:
			n.resBytes += 8 * est.rowsOf(in.Args[0])
		}
		for _, a := range in.Args {
			if a == nil {
				continue
			}
			n.producers = append(n.producers, s.canon(a))
		}
		for _, r := range in.Rets {
			if outSet[r] {
				n.isOutput = true
			}
			producerOf[r] = n
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return
	}

	// consumers[i] lists the nodes reading node i's results.
	consumers := make([][]*node, len(nodes))
	index := map[*node]int{}
	for i, n := range nodes {
		index[n] = i
	}
	for _, n := range nodes {
		for _, a := range n.producers {
			if p, ok := producerOf[a]; ok && p != n {
				consumers[index[p]] = append(consumers[index[p]], n)
			}
		}
	}

	// related[i] marks every node on i's dependency chain (ancestors,
	// descendants and i itself): work that serialises with i regardless of
	// placement and therefore never contends with it. Plan order is
	// topological (instructions are appended as the plan builds), so one
	// forward sweep closes ancestors and one backward sweep descendants.
	words := (len(nodes) + 63) / 64
	newSet := func() []uint64 { return make([]uint64, words) }
	setBit := func(s []uint64, i int) { s[i/64] |= 1 << (i % 64) }
	hasBit := func(s []uint64, i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
	orInto := func(dst, src []uint64) {
		for w := range dst {
			dst[w] |= src[w]
		}
	}
	anc := make([][]uint64, len(nodes))
	desc := make([][]uint64, len(nodes))
	related := make([][]uint64, len(nodes))
	for i := range nodes {
		anc[i], desc[i], related[i] = newSet(), newSet(), newSet()
	}
	for i, n := range nodes { // ancestors close forward
		for _, a := range n.producers {
			if p, ok := producerOf[a]; ok && p != n {
				j := index[p]
				setBit(anc[i], j)
				orInto(anc[i], anc[j])
			}
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- { // descendants close backward
		for _, cons := range consumers[i] {
			j := index[cons]
			setBit(desc[i], j)
			orInto(desc[i], desc[j])
		}
	}
	for i := range nodes {
		setBit(related[i], i)
		orInto(related[i], anc[i])
		orInto(related[i], desc[i])
	}

	// pin[i] is node i's device index; load[d] the summed compute seconds and
	// memLoad[d] the summed resident bytes of the nodes currently assigned to
	// device d.
	pin := make([]int, len(nodes))
	for i := range pin {
		pin[i] = hostLoc // unassigned (seed phase)
	}
	load := make([]float64, nd)
	memLoad := make([]float64, nd)

	// locOf resolves where a value lives under the current pins: its
	// producing node's device, the device owning it from an earlier
	// fragment, or the host.
	locOf := func(a *bat.BAT) int {
		if p, ok := producerOf[a]; ok {
			return pin[index[p]]
		}
		if lbl := h.OwnerClass(s.resolveForCost(a)); lbl != "" {
			if d, ok := byLabel[lbl]; ok {
				return d
			}
		}
		return hostLoc
	}
	// xfer prices moving bytes between two locations: each discrete endpoint
	// pays its PCIe link once (host↔CPU is free, GPU↔GPU pays both hops).
	xfer := func(bytes float64, from, to int) float64 {
		if from == to {
			return 0
		}
		var c float64
		if from >= 0 && facts[from].discrete {
			c += seconds(bytes, facts[from].link)
		}
		if to >= 0 && facts[to].discrete {
			c += seconds(bytes, facts[to].link)
		}
		return c
	}
	// busy is the parallel load device d already carries from nodes off i's
	// dependency chain — the contention term that spreads independent
	// subtrees over equal devices.
	busy := func(i, d int) float64 {
		b := load[d]
		for j, n := range nodes {
			if pin[j] == d && hasBit(related[i], j) {
				b -= n.comp[d]
			}
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	// busyMem is the memory the other nodes currently pinned to d keep
	// resident. Unlike busy it counts related nodes too: a producer's
	// intermediate stays on the device until its consumer reads it, so
	// chain-mates compete for capacity even though they never compete for
	// compute.
	busyMem := func(i, d int) float64 {
		m := memLoad[d]
		if pin[i] == d {
			m -= nodes[i].resBytes
		}
		if m < 0 {
			m = 0
		}
		return m
	}
	costOn := func(i, d int, withConsumers bool) float64 {
		n := nodes[i]
		c := n.comp[d] + busy(i, d)
		for _, a := range n.producers {
			c += xfer(4*est.rowsOf(a), locOf(a), d)
		}
		if withConsumers {
			for _, cons := range consumers[i] {
				c += xfer(n.outBytes, d, pin[index[cons]])
			}
		}
		if n.isOutput {
			c += xfer(n.outBytes, d, hostLoc) // sync-back to the host
		}
		// Spill pressure: bytes beyond the device's capacity travel the host
		// link at least twice (offload + reload, or evict + re-upload), so a
		// plan that overflows a card pays its Memory Manager traffic up front
		// and routes around the thrashing instead of discovering it at
		// runtime.
		if facts[d].capBytes > 0 {
			if over := busyMem(i, d) + n.resBytes - facts[d].capBytes; over > 0 {
				c += 2 * seconds(over, facts[d].link)
			}
		}
		return c
	}
	choose := func(i int, withConsumers bool) int {
		best, bestCost := pin[i], 0.0
		if best >= 0 {
			bestCost = costOn(i, best, withConsumers)
		}
		for d := 0; d < nd; d++ {
			if d == best || !facts[d].alive {
				continue
			}
			if c := costOn(i, d, withConsumers); best < 0 || c < bestCost {
				best, bestCost = d, c
			}
		}
		return best
	}

	// Seed greedily in plan order (producers are already assigned, consumers
	// are not), then relax with full producer+consumer context.
	for i := range nodes {
		d := choose(i, false)
		pin[i] = d
		load[d] += nodes[i].comp[d]
		memLoad[d] += nodes[i].resBytes
	}
	for round := 0; round < 3; round++ {
		for i, n := range nodes {
			d := choose(i, true)
			if d != pin[i] {
				load[pin[i]] -= n.comp[pin[i]]
				load[d] += n.comp[d]
				memLoad[pin[i]] -= n.resBytes
				memLoad[d] += n.resBytes
				pin[i] = d
			}
		}
	}
	for i, n := range nodes {
		sink(n.in, facts[pin[i]].label)
	}
}

// resolveForCost maps a plan value to what the hybrid engine knows about
// (the concrete BAT), without failing on not-yet-produced values.
func (s *Session) resolveForCost(b *bat.BAT) *bat.BAT {
	b = s.canon(b)
	if c, ok := s.env[b]; ok {
		return c
	}
	return b
}

func seconds(bytes, rate float64) float64 {
	if rate <= 0 {
		return 0
	}
	return bytes / rate
}
