// The operator-fusion pass. Ocelot's operator-at-a-time model pays one full
// intermediate materialisation per MAL instruction; the plan IR makes
// select→project→binop→aggregate chains statically visible, so this pass
// collapses eligible regions into single OpFused instructions that a
// fusion-capable engine (ops.FusedOperators) runs as one generated kernel
// chain, eliminating the interior BATs entirely.
//
// A region has exactly one exit: the root instruction's result. Legality:
//
//   - members are range/cmp selections, projections, binop/binop-const
//     arithmetic, or a terminal scalar sum/count — all pure, single-result;
//   - every non-root member's result is consumed only inside the region and
//     never crosses a host boundary (it is not a fragment output, and the
//     pass runs only at the final flush, where liveness is complete — at a
//     mid-plan Sync/Scalar boundary later plan code may still read any
//     pending value, so nothing fuses there);
//   - all absorbed projections share one candidate; selections are absorbed
//     only below that candidate and only when the expression has no
//     already-aligned external inputs (those are aligned with the candidate,
//     not with the region's own narrower selection);
//   - operand types must be numeric (I32/F32) where the pass can see them —
//     the engine re-validates at execution and falls back to the unfused
//     members via ops.ErrFusedUnsupported otherwise;
//   - no member carries a re-bindable parameter (Session.Param): fused
//     scalar constants are baked into the region descriptor, which a cached
//     template could not re-bind.
//
// A grouped region is the second shape (tryGroupRegion): a chain of group
// instructions starting from no previous grouping, each link's ids and count
// read only by the next link, and the last link's only by aggregates. Its
// exits are the aggregates' results; the engine folds them by key code
// without materialising any ids (core.Engine.fusedGrouped).
//
// Values the region reads from outside stay on the fused instruction's Args,
// so liveness (release insertion) and plan-level placement see exactly the
// external inputs: placement costs a fused region as one instruction with
// interior-free transfer volume, removing the bias toward splitting chains
// across devices.
package mal

import (
	"slices"

	"repro/internal/bat"
	"repro/internal/ops"
)

// fusePass rewrites eligible regions of the final fragment into OpFused
// instructions. It runs after CSE/DCE (on canonical, live instructions) and
// before sync insertion and placement.
func (s *Session) fusePass(batch []*PInstr, outputs []*bat.BAT) []*PInstr {
	if _, can := s.o.(ops.FusedOperators); !can {
		return batch
	}
	b := &fuseBuilder{
		s:           s,
		producer:    map[*bat.BAT]*PInstr{},
		consumers:   map[*bat.BAT][]*PInstr{},
		slotReaders: map[int][]*PInstr{},
		outSet:      map[*bat.BAT]bool{},
		claimed:     map[*PInstr]bool{},
		pos:         map[*PInstr]int{},
	}
	for i, in := range batch {
		b.pos[in] = i
		for _, a := range in.Args {
			if a != nil {
				a = s.canon(a)
				b.consumers[a] = append(b.consumers[a], in)
			}
		}
		for _, r := range in.Rets {
			b.producer[r] = in
		}
		if in.NgrpRef >= 0 {
			slot := s.canonSlot(in.NgrpRef)
			b.slotReaders[slot] = append(b.slotReaders[slot], in)
		}
	}
	for _, o := range outputs {
		b.outSet[s.canon(o)] = true
	}

	// Grouped regions first: their members are never part of the other
	// shape, whose regions may still read their results.
	replaced := map[*PInstr]*PInstr{}
	for _, in := range batch {
		if at, f := b.tryGroupRegion(in); f != nil {
			replaced[at] = f
		}
	}
	// Roots are visited last-to-first so a chain's outermost consumer claims
	// the maximal region; an inner instruction left unclaimed by a failed
	// outer region still gets its own chance.
	for i := len(batch) - 1; i >= 0; i-- {
		in := batch[i]
		if b.claimed[in] {
			continue
		}
		if f := b.tryRegion(in); f != nil {
			replaced[in] = f
		}
	}
	if len(replaced) == 0 {
		return batch
	}
	out := batch[:0]
	for _, in := range batch {
		if f, isRoot := replaced[in]; isRoot {
			out = append(out, f)
			continue
		}
		if b.claimed[in] {
			continue
		}
		out = append(out, in)
	}
	return out
}

// fuseBuilder carries the fragment-wide maps plus the state of the region
// currently being grown.
type fuseBuilder struct {
	s           *Session
	producer    map[*bat.BAT]*PInstr
	consumers   map[*bat.BAT][]*PInstr
	slotReaders map[int][]*PInstr // instructions reading a group count, by canonical slot
	outSet      map[*bat.BAT]bool
	claimed     map[*PInstr]bool
	pos         map[*PInstr]int

	// Per-region state, reset by tryRegion.
	members map[*PInstr]bool
	nodes   []ops.FusedNode
	nodeOf  map[*bat.BAT]int
	cand    *bat.BAT // canonical candidate shared by absorbed projections
	candSet bool
	aligned bool // an external already-aligned leaf exists
	leaves  int
	ok      bool
}

// tryRegion grows a maximal fusible region rooted at root and, if legal and
// larger than one instruction, returns the replacing OpFused instruction.
func (b *fuseBuilder) tryRegion(root *PInstr) *PInstr {
	b.members = map[*PInstr]bool{root: true}
	b.nodes = nil
	b.nodeOf = map[*bat.BAT]int{}
	b.cand, b.candSet, b.aligned, b.leaves, b.ok = nil, false, false, 0, true
	if len(root.Params) > 0 {
		return nil
	}

	spec := &ops.FusedOp{}
	switch root.Kind {
	case OpAggr:
		// Terminal scalar sum/count of an expression chain. A scalar
		// aggregate never reads its group count, but a symbolic count
		// reference must still resolve unfused so a bogus handle fails the
		// same way it would without fusion.
		if root.Args[1] != nil || root.Args[0] == nil || root.NgrpRef >= 0 ||
			(root.Agg != ops.Sum && root.Agg != ops.Count) {
			return nil
		}
		spec.HasAgg, spec.Agg = true, root.Agg
		b.exprNode(root.Args[0])
	case OpBinop, OpBinopConst:
		b.instrNode(root)
	case OpProject:
		if !b.projectFits(root) {
			return nil
		}
		b.instrNode(root)
	case OpSelect, OpSelectCmp:
		// Selection-only region: the conjunction of a selection chain.
		if !b.filterColsOK(root) {
			return nil
		}
		b.absorbSelects(b.filterOf(root, spec), spec)
	default:
		return nil
	}
	if !b.ok {
		return nil
	}
	if root.Kind != OpSelect && root.Kind != OpSelectCmp {
		if len(spec.Filters) == 0 { // not the selection-only shape
			if b.leaves == 0 {
				return nil // constants only: no domain to run over
			}
			if b.candSet && !b.aligned {
				b.absorbSelects(b.cand, spec)
			} else {
				spec.Cand = b.candValue()
			}
		}
		spec.Nodes = b.nodes
	}
	if len(b.members) < 2 {
		return nil // fusing a single operator eliminates nothing
	}
	sub := make([]*PInstr, 0, len(b.members))
	for m := range b.members {
		sub = append(sub, m)
	}
	return b.fused(sub, spec, root.Rets)
}

// fused claims the members of a region and returns the OpFused instruction
// standing for them, with rets as its results.
func (b *fuseBuilder) fused(sub []*PInstr, spec *ops.FusedOp, rets []*bat.BAT) *PInstr {
	for _, m := range sub {
		b.claimed[m] = true
	}
	// Plan order, so the unfused fall-back interprets a valid SSA sequence.
	b.planOrder(sub)

	// Externals — everything the region reads that it does not produce —
	// become the fused instruction's Args, so liveness and placement see
	// exactly what the engine will read.
	f := &PInstr{
		ID: b.s.nextID, Kind: OpFused, Module: sub[0].Module,
		Args: spec.Inputs(), Rets: rets,
		NgrpRef: -1, NSlot: -1,
		Fuse: spec, Sub: sub,
	}
	b.s.nextID++
	return f
}

func (b *fuseBuilder) planOrder(ins []*PInstr) {
	slices.SortFunc(ins, func(x, y *PInstr) int { return b.pos[x] - b.pos[y] })
}

// tryGroupRegion grows the grouped region whose chain starts at head, a
// group instruction over no previous grouping, and returns the OpFused
// instruction standing for it with the member whose place it takes: the
// region's last in plan order. The chain goes on from a link while its ids
// and its group count are read by one instruction, the next link, and ends at
// a link whose ids and count only aggregates over those ids read. No ids
// escape or cross a host boundary, the keys are int32 and the aggregated
// values numeric where the pass can see their types, and every reader of an
// aggregate comes after the region's last member, where the region runs.
func (b *fuseBuilder) tryGroupRegion(head *PInstr) (at, f *PInstr) {
	if head.Kind != OpGroup || head.Args[1] != nil || head.NgrpRef >= 0 {
		return nil, nil
	}
	canon := b.s.canon
	spec := &ops.FusedOp{}
	var members, aggs []*PInstr
	for link := head; aggs == nil; {
		ids, slot := link.Rets[0], b.s.canonSlot(link.NSlot)
		if b.claimed[link] || len(link.Params) > 0 || link.NSlot < 0 || b.outSet[ids] || !b.intKey(link.Args[0]) {
			return nil, nil
		}
		members = append(members, link)
		spec.Keys = append(spec.Keys, canon(link.Args[0]))
		readers, counted := b.consumers[ids], b.slotReaders[slot]
		if len(readers) == 0 {
			return nil, nil
		}
		if next := readers[0]; len(readers) == 1 && len(counted) == 1 && counted[0] == next &&
			next.Kind == OpGroup && canon(next.Args[1]) == ids && canon(next.Args[0]) != ids {
			link = next
			continue
		}
		for _, r := range readers {
			if r.Kind != OpAggr || b.claimed[r] || canon(r.Args[1]) != ids || r.Args[0] != nil && canon(r.Args[0]) == ids ||
				r.NgrpRef < 0 || b.s.canonSlot(r.NgrpRef) != slot || r.Args[0] != nil && !b.numeric(r.Args[0]) {
				return nil, nil
			}
		}
		for _, r := range counted {
			if r.Kind != OpAggr || canon(r.Args[1]) != ids {
				return nil, nil
			}
		}
		aggs = readers
	}
	b.planOrder(aggs)
	last := aggs[len(aggs)-1]
	rets := make([]*bat.BAT, len(aggs))
	for i, a := range aggs {
		for _, c := range b.consumers[a.Rets[0]] {
			if b.pos[c] <= b.pos[last] {
				return nil, nil
			}
		}
		rets[i] = a.Rets[0]
		spec.Aggs = append(spec.Aggs, ops.FusedAgg{Kind: a.Agg, Vals: canon(a.Args[0])})
	}
	return last, b.fused(append(members, aggs...), spec, rets)
}

// intKey reports whether v may key a grouped region: not known to be other
// than int32.
func (b *fuseBuilder) intKey(v *bat.BAT) bool {
	t, known := b.valueType(v)
	return v != nil && (!known || t == bat.I32)
}

// numeric reports whether v is not known to be other than I32 or F32.
func (b *fuseBuilder) numeric(v *bat.BAT) bool {
	t, known := b.valueType(v)
	return !known || t == bat.I32 || t == bat.F32
}

// candValue returns the region's external candidate for the no-filter shape.
func (b *fuseBuilder) candValue() *bat.BAT {
	if b.candSet {
		return b.cand
	}
	return nil
}

// absorbable reports whether p may become a non-root member: unclaimed,
// single-result, parameter-free, its result neither a fragment output nor
// consumed outside the region grown so far.
func (b *fuseBuilder) absorbable(p *PInstr) bool {
	if b.claimed[p] || b.members[p] || len(p.Params) > 0 || len(p.Rets) != 1 {
		return false
	}
	r := p.Rets[0]
	if b.outSet[r] {
		return false
	}
	for _, c := range b.consumers[r] {
		if !b.members[c] {
			return false
		}
	}
	return true
}

// exprNode returns the node index standing for plan value v, absorbing v's
// producer when legal and falling back to an external already-aligned leaf
// otherwise.
func (b *fuseBuilder) exprNode(v *bat.BAT) int {
	if !b.ok {
		return 0
	}
	if v == nil {
		b.ok = false
		return 0
	}
	v = b.s.canon(v)
	if idx, done := b.nodeOf[v]; done {
		return idx
	}
	if p := b.producer[v]; p != nil && b.absorbable(p) {
		switch p.Kind {
		case OpBinop, OpBinopConst:
			b.members[p] = true
			return b.instrNode(p)
		case OpProject:
			if b.projectFits(p) {
				b.members[p] = true
				return b.instrNode(p)
			}
		}
	}
	// External input: a column that is already aligned with the region's
	// candidate (element-wise semantics make this positional, exactly like
	// the unfused binop it feeds). Selection results and other non-numeric
	// values cannot be arithmetic operands.
	if t, known := b.valueType(v); known && t != bat.I32 && t != bat.F32 {
		b.ok = false
		return 0
	}
	b.aligned = true
	b.leaves++
	b.nodes = append(b.nodes, ops.FusedNode{Kind: ops.FusedCol, Col: v, Aligned: true})
	idx := len(b.nodes) - 1
	b.nodeOf[v] = idx
	return idx
}

// instrNode emits the node(s) for an already-admitted member instruction and
// returns the root node index of its result.
func (b *fuseBuilder) instrNode(p *PInstr) int {
	var idx int
	switch p.Kind {
	case OpProject:
		b.leaves++
		b.nodes = append(b.nodes, ops.FusedNode{Kind: ops.FusedCol, Col: b.s.canon(p.Args[1])})
		idx = len(b.nodes) - 1
	case OpBinop:
		l := b.exprNode(p.Args[0])
		r := b.exprNode(p.Args[1])
		b.nodes = append(b.nodes, ops.FusedNode{Kind: ops.FusedBin, Bin: p.Bin, L: l, R: r})
		idx = len(b.nodes) - 1
	case OpBinopConst:
		c := b.exprNode(p.Args[0])
		b.nodes = append(b.nodes, ops.FusedNode{Kind: ops.FusedConst, C: p.C})
		k := len(b.nodes) - 1
		l, r := c, k
		if p.ConstFirst {
			l, r = k, c
		}
		b.nodes = append(b.nodes, ops.FusedNode{Kind: ops.FusedBin, Bin: p.Bin, L: l, R: r})
		idx = len(b.nodes) - 1
	}
	b.nodeOf[p.Rets[0]] = idx
	return idx
}

// projectFits decides whether a projection can join the region: its
// candidate must match the region's (the first projection fixes it) and its
// column must not be known non-numeric.
func (b *fuseBuilder) projectFits(p *PInstr) bool {
	cand := b.s.canon(p.Args[0])
	if cand == nil {
		return false
	}
	if b.candSet && cand != b.cand {
		return false
	}
	if t, known := b.valueType(p.Args[1]); known && t != bat.I32 && t != bat.F32 {
		return false
	}
	b.cand, b.candSet = cand, true
	return true
}

// filterColsOK rejects selections over known non-numeric columns.
func (b *fuseBuilder) filterColsOK(p *PInstr) bool {
	check := func(v *bat.BAT) bool {
		t, known := b.valueType(v)
		return !known || t == bat.I32 || t == bat.F32
	}
	if p.Kind == OpSelect {
		return check(p.Args[0])
	}
	return check(p.Args[0]) && check(p.Args[1])
}

// filterOf appends p's predicate to the spec and returns p's candidate
// argument (the next link of the selection chain).
func (b *fuseBuilder) filterOf(p *PInstr, spec *ops.FusedOp) *bat.BAT {
	if p.Kind == OpSelect {
		spec.Filters = append(spec.Filters, ops.FusedFilter{
			Col: b.s.canon(p.Args[0]),
			Lo:  p.Lo, Hi: p.Hi, LoIncl: p.LoIncl, HiIncl: p.HiIncl,
		})
		return p.Args[1]
	}
	spec.Filters = append(spec.Filters, ops.FusedFilter{
		IsCmp: true, Cmp: p.Cmp,
		Col: b.s.canon(p.Args[0]), Other: b.s.canon(p.Args[1]),
	})
	return p.Args[2]
}

// absorbSelects walks the selection chain below cur, absorbing every
// selection whose result stays inside the region; the first link that
// escapes (or is not a selection) becomes the region's external candidate.
func (b *fuseBuilder) absorbSelects(cur *bat.BAT, spec *ops.FusedOp) {
	for cur != nil {
		cur = b.s.canon(cur)
		p := b.producer[cur]
		if p == nil || (p.Kind != OpSelect && p.Kind != OpSelectCmp) || !b.absorbable(p) || !b.filterColsOK(p) {
			break
		}
		b.members[p] = true
		cur = b.filterOf(p, spec)
	}
	spec.Cand = cur
}

// valueType derives a plan value's tail type where the pass can see it:
// concrete BATs directly, earlier-fragment placeholders through the
// execution environment, and batch-internal placeholders structurally for
// the kinds whose result type is fixed. Unknown types are allowed through —
// the engine validates at execution and falls back unfused.
func (b *fuseBuilder) valueType(v *bat.BAT) (bat.Type, bool) {
	if v == nil {
		return bat.Void, true
	}
	v = b.s.canon(v)
	if !b.s.tpl.isPH[v] {
		return v.T, true
	}
	if c, ok := b.s.env[v]; ok {
		return c.T, true
	}
	if p := b.producer[v]; p != nil {
		switch p.Kind {
		case OpSelect, OpSelectCmp, OpJoin, OpThetaJoin, OpSemiJoin, OpAntiJoin, OpUnion:
			return bat.OID, true
		case OpGroup:
			return bat.I32, true
		case OpProject:
			return b.valueType(p.Args[1])
		}
	}
	return bat.Void, false
}
