// The plan executor: interprets a rewritten plan fragment against the bound
// ops.Operators implementation. Symbolic values (placeholder BATs) resolve
// to the concrete BATs earlier instructions produced; sync instructions
// hand results back to the host and fill the placeholders the plan code
// holds (bat.AdoptFrom); release instructions free device state mid-plan.
// The EXPLAIN trace is produced here, from the IR, rather than by ad-hoc
// recording in the fluent API.
//
// The loop is serial, as MAL is between operators: one instruction at a
// time, in plan order, so each device receives its commands in the order the
// plan lists them. All parallelism lives inside an operator — a kernel's
// work-items (§4.1).
//
// Placement pins are enforced per instruction: under the hybrid
// configuration a pinned instruction dispatches through the engine view
// hybrid.Engine.On returns, so a pin lives exactly as long as one operator
// call — no engine-global state, nothing to leak across plans or interleave
// across concurrent sessions. Pins are fixed when the template is sealed
// (cache.go); no execution moves one.
//
// When the session replays a cached template (cache.go) the IR is shared
// with other executions and treated as read-only: per-instruction timings
// are not stamped onto it, placeholders are not adopted at sync points, and
// re-bound parameter scalars come from the execution's patch table.
package mal

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bat"
	"repro/internal/hybrid"
	"repro/internal/ops"
)

// resolve maps a plan value to the concrete BAT the executor should hand
// the engine: CSE aliases first, then the environment of produced values;
// anything else is a base (host) BAT and passes through unchanged.
func (s *Session) resolve(b *bat.BAT) *bat.BAT {
	if b == nil {
		return nil
	}
	b = s.canon(b)
	if c, ok := s.env[b]; ok {
		return c
	}
	if s.tpl.isPH[b] {
		s.fail("exec", fmt.Errorf("plan value %q used before it was produced", b.Name))
	}
	return b
}

// bind records concrete results for an instruction's placeholders and
// adopts them for end-of-plan release.
func (s *Session) bind(in *PInstr, concrete ...*bat.BAT) {
	for i, c := range concrete {
		if c == nil {
			continue
		}
		s.env[in.Rets[i]] = c
		s.owned = append(s.owned, c)
	}
}

// ngrpOf resolves an instruction's group count: a literal, or the value the
// producing Group instruction stored in its slot.
func (s *Session) ngrpOf(in *PInstr) int {
	if in.NgrpRef < 0 {
		return in.NgrpLit
	}
	slot := s.canonSlot(in.NgrpRef)
	if slot < 0 || slot >= len(s.slots) {
		s.fail("exec", fmt.Errorf("group count refers to unknown slot %d (invalid group-count handle?)", slot))
	}
	n := s.slots[slot]
	if n < 0 {
		s.fail("exec", fmt.Errorf("group count of slot %d used before it was produced", slot))
	}
	return n
}

// scalars returns the instruction's scalar operands with any re-bound
// parameter values of this execution applied.
func (s *Session) scalars(in *PInstr) (lo, hi, c float64) {
	lo, hi, c = in.Lo, in.Hi, in.C
	if s.over != nil {
		if p, ok := s.over[in]; ok {
			if p.hasLo {
				lo = p.lo
			}
			if p.hasHi {
				hi = p.hi
			}
			if p.hasC {
				c = p.c
			}
		}
	}
	return lo, hi, c
}

// execute interprets a rewritten fragment on the caller's goroutine, in
// plan order: each instruction dispatches through its pinned view (under the
// hybrid engine a pin routes exactly one operator call), on the clock, and is
// booked — Plan(), the trace, the timing sum — as soon as it returns, so an
// instruction that aborts the plan still leaves what ran before it.
func (s *Session) execute(batch []*PInstr) {
	if len(batch) == 0 {
		return
	}
	if s.firstExec.IsZero() {
		s.firstExec = time.Now()
	}
	hyb, _ := s.o.(*hybrid.Engine)
	for _, in := range batch {
		o := s.o
		if hyb != nil && in.Device != "" && in.computes() {
			o = hyb.On(in.Device)
		}
		t0 := time.Now()
		s.step(in, o)
		took := time.Since(t0)
		s.opTime += took
		if !s.replay {
			in.Took = took
		}
		s.done = append(s.done, in)
		if s.traceOn {
			s.record(in, took)
		}
	}
	s.lastExec = time.Now()
}

// step dispatches one instruction to the given operator implementation
// (the session's engine, or a device-pinned view of it).
func (s *Session) step(in *PInstr, o ops.Operators) {
	arg := func(i int) *bat.BAT { return s.resolve(in.Args[i]) }
	switch in.Kind {
	case OpSelect:
		lo, hi, _ := s.scalars(in)
		res, err := o.Select(arg(0), arg(1), lo, hi, in.LoIncl, in.HiIncl)
		if err != nil {
			s.fail("select", err)
		}
		s.bind(in, res)
	case OpSelectCmp:
		res, err := o.SelectCmp(arg(0), arg(1), in.Cmp, arg(2))
		if err != nil {
			s.fail("selectcmp", err)
		}
		s.bind(in, res)
	case OpProject:
		res, err := o.Project(arg(0), arg(1))
		if err != nil {
			s.fail("leftfetchjoin", err)
		}
		s.bind(in, res)
	case OpJoin:
		l, r, err := o.Join(arg(0), arg(1))
		if err != nil {
			s.fail("join", err)
		}
		s.bind(in, l, r)
	case OpThetaJoin:
		l, r, err := o.ThetaJoin(arg(0), arg(1), in.Cmp)
		if err != nil {
			s.fail("thetajoin", err)
		}
		s.bind(in, l, r)
	case OpSemiJoin:
		res, err := o.SemiJoin(arg(0), arg(1))
		if err != nil {
			s.fail("semijoin", err)
		}
		s.bind(in, res)
	case OpAntiJoin:
		res, err := o.AntiJoin(arg(0), arg(1))
		if err != nil {
			s.fail("antijoin", err)
		}
		s.bind(in, res)
	case OpGroup:
		res, n, err := o.Group(arg(0), arg(1), s.ngrpOf(in))
		if err != nil {
			s.fail("group", err)
		}
		s.slots[in.NSlot] = n
		s.bind(in, res)
	case OpAggr:
		res, err := o.Aggr(in.Agg, arg(0), arg(1), s.ngrpOf(in))
		if err != nil {
			s.fail(in.Agg.String(), err)
		}
		s.bind(in, res)
	case OpSort:
		sorted, order, err := o.Sort(arg(0))
		if err != nil {
			s.fail("sort", err)
		}
		s.bind(in, sorted, order)
	case OpBinop:
		res, err := o.Binop(in.Bin, arg(0), arg(1))
		if err != nil {
			s.fail("binop", err)
		}
		s.bind(in, res)
	case OpBinopConst:
		_, _, c := s.scalars(in)
		res, err := o.BinopConst(in.Bin, arg(0), c, in.ConstFirst)
		if err != nil {
			s.fail("binopconst", err)
		}
		s.bind(in, res)
	case OpUnion:
		res, err := o.OIDUnion(arg(0), arg(1))
		if err != nil {
			s.fail("union", err)
		}
		s.bind(in, res)
	case OpFused:
		if fe, ok := o.(ops.FusedOperators); ok {
			res, err := fe.Fused(s.resolveFused(in.Fuse))
			if err == nil {
				s.bind(in, res...)
				return
			}
			if !errors.Is(err, ops.ErrFusedUnsupported) {
				s.fail("fused", err)
			}
		}
		// The engine cannot run this region as one kernel (or is not
		// fusion-capable, e.g. a template falling back): interpret the
		// member instructions unfused. The region's results are the fused
		// instruction's own placeholders — the root's, or a grouped region's
		// aggregates' — so binding happens at those members.
		for _, m := range in.Sub {
			s.step(m, o)
		}
	case OpSync:
		conc := arg(0)
		if err := o.Sync(conc); err != nil {
			s.fail("sync", err)
		}
		if !s.replay {
			// Fill the plan-side placeholder so host code reading it sees
			// the synced data (§3.4's ownership hand-over). On replay the IR
			// is shared and no plan code runs, so the placeholder stays
			// untouched; results resolve through the environment instead.
			in.Args[0].AdoptFrom(conc)
		}
	case OpRelease:
		conc := arg(0)
		o.Release(conc)
		s.released[conc] = true
	default:
		s.fail("exec", fmt.Errorf("unknown plan instruction kind %d", int(in.Kind)))
	}
}

// resolveFused maps a fused region's plan values to the concrete BATs of
// this execution. The shared descriptor on the (possibly cached, shared)
// instruction is never mutated: each execution gets a fresh copy.
func (s *Session) resolveFused(f *ops.FusedOp) *ops.FusedOp {
	out := &ops.FusedOp{
		Cand:    s.resolve(f.Cand),
		Filters: append([]ops.FusedFilter(nil), f.Filters...),
		Nodes:   append([]ops.FusedNode(nil), f.Nodes...),
		HasAgg:  f.HasAgg,
		Agg:     f.Agg,
	}
	if len(f.Keys) > 0 {
		out.Keys = make([]*bat.BAT, len(f.Keys))
		for i, k := range f.Keys {
			out.Keys[i] = s.resolve(k)
		}
		out.Aggs = append([]ops.FusedAgg(nil), f.Aggs...)
		for i := range out.Aggs {
			out.Aggs[i].Vals = s.resolve(out.Aggs[i].Vals)
		}
	}
	for i := range out.Filters {
		out.Filters[i].Col = s.resolve(out.Filters[i].Col)
		out.Filters[i].Other = s.resolve(out.Filters[i].Other)
	}
	for i := range out.Nodes {
		if out.Nodes[i].Kind == ops.FusedCol {
			out.Nodes[i].Col = s.resolve(out.Nodes[i].Col)
		}
	}
	return out
}

// describe renders a concrete value for the trace.
func describe(b *bat.BAT) string {
	if b == nil {
		return "nil"
	}
	return fmt.Sprintf("%s#%d", b.Name, b.Len())
}

// record appends the executed instruction to the EXPLAIN trace, with
// operands resolved to their concrete form.
func (s *Session) record(in *PInstr, took time.Duration) {
	instr := Instr{Module: in.Module, Op: in.OpName(), Device: in.Device, Took: took}
	dArg := func(i int) string { return describe(s.resolve(in.Args[i])) }
	dRet := func(i int) string { return describe(s.resolve(in.Rets[i])) }
	switch in.Kind {
	case OpSelect:
		lo, hi, _ := s.scalars(in)
		instr.Args = []string{dArg(0), dArg(1), fmt.Sprintf("%v..%v", lo, hi)}
		instr.Ret = dRet(0)
	case OpSelectCmp:
		instr.Args = []string{dArg(0), in.Cmp.String(), dArg(1)}
		instr.Ret = dRet(0)
	case OpThetaJoin:
		instr.Args = []string{dArg(0), in.Cmp.String(), dArg(1)}
		instr.Ret = dRet(0)
	case OpGroup:
		instr.Args = []string{dArg(0), dArg(1)}
		instr.Ret = fmt.Sprintf("%s (%d groups)", dRet(0), s.slots[in.NSlot])
	case OpBinopConst:
		_, _, c := s.scalars(in)
		instr.Args = []string{dArg(0), fmt.Sprint(c)}
		instr.Ret = dRet(0)
	case OpSync, OpRelease:
		instr.Args = []string{dArg(0)}
		instr.Ret = dArg(0)
	default:
		for i := range in.Args {
			instr.Args = append(instr.Args, dArg(i))
		}
		if len(in.Rets) > 0 {
			instr.Ret = dRet(0)
		}
	}
	s.trace = append(s.trace, instr)
}
