// The plan executor: an Execution interprets rewritten plan fragments
// against the bound ops.Operators implementation. Symbolic values
// (placeholder BATs) resolve to the concrete BATs earlier instructions
// produced; sync instructions hand results back to the host; release
// instructions free device state mid-plan. The EXPLAIN trace is produced
// here, from the IR, rather than by ad-hoc recording in the fluent API.
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
// across concurrent executions. Pins are fixed when the template is sealed
// (cache.go); no execution moves one.
//
// The executor never writes the IR: a sealed template's fragments are shared
// by every concurrent replay, and re-bound parameter scalars come from the
// execution's patch table. Filling the plan code's placeholders at a sync is
// the building Session's job (flush), the only caller whose plan code reads
// them.
package mal

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bat"
	"repro/internal/hybrid"
	"repro/internal/ops"
)

// Execution is one run of a plan on one engine: the environment of produced
// BATs, the group counts, the parameter patch table, and what the run
// records (its executed instructions, trace and timings). A Session embeds
// the Execution of its own cold run; Template.Run builds a fresh one per
// replay, so a replay carries no builder state. An Execution runs on the
// goroutine that calls it.
type Execution struct {
	o ops.Operators
	// tpl is the plan the run interprets: being built by the embedding
	// Session on a cold run, sealed and shared on a replay. The executor only
	// reads it (placeholders, aliases, module).
	tpl *Template

	// env maps placeholders to the concrete BATs the executor produced.
	env map[*bat.BAT]*bat.BAT

	// owned are concrete operator results, released at Close unless an
	// inserted Release instruction already freed them.
	owned    []*bat.BAT
	released map[*bat.BAT]bool

	// slots hold group counts produced by Group instructions (-1 until
	// executed).
	slots []int

	// over patches instruction scalars with re-bound parameter values on
	// replay (nil when the execution binds no parameters).
	over map[*PInstr]scalarPatch

	done    []*PInstr
	trace   []Instr
	traceOn bool
	opTime  time.Duration

	firstExec time.Time
	lastExec  time.Time
}

func newExecution(o ops.Operators, t *Template) Execution {
	return Execution{o: o, tpl: t, env: map[*bat.BAT]*bat.BAT{}, released: map[*bat.BAT]bool{}}
}

// Trace returns the executed instructions (the after-rewriting plan);
// empty unless Session.EnableTrace was called before the plan ran.
func (e *Execution) Trace() []Instr { return e.trace }

// Plan returns the executed IR instructions (tests and tools).
func (e *Execution) Plan() []*PInstr { return e.done }

// OpTime returns the summed per-instruction dispatch time of the execution;
// wall time minus OpTime approximates the host-side overhead of the MAL
// layer (plan build, rewriting, interpretation) around the operators.
// Instructions run one at a time, so the sum is the schedule.
func (e *Execution) OpTime() time.Duration { return e.opTime }

// CriticalPath returns OpTime.
//
// Deprecated: instructions never overlap, so the longest dependency chain is
// the whole sum. The method exists only because the pinned benchmark's traced
// pass reads it (mal.critpath_ms_p50) and benchmark/ is not edited alongside
// the program; it goes with the benchmark's next own change.
func (e *Execution) CriticalPath() time.Duration { return e.OpTime() }

// ParallelFragments always reports 0.
//
// Deprecated: no fragment runs its instructions concurrently. The method
// exists only because the pinned benchmark's traced pass reads it
// (mal.parallel_frags_per_round); it goes with the benchmark's next own
// change.
func (e *Execution) ParallelFragments() int { return 0 }

// Replans always reports 0: no execution re-plans, pins are fixed when the
// template is sealed. The method exists only because the pinned benchmark's
// traced pass reads it (mal.replans_per_round) and benchmark/ is not edited
// alongside the program; it goes with the benchmark's next own change.
func (e *Execution) Replans() int { return 0 }

func (e *Execution) fail(op string, err error) {
	panic(abort{fmt.Errorf("%s.%s: %w", e.tpl.module, op, err)})
}

// run calls body, translating a plan abort into the returned error, and
// releases the run's intermediates either way. It is the one recovery path
// of builds (RunQuery) and replays (Template.RunOn).
func (e *Execution) run(body func()) (err error) {
	defer e.Close()
	defer func() {
		if v := recover(); v != nil {
			a, ok := v.(abort)
			if !ok {
				panic(v)
			}
			err = a.err
		}
	}()
	body()
	return nil
}

// finish ends a run whose fragments have all executed: it drains the engine,
// so PlanWall spans the plan end to end — across the final Finish/Sync —
// rather than just the enqueue side of a lazy engine, and resolves the
// plan's result columns to this run's concrete BATs. Tail types the result
// accessors cannot read abort the plan here, so the failure surfaces as an
// error instead of a raw panic escaping from Canonical or cell long after
// abort recovery is gone.
func (e *Execution) finish() *Result {
	if err := Finish(e.o); err != nil {
		e.fail("finish", err)
	}
	if !e.firstExec.IsZero() {
		e.lastExec = time.Now()
	}
	t := e.tpl
	cols := make([]*bat.BAT, len(t.cols))
	for i, c := range t.cols {
		if c == nil {
			e.fail("result", fmt.Errorf("column %q is nil", t.names[i]))
		}
		conc := e.resolve(c)
		switch conc.T {
		case bat.I32, bat.F32, bat.OID, bat.Void:
		default:
			e.fail("result", fmt.Errorf("column %q has unsupported result type %v", conc.Name, conc.T))
		}
		cols[i] = conc
	}
	return &Result{Names: append([]string(nil), t.names...), Cols: cols}
}

// Close releases all intermediates produced during the plan that an
// inserted Release instruction did not already free.
func (e *Execution) Close() {
	for _, b := range e.owned {
		if !e.released[b] {
			e.o.Release(b)
		}
	}
	e.owned = nil
}

// canon resolves aliasing to the canonical placeholder. CSE aliases a
// duplicate to a surviving instruction's result; the candidate-first pass
// may later alias that result to the value it rewrote it into, so aliases
// chain.
func (e *Execution) canon(b *bat.BAT) *bat.BAT {
	for {
		a, ok := e.tpl.alias[b]
		if !ok {
			return b
		}
		b = a
	}
}

// canonSlot resolves group-count slot aliasing.
func (e *Execution) canonSlot(slot int) int {
	if a, ok := e.tpl.slotAlias[slot]; ok {
		return a
	}
	return slot
}

// resolve maps a plan value to the concrete BAT the executor should hand
// the engine: CSE aliases first, then the environment of produced values;
// anything else is a base (host) BAT and passes through unchanged.
func (e *Execution) resolve(b *bat.BAT) *bat.BAT {
	if b == nil {
		return nil
	}
	b = e.canon(b)
	if c, ok := e.env[b]; ok {
		return c
	}
	if e.tpl.isPH[b] {
		e.fail("exec", fmt.Errorf("plan value %q used before it was produced", b.Name))
	}
	return b
}

// bind records concrete results for an instruction's placeholders and
// adopts them for end-of-plan release.
func (e *Execution) bind(in *PInstr, concrete ...*bat.BAT) {
	for i, c := range concrete {
		if c == nil {
			continue
		}
		e.env[in.Rets[i]] = c
		e.owned = append(e.owned, c)
	}
}

// ngrpOf resolves an instruction's group count: a literal, or the value the
// producing Group instruction stored in its slot.
func (e *Execution) ngrpOf(in *PInstr) int {
	if in.NgrpRef < 0 {
		return in.NgrpLit
	}
	slot := e.canonSlot(in.NgrpRef)
	if slot < 0 || slot >= len(e.slots) {
		e.fail("exec", fmt.Errorf("group count refers to unknown slot %d (invalid group-count handle?)", slot))
	}
	n := e.slots[slot]
	if n < 0 {
		e.fail("exec", fmt.Errorf("group count of slot %d used before it was produced", slot))
	}
	return n
}

// scalars returns the instruction's scalar operands with any re-bound
// parameter values of this execution applied.
func (e *Execution) scalars(in *PInstr) (lo, hi, c float64) {
	lo, hi, c = in.Lo, in.Hi, in.C
	if e.over != nil {
		if p, ok := e.over[in]; ok {
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
func (e *Execution) execute(batch []*PInstr) {
	if len(batch) == 0 {
		return
	}
	if e.firstExec.IsZero() {
		e.firstExec = time.Now()
	}
	hyb, _ := e.o.(*hybrid.Engine)
	for _, in := range batch {
		o := e.o
		if hyb != nil && in.Device != "" && in.computes() {
			o = hyb.On(in.Device)
		}
		t0 := time.Now()
		e.step(in, o)
		took := time.Since(t0)
		e.opTime += took
		e.done = append(e.done, in)
		if e.traceOn {
			e.record(in, took)
		}
	}
	e.lastExec = time.Now()
}

// step dispatches one instruction to the given operator implementation
// (the run's engine, or a device-pinned view of it).
func (e *Execution) step(in *PInstr, o ops.Operators) {
	arg := func(i int) *bat.BAT { return e.resolve(in.Args[i]) }
	switch in.Kind {
	case OpSelect:
		lo, hi, _ := e.scalars(in)
		res, err := o.Select(arg(0), arg(1), lo, hi, in.LoIncl, in.HiIncl)
		if err != nil {
			e.fail("select", err)
		}
		e.bind(in, res)
	case OpSelectCmp:
		res, err := o.SelectCmp(arg(0), arg(1), in.Cmp, arg(2))
		if err != nil {
			e.fail("selectcmp", err)
		}
		e.bind(in, res)
	case OpProject:
		res, err := o.Project(arg(0), arg(1))
		if err != nil {
			e.fail("leftfetchjoin", err)
		}
		e.bind(in, res)
	case OpJoin:
		l, r, err := o.Join(arg(0), arg(1))
		if err != nil {
			e.fail("join", err)
		}
		e.bind(in, l, r)
	case OpThetaJoin:
		l, r, err := o.ThetaJoin(arg(0), arg(1), in.Cmp)
		if err != nil {
			e.fail("thetajoin", err)
		}
		e.bind(in, l, r)
	case OpSemiJoin:
		res, err := o.SemiJoin(arg(0), arg(1))
		if err != nil {
			e.fail("semijoin", err)
		}
		e.bind(in, res)
	case OpAntiJoin:
		res, err := o.AntiJoin(arg(0), arg(1))
		if err != nil {
			e.fail("antijoin", err)
		}
		e.bind(in, res)
	case OpGroup:
		res, n, err := o.Group(arg(0), arg(1), e.ngrpOf(in))
		if err != nil {
			e.fail("group", err)
		}
		e.slots[in.NSlot] = n
		e.bind(in, res)
	case OpAggr:
		res, err := o.Aggr(in.Agg, arg(0), arg(1), e.ngrpOf(in))
		if err != nil {
			e.fail(in.Agg.String(), err)
		}
		e.bind(in, res)
	case OpSort:
		sorted, order, err := o.Sort(arg(0))
		if err != nil {
			e.fail("sort", err)
		}
		e.bind(in, sorted, order)
	case OpBinop:
		res, err := o.Binop(in.Bin, arg(0), arg(1))
		if err != nil {
			e.fail("binop", err)
		}
		e.bind(in, res)
	case OpBinopConst:
		_, _, c := e.scalars(in)
		res, err := o.BinopConst(in.Bin, arg(0), c, in.ConstFirst)
		if err != nil {
			e.fail("binopconst", err)
		}
		e.bind(in, res)
	case OpUnion:
		res, err := o.OIDUnion(arg(0), arg(1))
		if err != nil {
			e.fail("union", err)
		}
		e.bind(in, res)
	case OpFused:
		if fe, ok := o.(ops.FusedOperators); ok {
			res, err := fe.Fused(e.resolveFused(in.Fuse))
			if err == nil {
				e.bind(in, res...)
				return
			}
			if !errors.Is(err, ops.ErrFusedUnsupported) {
				e.fail("fused", err)
			}
		}
		// The engine cannot run this region as one kernel (or is not
		// fusion-capable, e.g. a template falling back): interpret the
		// member instructions unfused. The region's results are the fused
		// instruction's own placeholders — the root's, or a grouped region's
		// aggregates' — so binding happens at those members.
		for _, m := range in.Sub {
			e.step(m, o)
		}
	case OpSync:
		if err := o.Sync(arg(0)); err != nil {
			e.fail("sync", err)
		}
	case OpRelease:
		conc := arg(0)
		o.Release(conc)
		e.released[conc] = true
	default:
		e.fail("exec", fmt.Errorf("unknown plan instruction kind %d", int(in.Kind)))
	}
}

// resolveFused maps a fused region's plan values to the concrete BATs of
// this execution. The shared descriptor on the (possibly cached, shared)
// instruction is never mutated: each execution gets a fresh copy.
func (e *Execution) resolveFused(f *ops.FusedOp) *ops.FusedOp {
	out := &ops.FusedOp{
		Cand:    e.resolve(f.Cand),
		Filters: append([]ops.FusedFilter(nil), f.Filters...),
		Nodes:   append([]ops.FusedNode(nil), f.Nodes...),
		HasAgg:  f.HasAgg,
		Agg:     f.Agg,
	}
	if len(f.Keys) > 0 {
		out.Keys = make([]*bat.BAT, len(f.Keys))
		for i, k := range f.Keys {
			out.Keys[i] = e.resolve(k)
		}
		out.Aggs = append([]ops.FusedAgg(nil), f.Aggs...)
		for i := range out.Aggs {
			out.Aggs[i].Vals = e.resolve(out.Aggs[i].Vals)
		}
	}
	for i := range out.Filters {
		out.Filters[i].Col = e.resolve(out.Filters[i].Col)
		out.Filters[i].Other = e.resolve(out.Filters[i].Other)
	}
	for i := range out.Nodes {
		if out.Nodes[i].Kind == ops.FusedCol {
			out.Nodes[i].Col = e.resolve(out.Nodes[i].Col)
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
func (e *Execution) record(in *PInstr, took time.Duration) {
	instr := Instr{Module: in.Module, Op: in.OpName(), Device: in.Device, Took: took}
	dArg := func(i int) string { return describe(e.resolve(in.Args[i])) }
	dRet := func(i int) string { return describe(e.resolve(in.Rets[i])) }
	switch in.Kind {
	case OpSelect:
		lo, hi, _ := e.scalars(in)
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
		instr.Ret = fmt.Sprintf("%s (%d groups)", dRet(0), e.slots[in.NSlot])
	case OpBinopConst:
		_, _, c := e.scalars(in)
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
	e.trace = append(e.trace, instr)
}
