// Package mal is the execution layer Ocelot drops into: the operator-at-a-
// time evaluation model of MonetDB's MAL (§3.1, §3.4). A query plan is
// written once against the fluent Session API, which *builds* an explicit
// plan IR (ir.go) — a DAG of instructions over symbolic values — instead of
// dispatching operators eagerly. When a value crosses the plan boundary
// (Sync, ScalarF/ScalarI, Result), the pending plan is run through the
// rewriter pass pipeline (passes.go: module binding, common-subexpression
// elimination, candidate-first gathers, dead-instruction elimination, sync
// insertion, plan-level hybrid placement, last-use release insertion) and
// interpreted by the plan executor (exec.go).
//
// Binding every instruction to one operator module is the paper's
// drop-in-replacement mechanism (§3.1): running the *same plan* under a
// different configuration only swaps which module the instructions route
// to. Sync and Release instructions are inserted by the rewriter, not by
// plan code, exactly as §3.4 prescribes; the instruction trace for
// EXPLAIN-style output is produced from the rewritten IR.
//
// Three types split the work. A Session builds a plan: the fluent API,
// parameter capture, the rewriter pass driver (flush) and the verifier. An
// Execution runs one: the environment of produced BATs, group counts,
// re-bound parameters, the trace and timings, and the interpreter itself.
// A Template (cache.go) is the sealed rewritten plan a finished Session
// leaves behind. A Session embeds the Execution of its own cold run;
// Template.Run replays the sealed fragments in a fresh Execution — no plan
// function, no Session, no rewriter pass — with parameter slots re-bound
// per run, MonetDB-recycler style, and a PlanCache stores templates for
// those replays.
package mal

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bat"
	"repro/internal/ops"
)

// Instr is one executed plan instruction, rendered for EXPLAIN output.
type Instr struct {
	// Module is the operator module the instruction was bound to, Op the
	// operator.
	Module, Op string
	// Device is the hybrid placement pin ("CPU" or "GPU"), empty elsewhere.
	Device string
	// Args describes the operands, Ret the result, both for display.
	Args []string
	Ret  string
	// Took is the host-observed latency of the instruction: enqueue time
	// for lazy engines, execution time for eager ones (Execution.TimingLabel
	// names which one honestly; Execution.PlanWall has the end-to-end time).
	Took time.Duration
}

func (i Instr) String() string {
	mod := i.Module
	if i.Device != "" {
		mod = fmt.Sprintf("%s[%s]", i.Module, i.Device)
	}
	return fmt.Sprintf("%s := %s.%s(%s)", i.Ret, mod, i.Op, strings.Join(i.Args, ", "))
}

// abort carries plan errors through panics so query plans read linearly;
// Execution.run recovers it.
type abort struct{ err error }

// Passes toggles the rewriter pass pipeline (all on by default). Tests and
// ablation harnesses switch individual passes off to measure their effect.
// Plan-level placement (placement.go) is not a switch: it always runs, and
// it is a no-op on engines that are not a *hybrid.Engine.
type Passes struct {
	// CSE merges instructions that recompute an identical pure expression.
	CSE bool
	// DCE drops instructions whose results never reach a plan output
	// (applied at the final flush only, when full liveness is known). It
	// also gates the candidate-first pass (candfirst.go), which moves
	// gather chains under their candidate lists and leaves the full-length
	// chains to DCE.
	DCE bool
	// EarlyRelease inserts Release instructions after each intermediate's
	// last use, freeing device memory mid-plan instead of at Close.
	EarlyRelease bool
	// Fusion collapses single-exit select→project→binop(→sum/count) chains
	// into one fused instruction per region at the final flush (fuse.go),
	// eliminating the member operators' intermediate BATs. It only applies
	// when the bound engine advertises fusion support (ops.FusedOperators);
	// the MonetDB baselines always execute the unfused chain.
	Fusion bool
}

// DefaultPasses enables the full pipeline.
func DefaultPasses() Passes {
	return Passes{CSE: true, DCE: true, EarlyRelease: true, Fusion: true}
}

// Key renders the pass configuration as a short stable string — the same
// rendering plan-cache keys embed; the serve layer reuses it to key
// in-flight query coalescing.
func (p Passes) Key() string { return p.key() }

// key renders the pass configuration for plan-cache keying.
func (p Passes) key() string {
	mark := func(on bool, c byte) byte {
		if on {
			return c
		}
		return '-'
	}
	return string([]byte{mark(p.CSE, 'c'), mark(p.DCE, 'd'), mark(p.EarlyRelease, 'r'), mark(p.Fusion, 'f')})
}

// Params are the per-execution parameter bindings of a plan: values for the
// names the plan declared with Session.Param. Re-binding them on a cached
// template executes the same rewritten IR with different selection or
// arithmetic constants.
type Params map[string]float64

// Session builds one query plan against one operator configuration: the
// fluent API below records instructions, and every plan boundary (Sync,
// ScalarF/ScalarI, Result) sends the pending ones through the rewriter
// passes (flush) into the embedded Execution, the session's own cold run.
// Plan code runs on one goroutine. The reusable part of a finished session
// — the rewritten plan — is its Template, which replays without a Session.
type Session struct {
	// Execution is the cold run: it interprets each fragment as soon as
	// flush has rewritten it, and its accessors (Plan, OpTime, Explain, …)
	// describe that run. Its template is the plan being built, owned and
	// mutated by this session until Template seals it.
	Execution

	// pending is the built-but-unexecuted tail of the plan; raw keeps every
	// built instruction (before rewriting) for EXPLAIN's before-view.
	pending []*PInstr
	raw     []*PInstr

	// cseTab maps expression signatures to their canonical instruction
	// (kept across flush fragments).
	cseTab map[string]*PInstr

	// slotProducer keeps the producing Group instruction per slot for
	// liveness.
	slotProducer map[int]*PInstr

	// outputs are the values of the current flush that must be synced to
	// the host (in marking order).
	outputs []*bat.BAT
	outSet  map[*bat.BAT]bool

	// params are the values bound for this build; paramNames indexes the
	// float-parameter sentinels Param returns.
	params    Params
	paramIdx  map[string]int
	paramName []string

	nextID  int
	nextTmp int

	// vstate is the plan-IR verifier's committed cross-fragment state
	// (verify.go); nil until the build's first check.
	vstate *verifier
}

// NewSession creates a session bound to an operator implementation.
func NewSession(o ops.Operators) *Session {
	return &Session{
		Execution:    newExecution(o, newTemplate(o.Module(), DefaultPasses())),
		cseTab:       map[string]*PInstr{},
		slotProducer: map[int]*PInstr{},
		outSet:       map[*bat.BAT]bool{},
		paramIdx:     map[string]int{},
	}
}

// SetPasses overrides the rewriter pass configuration. It must be called
// before the first operator call of the plan.
func (s *Session) SetPasses(p Passes) { s.tpl.passes = p }

// SetParams binds parameter values for this build. Plan code reads them
// back through Param; the bindings are also what a cached template was
// captured under. Call it before the plan runs.
func (s *Session) SetParams(p Params) { s.params = p }

// EnableTrace turns on rendered instruction recording (EXPLAIN) for the
// cold run; the IR itself (Plan) is always available. Recording stays
// opt-in so the per-instruction string formatting never rides inside
// benchmark-timed plan execution, and a replay never records.
func (s *Session) EnableTrace() { s.traceOn = true }

// Operators exposes the bound implementation.
func (s *Session) Operators() ops.Operators { return s.o }

// newPlaceholder mints a symbolic plan value.
func (s *Session) newPlaceholder() *bat.BAT {
	s.nextTmp++
	ph := bat.New(fmt.Sprintf("t%d", s.nextTmp), bat.Void, 0)
	s.tpl.isPH[ph] = true
	return ph
}

// --- parameter slots ---

// Float parameters travel from Param to the consuming operator call as
// NaN-boxed sentinels: a quiet NaN whose mantissa carries a magic tag and
// the parameter's registration index. add() decodes the sentinel back into
// the bound value and records the (instruction, field, name) binding the
// template needs to re-bind the scalar per execution.
const paramTag = 0x7FF8_C0DE_0000_0000

func paramSentinel(idx int) float64 {
	return math.Float64frombits(paramTag | uint64(uint32(idx)))
}

func sentinelIndex(v float64) (int, bool) {
	b := math.Float64bits(v)
	if b&0xFFFF_FFFF_0000_0000 != paramTag {
		return 0, false
	}
	return int(uint32(b)), true
}

// Param declares a named float parameter with a default and returns the
// value to pass into operator calls (selection bounds, arithmetic
// constants). The returned value must flow into an operator scalar
// *unmodified*: to parameterise a derived quantity, compute it first and
// bind the result. Arithmetic on the returned sentinel either aborts the
// plan (payload lost) or degenerates to the raw parameter *from the first
// run onward* (NaN payload propagated by the FPU) — misuse is visible at
// capture, never a cache-only divergence. A cached template re-binds the
// scalar per execution from the Params given at replay; absent names keep
// the capture-time value.
func (s *Session) Param(name string, def float64) float64 {
	v := def
	if bv, ok := s.params[name]; ok {
		v = bv
	}
	idx, ok := s.paramIdx[name]
	if !ok {
		idx = len(s.paramName)
		s.paramIdx[name] = idx
		s.paramName = append(s.paramName, name)
	}
	s.tpl.floatDefs[name] = v
	return paramSentinel(idx)
}

// captureParams decodes NaN-boxed parameter sentinels out of a freshly
// built instruction's scalar fields, replacing them with the bound value
// and recording the binding on the instruction for template re-binding.
func (s *Session) captureParams(in *PInstr) {
	fields := [3]struct {
		f ScalarField
		p *float64
	}{{FieldLo, &in.Lo}, {FieldHi, &in.Hi}, {FieldC, &in.C}}
	for _, fp := range fields {
		v := *fp.p
		if !math.IsNaN(v) {
			continue
		}
		idx, ok := sentinelIndex(v)
		if !ok || idx >= len(s.paramName) {
			s.fail(in.OpName(), fmt.Errorf("NaN scalar argument: parameter values must flow from Param to the operator unmodified (bind derived values directly)"))
		}
		name := s.paramName[idx]
		*fp.p = s.tpl.floatDefs[name]
		in.Params = append(in.Params, ParamRef{Field: fp.f, Name: name})
	}
}

// add appends a plan instruction with nRets fresh placeholders.
func (s *Session) add(kind OpKind, nRets int, args []*bat.BAT, set func(*PInstr)) *PInstr {
	in := &PInstr{ID: s.nextID, Kind: kind, Args: args, NgrpRef: -1, NSlot: -1}
	s.nextID++
	for i := 0; i < nRets; i++ {
		in.Rets = append(in.Rets, s.newPlaceholder())
	}
	if set != nil {
		set(in)
	}
	s.captureParams(in)
	s.pending = append(s.pending, in)
	s.raw = append(s.raw, in)
	return in
}

// markOutput registers b as a plan output of the current fragment: the
// sync-insertion pass will emit an explicit Sync instruction for it.
func (s *Session) markOutput(b *bat.BAT) {
	if b == nil || s.outSet[b] {
		return
	}
	s.outSet[b] = true
	s.outputs = append(s.outputs, b)
}

// --- fluent plan builders ---

// Select routes algebra.select / ocelot.select.
func (s *Session) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) *bat.BAT {
	in := s.add(OpSelect, 1, []*bat.BAT{col, cand}, func(in *PInstr) {
		in.Lo, in.Hi, in.LoIncl, in.HiIncl = lo, hi, loIncl, hiIncl
	})
	return in.Rets[0]
}

// SelectEq is the equality convenience over Select.
func (s *Session) SelectEq(col, cand *bat.BAT, v float64) *bat.BAT {
	return s.Select(col, cand, v, v, true, true)
}

// SelectCmp routes the column-vs-column selection.
func (s *Session) SelectCmp(a, b *bat.BAT, cmp ops.Cmp, cand *bat.BAT) *bat.BAT {
	in := s.add(OpSelectCmp, 1, []*bat.BAT{a, b, cand}, func(in *PInstr) { in.Cmp = cmp })
	return in.Rets[0]
}

// Project routes algebra.leftfetchjoin (§5.2.2).
func (s *Session) Project(cand, col *bat.BAT) *bat.BAT {
	return s.add(OpProject, 1, []*bat.BAT{cand, col}, nil).Rets[0]
}

// Join routes algebra.join.
func (s *Session) Join(l, r *bat.BAT) (*bat.BAT, *bat.BAT) {
	in := s.add(OpJoin, 2, []*bat.BAT{l, r}, nil)
	return in.Rets[0], in.Rets[1]
}

// ThetaJoin routes algebra.thetajoin (inequality joins via nested loops).
func (s *Session) ThetaJoin(l, r *bat.BAT, cmp ops.Cmp) (*bat.BAT, *bat.BAT) {
	in := s.add(OpThetaJoin, 2, []*bat.BAT{l, r}, func(in *PInstr) { in.Cmp = cmp })
	return in.Rets[0], in.Rets[1]
}

// SemiJoin routes algebra.semijoin (EXISTS).
func (s *Session) SemiJoin(l, r *bat.BAT) *bat.BAT {
	return s.add(OpSemiJoin, 1, []*bat.BAT{l, r}, nil).Rets[0]
}

// AntiJoin routes algebra.antijoin (NOT EXISTS).
func (s *Session) AntiJoin(l, r *bat.BAT) *bat.BAT {
	return s.add(OpAntiJoin, 1, []*bat.BAT{l, r}, nil).Rets[0]
}

// Group routes group.new / group.derive; grp refines a previous grouping.
// The returned count is an opaque handle resolved at execution time: thread
// it through to later Group/Aggr calls unchanged (plans must not do
// arithmetic on it).
func (s *Session) Group(col, grp *bat.BAT, ngrp int) (*bat.BAT, int) {
	slot := len(s.slots)
	s.slots = append(s.slots, -1)
	in := s.add(OpGroup, 1, []*bat.BAT{col, grp}, func(in *PInstr) {
		in.NSlot = slot
		s.setNgrp(in, ngrp)
	})
	s.slotProducer[slot] = in
	return in.Rets[0], encodeSlot(slot)
}

// Aggr routes aggr.sum/count/min/max/avg.
func (s *Session) Aggr(kind ops.Agg, vals, groups *bat.BAT, ngroups int) *bat.BAT {
	in := s.add(OpAggr, 1, []*bat.BAT{vals, groups}, func(in *PInstr) {
		in.Agg = kind
		s.setNgrp(in, ngroups)
	})
	return in.Rets[0]
}

// setNgrp records a literal group count or the symbolic slot it will come
// from.
func (s *Session) setNgrp(in *PInstr, n int) {
	if slot := decodeSlot(n); slot >= 0 {
		in.NgrpRef = slot
		return
	}
	in.NgrpLit = n
}

// Sort routes algebra.sort, returning the sorted column and the order.
func (s *Session) Sort(col *bat.BAT) (*bat.BAT, *bat.BAT) {
	in := s.add(OpSort, 2, []*bat.BAT{col}, nil)
	return in.Rets[0], in.Rets[1]
}

// Binop routes batcalc arithmetic.
func (s *Session) Binop(op ops.Bin, a, b *bat.BAT) *bat.BAT {
	in := s.add(OpBinop, 1, []*bat.BAT{a, b}, func(in *PInstr) { in.Bin = op })
	return in.Rets[0]
}

// BinopConst routes batcalc arithmetic against a constant.
func (s *Session) BinopConst(op ops.Bin, a *bat.BAT, c float64, constFirst bool) *bat.BAT {
	in := s.add(OpBinopConst, 1, []*bat.BAT{a}, func(in *PInstr) {
		in.Bin, in.C, in.ConstFirst = op, c, constFirst
	})
	return in.Rets[0]
}

// Union routes the disjunctive candidate combine (Figure 3's ∨).
func (s *Session) Union(a, b *bat.BAT) *bat.BAT {
	return s.add(OpUnion, 1, []*bat.BAT{a, b}, nil).Rets[0]
}

// Sync marks b as a plan output and flushes the pending plan through the
// rewriter and executor; the sync-insertion pass emits the explicit
// synchronisation instruction of §3.4. On return, b holds host-visible data
// with ownership handed back to "MonetDB".
func (s *Session) Sync(b *bat.BAT) *bat.BAT {
	if b == nil {
		return nil
	}
	s.markOutput(b)
	s.flush(false)
	return b
}

// ScalarF extracts the single float of a 1-row aggregate, syncing first.
func (s *Session) ScalarF(b *bat.BAT) float64 {
	s.Sync(b)
	if b.Len() != 1 {
		s.fail("scalar", fmt.Errorf("BAT %q has %d rows, want 1", b.Name, b.Len()))
	}
	switch b.T {
	case bat.F32:
		return float64(b.F32s()[0])
	case bat.I32:
		return float64(b.I32s()[0])
	default:
		s.fail("scalar", fmt.Errorf("BAT %q has non-numeric type %v", b.Name, b.T))
		return 0
	}
}

// ScalarI extracts the single int32 of a 1-row aggregate, syncing first.
func (s *Session) ScalarI(b *bat.BAT) int32 {
	s.Sync(b)
	if b.Len() != 1 || b.T != bat.I32 {
		s.fail("scalar", fmt.Errorf("BAT %q is not a 1-row int", b.Name))
	}
	return b.I32s()[0]
}

// drain executes any still-pending instructions without output-driven
// elimination; RunQuery calls it after the plan function returns so that
// errors in instructions no path ever synced still surface.
func (s *Session) drain() { s.flush(false) }
