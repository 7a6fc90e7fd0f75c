// The plan-IR verifier: after each rewriter pass, the rewritten fragment is
// checked against the invariants the pass pipeline is supposed to preserve —
// def-before-use across fragments, exactly-one-release liveness with no
// read-after-release, sync insertion at host boundaries, fused-region
// legality, placement-pin resolvability, group-count handle validity, and
// the candidate-first rewrite's shape. A violation aborts the plan with a
// structured VerifyError naming the pass, fragment, instruction and rule,
// so a bad pass edit surfaces as a diagnostic instead of a wrong answer
// three layers down.
//
// Verification is always on: every plan build checks each pass's output,
// in test binaries and production binaries alike, and there is no switch to
// turn it off. A sealed Template is therefore verified by construction —
// it holds exactly the fragments the build proved, plus pins sealing may
// move, which placeObserved re-checks against the pin rule — so replays
// never enter the verifier and PlanCache hits pay nothing for it.
package mal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bat"
	"repro/internal/hybrid"
)

// VerifyError is a structured verifier diagnostic: which rewriter pass left
// the plan in an illegal state, where, and which invariant broke.
type VerifyError struct {
	// Pass is the rewriter stage after which the violation was detected
	// ("bind", "cse", "cand-first", "dce", "fuse", "sync-insert", "placement",
	// "release-insert", "pipeline" for the final whole-fragment check when
	// early release is off, or "seal" for the re-check of the pins sealing
	// moved).
	Pass string
	// Rule names the violated invariant (e.g. "def-before-use",
	// "use-after-release", "pin-resolvable", "fused-single-exit").
	Rule string
	// Frag is the fragment index in flush order; Instr the instruction index
	// within the fragment (-1 for fragment-level rules such as a missing
	// sync); Op the offending instruction's operator label ("" when Instr
	// is -1).
	Frag  int
	Instr int
	Op    string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *VerifyError) Error() string {
	where := "fragment-level"
	if e.Instr >= 0 {
		where = fmt.Sprintf("instr %d (%s)", e.Instr, e.Op)
	}
	return fmt.Sprintf("mal: verify after pass %q: frag %d, %s: rule %q: %s",
		e.Pass, e.Frag, where, e.Rule, e.Detail)
}

// vRules selects which invariant families a stage check enforces: a pass
// can only be blamed for invariants whose machinery has already run (sync
// instructions do not exist before sync insertion, pins before placement).
type vRules uint8

const (
	vData vRules = 1 << iota // def-before-use, group-count handles
	vFuse                    // fused-region legality
	vSync                    // sync before the host boundary
	vPin                     // placement pins resolve on the device set
	vRel                     // release liveness
	vCand                    // candidate-first, right after that pass only

	vAll = vData | vFuse | vSync | vPin | vRel
)

// verifier is the committed cross-fragment state: what earlier (already
// checked and executed) fragments of this plan produced and released.
// Fragment checks are pure against it; vcommit merges a fragment in only
// after the whole fragment passed.
type verifier struct {
	produced map[*bat.BAT]bool // canonical plan values produced by committed fragments
	released map[*bat.BAT]bool // canonical values released by committed fragments
	slotProd map[int]bool      // group-count slots with a committed producing Group
	frags    int               // committed fragment count (== next fragment index)
}

func (s *Session) vstateInit() *verifier {
	if s.vstate == nil {
		s.vstate = &verifier{
			produced: map[*bat.BAT]bool{},
			released: map[*bat.BAT]bool{},
			slotProd: map[int]bool{},
		}
	}
	return s.vstate
}

// vcheck runs a stage check after one rewriter pass and aborts the plan on
// a violation. It does not commit fragment state — flush calls it once per
// pass over the evolving batch, then vcommit once with the final batch.
func (s *Session) vcheck(pass string, batch []*PInstr, outputs []*bat.BAT, rules vRules) {
	if err := s.checkFragment(pass, batch, outputs, rules, false); err != nil {
		panic(abort{err})
	}
}

// vcommit runs the full-rule check over the completely rewritten fragment,
// then merges it into the committed cross-fragment state. final marks the
// plan's last flush, where release coverage is total.
func (s *Session) vcommit(pass string, batch []*PInstr, outputs []*bat.BAT, final bool) {
	if err := s.checkFragment(pass, batch, outputs, vAll, final); err != nil {
		panic(abort{err})
	}
	v := s.vstateInit()
	for _, in := range batch {
		if in.Kind == OpRelease {
			if len(in.Args) > 0 && in.Args[0] != nil {
				v.released[s.canon(in.Args[0])] = true
			}
			continue
		}
		// Fused interiors are deliberately not recorded: only the region's
		// exit values (in.Rets) are addressable outside it. Sync
		// instructions return nothing.
		for _, r := range in.Rets {
			v.produced[s.canon(r)] = true
		}
		if in.Kind == OpGroup && in.NSlot >= 0 {
			v.slotProd[in.NSlot] = true
		}
	}
	v.frags++
}

// deviceLabels returns the resolvable pin labels of the session's engine
// (the labels hybrid.Engine.On accepts), or nil for non-hybrid engines where
// every pin is illegal.
func (s *Session) deviceLabels() map[string]bool {
	h, ok := s.o.(*hybrid.Engine)
	if !ok {
		return nil
	}
	labels := map[string]bool{}
	for _, d := range h.Devices() {
		labels[d.Label] = true
	}
	return labels
}

func labelList(labels map[string]bool) string {
	out := make([]string, 0, len(labels))
	for l := range labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// checkFragment verifies one rewritten fragment against the committed
// cross-fragment state without mutating it. outputs are the fragment's
// host-boundary values (markOutput order); final enables total release
// coverage. Returns the first violation found, or nil.
func (s *Session) checkFragment(pass string, batch []*PInstr, outputs []*bat.BAT, rules vRules, final bool) *VerifyError {
	v := s.vstateInit()
	fail := func(i int, in *PInstr, rule, format string, args ...any) *VerifyError {
		e := &VerifyError{Pass: pass, Rule: rule, Frag: v.frags, Instr: i, Detail: fmt.Sprintf(format, args...)}
		if in != nil {
			e.Op = in.OpName()
		}
		return e
	}

	var labels map[string]bool
	if rules&vPin != 0 {
		labels = s.deviceLabels()
	}
	exempt := map[*bat.BAT]bool{}
	for _, o := range outputs {
		if o != nil {
			exempt[s.canon(o)] = true
		}
	}

	local := map[*bat.BAT]bool{} // produced earlier in this batch (canonical)
	localRel := map[*bat.BAT]bool{}
	localSlots := map[int]bool{}
	producedAt := func(b *bat.BAT) bool { return local[b] || v.produced[b] }
	defined := func(b *bat.BAT) bool { return !s.tpl.isPH[b] || producedAt(b) }
	relAt := func(b *bat.BAT) bool { return localRel[b] || v.released[b] }

	for i, in := range batch {
		if rules&vData != 0 {
			for _, a := range in.Args {
				if a == nil {
					continue
				}
				a = s.canon(a)
				if !defined(a) {
					return fail(i, in, "def-before-use", "argument %q used before it is produced", a.Name)
				}
			}
			// Group-count plumbing only exists on Group/Aggr: every other
			// kind leaves NgrpRef at its zero value (rewriter-minted Sync and
			// Release instructions never pass through Session.add).
			if in.Kind == OpGroup || in.Kind == OpAggr {
				if in.NgrpRef >= 0 {
					slot := s.canonSlot(in.NgrpRef)
					if !(localSlots[slot] || v.slotProd[slot]) {
						return fail(i, in, "group-count-handle",
							"group count reads slot %d with no producing Group instruction", slot)
					}
				} else if in.NgrpLit < 0 {
					return fail(i, in, "group-count-handle",
						"negative literal group count %d (raw slot handle used as a literal?)", in.NgrpLit)
				}
			}
			if in.Kind == OpGroup {
				if in.NSlot < 0 {
					return fail(i, in, "group-count-handle", "Group instruction writes no slot")
				}
				if localSlots[in.NSlot] || v.slotProd[in.NSlot] {
					return fail(i, in, "group-count-handle", "slot %d has two producing Group instructions", in.NSlot)
				}
			}
		}

		if rules&vRel != 0 {
			for _, a := range in.Args {
				if a == nil {
					continue
				}
				a = s.canon(a)
				if relAt(a) {
					if in.Kind == OpRelease {
						return fail(i, in, "double-release", "value %q is released twice", a.Name)
					}
					return fail(i, in, "use-after-release", "argument %q is read after its release", a.Name)
				}
			}
			for _, m := range in.Sub {
				for _, a := range m.Args {
					if a == nil {
						continue
					}
					if a = s.canon(a); relAt(a) {
						return fail(i, in, "use-after-release",
							"fused member %s reads %q after its release", m.OpName(), a.Name)
					}
				}
			}
			if in.Kind == OpRelease && len(in.Args) > 0 && in.Args[0] != nil {
				a := s.canon(in.Args[0])
				if !s.tpl.isPH[a] {
					return fail(i, in, "release-of-foreign", "release of base BAT %q the plan does not own", a.Name)
				}
				if final && exempt[a] {
					return fail(i, in, "release-of-output", "release of plan output %q", a.Name)
				}
				localRel[a] = true
			}
		}

		if rules&vFuse != 0 && in.Kind == OpFused {
			if e := s.checkFused(batch, outputs, i, in, defined, fail); e != nil {
				return e
			}
		}

		if rules&vPin != 0 {
			pin := in.Device
			switch {
			case !in.computes():
				if pin != "" {
					return fail(i, in, "pin-resolvable", "%s instructions are never pinned (got %q)", in.OpName(), pin)
				}
			case pin != "":
				if labels == nil {
					return fail(i, in, "pin-resolvable", "pin %q on a non-hybrid engine", pin)
				}
				if !labels[pin] {
					return fail(i, in, "pin-resolvable", "pin %q resolves to no device (have %s)", pin, labelList(labels))
				}
			}
		}

		if in.computes() {
			for _, r := range in.Rets {
				local[s.canon(r)] = true
			}
			if in.Kind == OpGroup && in.NSlot >= 0 {
				localSlots[in.NSlot] = true
			}
		}
	}

	if rules&vSync != 0 {
		syncedHere := map[*bat.BAT]bool{}
		for _, in := range batch {
			if in.Kind == OpSync && len(in.Args) > 0 && in.Args[0] != nil {
				syncedHere[s.canon(in.Args[0])] = true
			}
		}
		for _, o := range outputs {
			if o == nil {
				continue
			}
			if !syncedHere[s.canon(o)] {
				return fail(-1, nil, "sync-before-host-boundary",
					"output %q crosses the host boundary without a Sync instruction", o.Name)
			}
		}
	}

	// Exactly-one-release coverage: at the final flush with early release
	// on, every intermediate the plan ever produced must be released, except
	// the final outputs (they just crossed the plan boundary). Together with
	// the double-release rule above this is "exactly one".
	if final && s.passes.EarlyRelease && rules&vRel != 0 {
		leak := func(set map[*bat.BAT]bool) *VerifyError {
			for b := range set {
				if !exempt[b] && !relAt(b) {
					return fail(-1, nil, "missing-release", "intermediate %q is never released", b.Name)
				}
			}
			return nil
		}
		if e := leak(v.produced); e != nil {
			return e
		}
		if e := leak(local); e != nil {
			return e
		}
	}

	if rules&vCand != 0 {
		if e := s.checkCandFirst(batch, outputs, fail); e != nil {
			return e
		}
	}
	return nil
}

// checkFused re-proves the fusion pass's legality claims for one OpFused
// instruction: the region is non-trivial, its exits are its root's result or
// a grouped region's aggregates' (checkGroupChain), members run in plan
// order, no interior value escapes, the external inputs are exactly Args, no
// member binds a parameter, and members are pinned as one unit.
func (s *Session) checkFused(batch []*PInstr, outputs []*bat.BAT, i int, in *PInstr,
	defined func(*bat.BAT) bool,
	fail func(int, *PInstr, string, string, ...any) *VerifyError) *VerifyError {

	if in.Fuse == nil || len(in.Sub) < 2 {
		return fail(i, in, "fused-nonempty", "fused region with %d members (descriptor %v)", len(in.Sub), in.Fuse != nil)
	}
	for k := 1; k < len(in.Sub); k++ {
		if in.Sub[k].ID <= in.Sub[k-1].ID {
			return fail(i, in, "fused-order", "members %d,%d out of plan order (IDs %d,%d)",
				k-1, k, in.Sub[k-1].ID, in.Sub[k].ID)
		}
	}

	interior := map[*bat.BAT]bool{}
	if len(in.Fuse.Keys) > 0 {
		if e := s.checkGroupChain(batch, i, in, interior, fail); e != nil {
			return e
		}
	} else {
		last := in.Sub[len(in.Sub)-1]
		if len(last.Rets) != len(in.Rets) {
			return fail(i, in, "fused-single-exit", "exit member returns %d values, region returns %d", len(last.Rets), len(in.Rets))
		}
		for k := range last.Rets {
			if last.Rets[k] != in.Rets[k] {
				return fail(i, in, "fused-single-exit", "region result %d is not the exit member's result", k)
			}
		}
		for _, m := range in.Sub[:len(in.Sub)-1] {
			for _, r := range m.Rets {
				interior[s.canon(r)] = true
			}
		}
	}

	// Interior def-before-use and the external input set.
	ext := map[*bat.BAT]bool{}
	seen := map[*bat.BAT]bool{}
	for mi, m := range in.Sub {
		if len(m.Params) > 0 {
			return fail(i, in, "fused-param-free", "member %d (%s) binds parameter %q", mi, m.OpName(), m.Params[0].Name)
		}
		if m.Device != "" && m.Device != in.Device {
			return fail(i, in, "fused-pin-unit", "member %d (%s) pinned to %q, region pinned to %q",
				mi, m.OpName(), m.Device, in.Device)
		}
		for _, a := range m.Args {
			if a == nil {
				continue
			}
			a = s.canon(a)
			if interior[a] {
				if !seen[a] {
					return fail(i, in, "def-before-use",
						"fused member %d (%s) reads interior value %q before it is produced", mi, m.OpName(), a.Name)
				}
				continue
			}
			ext[a] = true
			if !defined(a) {
				return fail(i, in, "def-before-use", "fused member %d (%s) reads %q before it is produced", mi, m.OpName(), a.Name)
			}
		}
		for _, r := range m.Rets {
			if r := s.canon(r); interior[r] {
				seen[r] = true
			}
		}
	}

	// Externals must be exactly the region's Args — that is what release
	// insertion and placement believe the region reads.
	argSet := map[*bat.BAT]bool{}
	for _, a := range in.Args {
		if a != nil {
			argSet[s.canon(a)] = true
		}
	}
	for a := range ext {
		if !argSet[a] {
			return fail(i, in, "fused-args-consistent", "member input %q missing from the region's Args", a.Name)
		}
	}
	for a := range argSet {
		if !ext[a] {
			return fail(i, in, "fused-args-consistent", "region Args carry %q, which no member reads", a.Name)
		}
	}

	// No interior value may escape: not into other instructions of the
	// fragment (or their fused members), not into the fragment's outputs,
	// not into the region's own Args or Rets (single exit already checked).
	for j, other := range batch {
		if j == i {
			continue
		}
		check := func(p *PInstr) *VerifyError {
			for _, a := range p.Args {
				if a != nil && interior[s.canon(a)] {
					return fail(i, in, "fused-interior-escape",
						"interior value %q escapes to instr %d (%s)", s.canon(a).Name, j, other.OpName())
				}
			}
			return nil
		}
		if e := check(other); e != nil {
			return e
		}
		for _, m := range other.Sub {
			if e := check(m); e != nil {
				return e
			}
		}
	}
	for _, o := range outputs {
		if o != nil && interior[s.canon(o)] {
			return fail(i, in, "fused-interior-escape", "interior value %q is a fragment output", s.canon(o).Name)
		}
	}
	return nil
}

// checkGroupChain re-proves a grouped region's shape and fills interior with
// its group ids: the members are group instructions, the first over no
// previous grouping and each later one refining the ids and count of the one
// before, then aggregates over the last one's ids and count, in the order of
// the descriptor and of the region's results; each link's ids are read only
// by the next link and the last link's only by the aggregates, as values
// never; and no instruction outside the region reads a group count of it.
func (s *Session) checkGroupChain(batch []*PInstr, i int, in *PInstr, interior map[*bat.BAT]bool,
	fail func(int, *PInstr, string, string, ...any) *VerifyError) *VerifyError {

	chain := func(format string, args ...any) *VerifyError {
		return fail(i, in, "fused-group-chain", format, args...)
	}
	var groups, aggs []*PInstr
	for _, m := range in.Sub {
		switch {
		case m.Kind == OpGroup && aggs == nil:
			groups = append(groups, m)
		case m.Kind == OpAggr:
			aggs = append(aggs, m)
		default:
			return chain("member %s in a grouped region", m.OpName())
		}
	}
	f := in.Fuse
	if len(groups) != len(f.Keys) || len(aggs) != len(f.Aggs) || len(aggs) != len(in.Rets) || len(aggs) == 0 {
		return chain("%d groupings and %d aggregates for %d keys, %d aggregates and %d results",
			len(groups), len(aggs), len(f.Keys), len(f.Aggs), len(in.Rets))
	}
	slots := map[int]bool{}
	for j, g := range groups {
		if s.canon(g.Args[0]) != f.Keys[j] {
			return chain("link %d does not group the descriptor's key %d", j, j)
		}
		if j == 0 && (g.Args[1] != nil || g.NgrpRef >= 0) {
			return chain("the first link refines a previous grouping")
		}
		if j > 0 && (s.canon(g.Args[1]) != groups[j-1].Rets[0] || g.NgrpRef < 0 || s.canonSlot(g.NgrpRef) != s.canonSlot(groups[j-1].NSlot)) {
			return chain("link %d does not refine link %d's ids and count", j, j-1)
		}
		interior[g.Rets[0]] = true
		slots[s.canonSlot(g.NSlot)] = true
	}
	last := groups[len(groups)-1]
	for k, a := range aggs {
		if s.canon(a.Args[1]) != last.Rets[0] || a.NgrpRef < 0 || s.canonSlot(a.NgrpRef) != s.canonSlot(last.NSlot) {
			return chain("aggregate %d (%s) is not over the last link's ids and count", k, a.OpName())
		}
		if in.Rets[k] != a.Rets[0] || f.Aggs[k].Kind != a.Agg || f.Aggs[k].Vals != s.canon(a.Args[0]) {
			return chain("aggregate %d (%s) is not the region's result %d", k, a.OpName(), k)
		}
	}
	// The checks above place every read of ids as previous ids or groups;
	// no member reads ids as its key or values either.
	for _, m := range in.Sub {
		if interior[s.canon(m.Args[0])] {
			return chain("member %s reads group ids as values", m.OpName())
		}
	}
	// Outside the region: no group count (the ids are interior, checked by
	// the caller). Only Group and Aggr carry one: the rewriter mints Sync
	// and Release instructions with a zero NgrpRef.
	for j, other := range batch {
		if j == i {
			continue
		}
		for _, p := range append([]*PInstr{other}, other.Sub...) {
			if (p.Kind == OpGroup || p.Kind == OpAggr) && p.NgrpRef >= 0 && slots[s.canonSlot(p.NgrpRef)] {
				return fail(i, in, "fused-interior-escape", "the region's group count escapes to instr %d (%s)", j, other.OpName())
			}
		}
	}
	return nil
}

// syncArgs reconstructs a fragment's host-boundary outputs from its Sync
// instructions.
func syncArgs(batch []*PInstr) []*bat.BAT {
	var out []*bat.BAT
	for _, in := range batch {
		if in.Kind == OpSync && len(in.Args) > 0 && in.Args[0] != nil {
			out = append(out, in.Args[0])
		}
	}
	return out
}
