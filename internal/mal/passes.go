// The rewriter pass pipeline. flush runs the pending plan fragment through
// the passes in order — module binding, common-subexpression elimination,
// dead-instruction elimination, sync insertion, plan-level placement, and
// last-use release insertion — then hands the rewritten fragment to the
// executor. This is the Go rendering of the paper's query-rewriter layer
// (§3.1): the plan is built engine-neutrally and *rewritten* to route
// through one module, with synchronisation instructions inserted at plan
// boundaries (§3.4) and device state released as early as liveness allows.
// Every rewritten fragment is also recorded on the session's Template, so a
// completed plan can be re-executed from the cache without re-running any
// pass (cache.go).
package mal

import (
	"fmt"
	"strings"

	"repro/internal/bat"
)

// flush rewrites and executes the pending fragment. final marks the last
// flush of the plan (the Result call): only there is full liveness known,
// so dead-instruction elimination and early-release insertion apply; at
// intermediate boundaries (mid-plan Sync/Scalar extractions) later plan
// code may still reference any pending value, and eliminating or releasing
// it would be unsound.
func (s *Session) flush(final bool) {
	batch := s.pending
	s.pending = nil
	outputs := s.outputs
	s.outputs = nil
	s.outSet = map[*bat.BAT]bool{}
	if len(batch) == 0 && len(outputs) == 0 {
		return
	}

	// Each pass is followed by a verifier stage check (no-ops unless the
	// session verifies): a pass can only be blamed for invariants whose
	// machinery has already run, so the rule set widens down the pipeline
	// and vcommit runs the full set over the finished fragment.
	s.bindPass(batch)
	s.vcheck("bind", batch, nil, vData)
	if s.passes.CSE {
		batch = s.csePass(batch)
		s.vcheck("cse", batch, nil, vData)
	}
	if final && s.passes.DCE && len(outputs) > 0 {
		batch = s.dcePass(batch, outputs)
		s.vcheck("dce", batch, nil, vData)
	}
	if final && s.passes.Fusion {
		// Fusion needs the full liveness picture — at intermediate
		// boundaries later plan code may still consume any pending value —
		// so, like DCE, it only runs at the final flush.
		batch = s.fusePass(batch, outputs)
		s.vcheck("fuse", batch, outputs, vData|vFuse)
	}
	batch = append(batch, s.syncInsertPass(outputs)...)
	s.vcheck("sync-insert", batch, outputs, vData|vFuse|vSync)
	if s.passes.Placement {
		s.placementPass(batch, outputs)
		s.vcheck("placement", batch, outputs, vData|vFuse|vSync|vPin)
	}
	vpass := "pipeline"
	if final && s.passes.EarlyRelease {
		batch = s.releaseInsertPass(batch, outputs)
		vpass = "release-insert"
	}
	f := s.newFragment(batch)
	s.vcommit(vpass, f, outputs, final)
	s.tpl.frags = append(s.tpl.frags, f)
	s.execute(f)
}

// bindPass is the module-binding rewrite: the drop-in swap of §3.1. Every
// instruction is stamped with the module label of the bound ops.Operators
// implementation.
func (s *Session) bindPass(batch []*PInstr) {
	for _, in := range batch {
		in.Module = s.module
	}
}

// canon resolves CSE aliasing to the canonical placeholder (one level: the
// alias target is always a surviving instruction's own result).
func (s *Session) canon(b *bat.BAT) *bat.BAT {
	if a, ok := s.tpl.alias[b]; ok {
		return a
	}
	return b
}

// canonSlot resolves group-count slot aliasing.
func (s *Session) canonSlot(slot int) int {
	if a, ok := s.tpl.slotAlias[slot]; ok {
		return a
	}
	return slot
}

// cseKey builds the expression signature of a pure instruction: kind, the
// canonical identity of every operand, the scalar parameters, the
// (canonicalised) group-count source, and the identity of any bound
// parameters — two instructions whose scalars happen to coincide today but
// are re-bound through different parameter names must not merge, or
// re-binding one would silently change the other.
func (s *Session) cseKey(in *PInstr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", int(in.Kind))
	for _, a := range in.Args {
		if a != nil {
			a = s.canon(a)
		}
		fmt.Fprintf(&sb, "|%p", a)
	}
	sb.WriteByte('|')
	sb.WriteString(in.paramsKey())
	if in.Kind == OpGroup || in.Kind == OpAggr {
		if in.NgrpRef >= 0 {
			fmt.Fprintf(&sb, "|s%d", s.canonSlot(in.NgrpRef))
		} else {
			fmt.Fprintf(&sb, "|l%d", in.NgrpLit)
		}
	}
	for _, ref := range in.Params {
		fmt.Fprintf(&sb, "|P%d=%s", int(ref.Field), ref.Name)
	}
	return sb.String()
}

// csePass merges instructions recomputing an identical pure expression
// (e.g. the repeated Project(cand, col) pairs Q1/Q3/Q10 build through the
// revenue helper): the duplicate is dropped and its placeholders alias the
// canonical instruction's results. All plan operators are pure — they
// depend only on their operands and parameters — so reuse is always sound;
// the table persists across flush fragments because earlier fragments'
// results stay addressable.
func (s *Session) csePass(batch []*PInstr) []*PInstr {
	kept := batch[:0]
	for _, in := range batch {
		key := s.cseKey(in)
		if prev, ok := s.cseTab[key]; ok {
			for i, r := range in.Rets {
				s.tpl.alias[r] = prev.Rets[i]
			}
			if in.NSlot >= 0 && prev.NSlot >= 0 {
				s.tpl.slotAlias[in.NSlot] = s.canonSlot(prev.NSlot)
			}
			continue
		}
		s.cseTab[key] = in
		kept = append(kept, in)
	}
	return kept
}

// dcePass drops instructions whose results never (transitively) reach a
// plan output. It runs only at the final flush, where the output set is the
// complete liveness root set.
func (s *Session) dcePass(batch []*PInstr, outputs []*bat.BAT) []*PInstr {
	live := map[*bat.BAT]bool{}
	for _, o := range outputs {
		live[s.canon(o)] = true
	}
	keepIdx := make([]bool, len(batch))
	for i := len(batch) - 1; i >= 0; i-- {
		in := batch[i]
		isLive := false
		for _, r := range in.Rets {
			if live[r] {
				isLive = true
				break
			}
		}
		if !isLive {
			continue
		}
		keepIdx[i] = true
		for _, a := range in.Args {
			if a != nil {
				live[s.canon(a)] = true
			}
		}
		// A symbolic group count keeps its producing Group instruction
		// alive even if the id column itself were reachable another way.
		// Parameter slots have no producer.
		if in.NgrpRef >= 0 {
			if prod := s.slotProducer[s.canonSlot(in.NgrpRef)]; prod != nil {
				for _, r := range prod.Rets {
					live[r] = true
				}
			}
		}
	}
	kept := batch[:0]
	for i, in := range batch {
		if keepIdx[i] {
			kept = append(kept, in)
		}
	}
	return kept
}

// syncInsertPass emits the explicit synchronisation instructions of §3.4
// for the fragment's outputs — the rewriter's automatic sync insertion for
// values leaving the plan (and only those).
func (s *Session) syncInsertPass(outputs []*bat.BAT) []*PInstr {
	syncs := make([]*PInstr, 0, len(outputs))
	for _, o := range outputs {
		in := &PInstr{ID: s.nextID, Kind: OpSync, Module: s.module, Args: []*bat.BAT{o}}
		s.nextID++
		syncs = append(syncs, in)
	}
	return syncs
}

// newRelease mints a Release instruction for a plan value.
func (s *Session) newRelease(b *bat.BAT) *PInstr {
	rel := &PInstr{ID: s.nextID, Kind: OpRelease, Module: s.module, Args: []*bat.BAT{b}}
	s.nextID++
	return rel
}

// releaseInsertPass inserts Release instructions after each plan-produced
// intermediate's last use, so device memory is freed mid-plan instead of at
// Session.Close. It runs at the final flush, where liveness covers the
// whole plan, and tracks intermediates across *all* fragments: values
// produced before an intermediate flush boundary (a mid-plan Sync or scalar
// extraction) that the final fragment never reads are released before the
// fragment runs, instead of holding device memory until Close. Final
// outputs are exempt (they just crossed the plan boundary); results a
// surviving instruction produced but nothing consumes (a Sort's unused
// order column, a Join's unused right side) are released immediately after
// their producer.
func (s *Session) releaseInsertPass(batch []*PInstr, outputs []*bat.BAT) []*PInstr {
	exempt := map[*bat.BAT]bool{}
	for _, o := range outputs {
		exempt[s.canon(o)] = true
	}
	// Index space: earlier fragments' intermediates start at preIdx (release
	// before the final fragment); uses inside the final fragment move the
	// last use to the consuming instruction's index.
	const preIdx = -1
	lastUse := map[*bat.BAT]int{}
	for _, in := range s.done {
		if !in.computes() {
			continue
		}
		for _, r := range in.Rets {
			if !exempt[r] {
				lastUse[r] = preIdx
			}
		}
	}
	for i, in := range batch {
		for _, r := range in.Rets {
			if !exempt[r] {
				lastUse[r] = i // producer index; overwritten by real uses
			}
		}
		for _, a := range in.Args {
			if a == nil {
				continue
			}
			a = s.canon(a)
			if _, tracked := lastUse[a]; tracked {
				lastUse[a] = i
			}
		}
	}
	// Bucket releases by their insertion point, in production order so the
	// rewritten plan is deterministic.
	var pre []*bat.BAT
	relAt := make([][]*bat.BAT, len(batch))
	emit := func(in *PInstr) {
		for _, r := range in.Rets {
			switch i, tracked := lastUse[r]; {
			case !tracked:
			case i == preIdx:
				pre = append(pre, r)
			default:
				relAt[i] = append(relAt[i], r)
			}
		}
	}
	for _, in := range s.done {
		if in.computes() {
			emit(in)
		}
	}
	for _, in := range batch {
		emit(in)
	}
	out := make([]*PInstr, 0, len(batch)+len(lastUse))
	for _, b := range pre {
		out = append(out, s.newRelease(b))
	}
	for i, in := range batch {
		out = append(out, in)
		for _, b := range relAt[i] {
			out = append(out, s.newRelease(b))
		}
	}
	return out
}
