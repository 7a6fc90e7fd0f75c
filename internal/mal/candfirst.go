// Candidate-first rewriting (DESIGN.md): a gather chain moves under the
// candidate list restricting it, when every consumer reads it under one,
//
//	R1: Project(x, Project(y, z))  =  Project(Project(x, y), z), x a candidate list
//	R2: Select*(Project(y, z), …, c)  =  Project(Select*(Project(Project(c, y), z), …, nil), c)
//
// R2 when the chain holds two gathers or c refines a candidate list.
package mal

import (
	"slices"

	"repro/internal/bat"
)

// candFirst is one round of the pass over the final fragment.
type candFirst struct {
	s       *Session
	prod    map[*bat.BAT]*PInstr     // producers in the fragment
	uses    map[*bat.BAT][]*PInstr   // readers in the fragment
	push    map[*bat.BAT]bool        // which Projects move; outputs never do
	placed  map[*PInstr]bool         // instructions in the rewritten order
	memo    map[[2]*bat.BAT]*bat.BAT // (candidate, column) → column gathered under it
	mapBack map[*bat.BAT][2]*bat.BAT // map-back → (its selection, its candidate)
	emit    []*PInstr
}

func (s *Session) newCandFirst(batch []*PInstr, outputs []*bat.BAT) *candFirst {
	c := &candFirst{s: s, prod: map[*bat.BAT]*PInstr{}, uses: map[*bat.BAT][]*PInstr{},
		push: map[*bat.BAT]bool{}, placed: map[*PInstr]bool{},
		memo: map[[2]*bat.BAT]*bat.BAT{}, mapBack: map[*bat.BAT][2]*bat.BAT{}}
	for _, in := range batch {
		for _, r := range in.Rets {
			c.prod[r] = in
		}
		for _, a := range in.Args {
			c.uses[s.canon(a)] = append(c.uses[s.canon(a)], in)
		}
	}
	for _, o := range outputs {
		c.push[s.canon(o)] = false
	}
	return c
}

// candFirstPass rewrites the final fragment until no chain moves.
func (s *Session) candFirstPass(batch []*PInstr, outputs []*bat.BAT) []*PInstr {
	for moved := true; moved; batch, moved = s.newCandFirst(batch, outputs).rewrite(batch) {
		batch = s.dcePass(batch, outputs)
	}
	return batch
}

func (c *candFirst) of(v *bat.BAT) *PInstr { return c.prod[c.s.canon(v)] }

func isSelection(in *PInstr) bool { return in.Kind == OpSelect || in.Kind == OpSelectCmp }

// cand: is v a selection, semijoin, antijoin, union or Project of candidate
// lists; is it a semijoin, selection with a candidate, or union or Project of those.
func (c *candFirst) cand(v *bat.BAT) (is, refines bool) {
	in := c.of(v)
	if in == nil || in.Kind != OpUnion && in.Kind != OpProject {
		return in != nil && (isSelection(in) || in.Kind == OpSemiJoin || in.Kind == OpAntiJoin),
			in != nil && (in.Kind == OpSemiJoin || isSelection(in) && in.Args[len(in.Args)-1] != nil)
	}
	a, ra := c.cand(in.Args[0])
	b, rb := c.cand(in.Args[1])
	if in.Kind == OpUnion {
		return true, ra && rb
	}
	return a && b, a && b
}

// restricted: in reads Project result v in R1, as a moving link, or in R2.
func (c *candFirst) restricted(in *PInstr, v *bat.BAT) bool {
	n := len(in.Args) - 1
	switch {
	case in.Kind == OpProject && c.s.canon(in.Args[1]) == v:
		is, _ := c.cand(in.Args[0])
		return is
	case in.Kind == OpProject:
		return c.pushable(in.Rets[0])
	case !isSelection(in) || in.Args[n] == nil || c.s.canon(in.Args[n]) == v:
		return false
	}
	_, refines := c.cand(in.Args[n])
	return refines || slices.ContainsFunc(in.Args[:n], func(a *bat.BAT) bool {
		p := c.of(a)
		return p != nil && p.Kind == OpProject && c.of(p.Args[0]) != nil && c.of(p.Args[0]).Kind == OpProject
	})
}

// pushable: v is a Project, not an output, every consumer reads restricted.
func (c *candFirst) pushable(v *bat.BAT) bool {
	v = c.s.canon(v)
	if p, ok := c.push[v]; ok {
		return p
	}
	ok := c.prod[v] != nil && c.prod[v].Kind == OpProject
	for _, in := range c.uses[v] {
		ok = ok && c.restricted(in, v)
	}
	c.push[v] = ok
	return ok
}

// rewrite applies R1 and R2 once in plan order, aliasing what it rewrote.
func (c *candFirst) rewrite(batch []*PInstr) ([]*PInstr, bool) {
	moved := false
	for _, in := range batch {
		var v *bat.BAT
		switch n := len(in.Args) - 1; {
		case in.Kind == OpProject && !c.pushable(in.Rets[0]) && c.pushable(in.Args[1]):
			v = c.gather(in.Args[0], in.Args[1])
		case isSelection(in) && slices.ContainsFunc(in.Args[:n], c.pushable):
			sel := *in
			sel.Args = make([]*bat.BAT, n+1)
			for i, a := range in.Args[:n] {
				sel.Args[i] = c.gather(in.Args[n], a)
			}
			inner, cand := c.mk(&sel), c.s.canon(in.Args[n])
			v = c.mk(&PInstr{Kind: OpProject, Args: []*bat.BAT{inner, cand}})
			c.mapBack[v] = [2]*bat.BAT{inner, cand}
		default:
			in.ID, c.s.nextID, c.placed[in] = c.s.nextID, c.s.nextID+1, true // fusion checks member order by ID
			c.emit = append(c.emit, in)
			continue
		}
		c.s.tpl.alias[in.Rets[0]] = v
		moved = true
	}
	return c.emit, moved
}

// gather returns col at x's rows: via a map-back Project(sel, c) as
// Project(sel, Project(c, col)) if gathered, by R1 down a moving chain, or one Project.
func (c *candFirst) gather(x, col *bat.BAT) *bat.BAT {
	x, col = c.s.canon(x), c.s.canon(col)
	key, in := [2]*bat.BAT{x, col}, c.prod[col]
	mb := c.mapBack[x]
	switch under := c.memo[[2]*bat.BAT{mb[1], col}]; {
	case c.memo[key] != nil:
	case under != nil:
		c.memo[key] = c.mk(&PInstr{Kind: OpProject, Args: []*bat.BAT{mb[0], under}})
	case c.pushable(col):
		c.memo[key] = c.gather(c.gather(x, in.Args[0]), in.Args[1])
	default:
		c.memo[key] = c.mk(&PInstr{Kind: OpProject, Args: []*bat.BAT{x, col}})
	}
	return c.memo[key]
}

// mk places an instruction through the CSE table.
func (c *candFirst) mk(in *PInstr) *bat.BAT {
	key := c.s.cseKey(in)
	if prev, ok := c.s.cseTab[key]; ok && c.placed[prev] {
		return prev.Rets[0]
	}
	in.Module, in.NgrpRef, in.NSlot, in.Rets = c.s.module, -1, -1, []*bat.BAT{c.s.newPlaceholder()}
	in.ID, c.s.nextID, c.s.cseTab[key], c.placed[in] = c.s.nextID, c.s.nextID+1, in, true
	c.emit = append(c.emit, in)
	return in.Rets[0]
}

// checkCandFirst is the verifier's cand-first rule: no chain is left that moves,
// and a map-back Project(sel, c) selects over columns aligned with c's rows.
func (s *Session) checkCandFirst(batch []*PInstr, outputs []*bat.BAT, fail func(int, *PInstr, string, string, ...any) *VerifyError) *VerifyError {
	c := s.newCandFirst(batch, outputs)
	rows := func(v *bat.BAT) *bat.BAT {
		for in := c.of(v); in != nil && slices.Contains([]OpKind{OpProject, OpGroup, OpBinop, OpBinopConst}, in.Kind); in = c.of(v) {
			v = in.Args[0]
		}
		return s.canon(v)
	}
	for i, in := range batch {
		if in.Kind == OpProject && c.pushable(in.Rets[0]) {
			return fail(i, in, "cand-first", "%q is read only under candidate lists but stays full-length", in.Rets[0].Name)
		}
		sel := c.of(in.Args[0])
		if is, _ := c.cand(in.Args[len(in.Args)-1]); in.Kind != OpProject || !is || sel == nil || !isSelection(sel) || sel.Args[len(sel.Args)-1] != nil {
			continue
		}
		for _, a := range sel.Args[:len(sel.Args)-1] {
			if got, want := rows(a), rows(in.Args[1]); got != want {
				return fail(i, in, "cand-first", "map-back through %q selects over rows of %q", want.Name, got.Name)
			}
		}
	}
	return nil
}
