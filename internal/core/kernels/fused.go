package kernels

import (
	"repro/internal/cl"
	"repro/internal/mem"
	"repro/internal/ops"
)

// Fused kernels: the execution side of operator fusion. A fusible region —
// a conjunction of selections over one base domain, an expression tree over
// columns projected through the selection, optionally a terminal scalar
// aggregate — runs as (at most) a fused selection pass, a materialisation,
// and a fused evaluation pass, instead of one kernel plus one intermediate
// column per member operator. The conjunction is the selection kernel with
// more than one filter (selectWords); the expression is compiled on the host
// into a flat program that one kernel runs a tile of rows at a time, its
// intermediates in tile registers — a Memory Manager scratch buffer with one
// share per work-item, standing in for OpenCL's work-group local memory — so
// only the region's final output is written.
//
// Bit-for-bit equivalence with the unfused operators is part of the
// contract: the program replicates the unfused kernels' promotion rules
// (CastI32F32 before float arithmetic, the BinopConst integral-constant
// rule), its Bin steps are the very loops MapBinop and MapBinopConst run
// (gather.go), and aggregate-terminated regions feed the same Reduce kernels
// the unfused Aggr uses.

// FusedPredFilter is one filter conjunct over device buffers: a range of
// keys, pre-collapsed by the host to the inclusive interval [Lo, Hi]
// (I32RangeBounds, F32RangeBounds; Lo > Hi selects nothing), or a comparison
// of two columns of one type.
type FusedPredFilter struct {
	Float      bool
	IsCmp      bool
	Col, Other *cl.Buffer
	Lo, Hi     int32
	Cmp        ops.Cmp
}

// FusedExprNode mirrors ops.FusedNode with device buffers bound and node
// types resolved by the host (Float on column leaves is the column type, on
// Bin nodes the unfused promotion result).
type FusedExprNode struct {
	Kind    ops.FusedNodeKind
	Buf     *cl.Buffer
	Float   bool
	Aligned bool
	C       float64
	Bin     ops.Bin
	L, R    int
}

// A FusedProgram is a compiled expression: one step per gathered leaf,
// promotion cast and Bin node, in evaluation order, over tile registers.
type FusedProgram struct {
	steps []fusedStep
	regs  int // tile registers in use at once
	tile  int // rows per tile
	float bool
}

type stepKind uint8

const (
	stepGather stepKind = iota // dst = col[idx[i]]
	stepCopy                   // dst = a (an aliased root leaf)
	stepCast                   // dst = float32(a), a int32
	stepBin                    // dst = a ⟨bin⟩ b
)

type fusedStep struct {
	kind  stepKind
	float bool
	bin   ops.Bin
	dst   int // register, or -1 for the output column
	a, b  fusedArg
}

// A fusedArg is an operand: a constant, a tile register (reg >= 0), or a
// column aliased in place — col starts at the row of output position 0.
type fusedArg struct {
	col     []uint32
	reg     int
	isConst bool
	cf      float32
	ci      int32
}

// fusedTile returns the tile length for a program holding regs registers
// live: each work-item owns the share of the device's local memory it has
// under §4.2's geometry (one group of 4·n_a items per core), split across its
// registers. The registers are indexed by global id, so a launch by work,
// which puts more items in a group, does not move the share. Zero means the
// program does not fit.
func fusedTile(c cl.BuildConstants, regs int) int {
	tile := c.LocalMemSize / 4 / (4 * c.UnitsPerCore) / max(regs, 1)
	if tile >= 8 {
		tile &^= 7
	}
	return tile
}

// FusedFits reports whether an expression of the given node count can be
// compiled for dev: a node holds at most one register, a Bin step two more
// for its promoted operands.
func FusedFits(dev *cl.Device, nodes int) bool { return fusedTile(dev.Const, nodes+2) > 0 }

// CompileFusedExpr compiles the node slice (children before parents, the
// root last) for output positions whose domain row is idx[i] when gather is
// set and seq+i otherwise. Column leaves that need no gather alias the
// column; every other non-constant node gets a tile register, released after
// its last use, and the root writes the output column directly. Constant
// leaves convert the way the unfused BinopConst kernel would: float32(c) in
// float context, int32(c) in integer context — never float32(int32(c)).
func CompileFusedExpr(dev *cl.Device, nodes []FusedExprNode, gather bool, seq uint32) *FusedProgram {
	root := len(nodes) - 1
	if nodes[root].Kind == ops.FusedConst {
		panic("kernels: fused expression rooted at a constant")
	}
	uses := make([]int, len(nodes))
	for _, n := range nodes {
		if n.Kind == ops.FusedBin {
			uses[n.L]++
			uses[n.R]++
		}
	}
	// One step per node unless an operand needs a cast: sized up front, the
	// steps are one allocation instead of a growing slice's three or four.
	p := &FusedProgram{float: nodes[root].Float, steps: make([]fusedStep, 0, len(nodes))}
	args := make([]fusedArg, len(nodes))
	var free []int
	alloc := func() int {
		if k := len(free); k > 0 {
			r := free[k-1]
			free = free[:k-1]
			return r
		}
		p.regs++
		return p.regs - 1
	}
	// operand yields child c's value in a parent of the given type and drops
	// one use of it. Registers nobody else reads are released once both
	// operands are known, so the parent's result may take one over: every
	// step is element-wise and may overwrite an operand.
	var done []int
	operand := func(c int, float bool) fusedArg {
		a := args[c]
		if uses[c]--; a.reg >= 0 && uses[c] == 0 {
			done = append(done, a.reg)
		}
		switch {
		case a.isConst || nodes[c].Float == float:
			return a
		case !float:
			panic("kernels: float operand in an integer fused node")
		}
		cast := fusedStep{kind: stepCast, dst: alloc(), a: a}
		p.steps = append(p.steps, cast)
		done = append(done, cast.dst)
		return fusedArg{reg: cast.dst}
	}
	for k, n := range nodes {
		dst := func() int {
			if k == root {
				return -1
			}
			return alloc()
		}
		switch n.Kind {
		case ops.FusedConst:
			args[k] = fusedArg{reg: -1, isConst: true, cf: float32(n.C), ci: int32(n.C)}
			continue
		case ops.FusedCol:
			col := fusedArg{col: n.Buf.U32(), reg: -1}
			if gather && !n.Aligned {
				p.steps = append(p.steps, fusedStep{kind: stepGather, dst: dst(), a: col})
				break
			}
			if !n.Aligned {
				col.col = col.col[seq:]
			}
			if k != root {
				args[k] = col
				continue
			}
			p.steps = append(p.steps, fusedStep{kind: stepCopy, dst: -1, a: col})
		default: // FusedBin
			s := fusedStep{kind: stepBin, float: n.Float, bin: n.Bin}
			s.a, s.b = operand(n.L, n.Float), operand(n.R, n.Float)
			if s.a.isConst && s.b.isConst {
				panic("kernels: fused node over two constants")
			}
			free, done = append(free, done...), done[:0]
			s.dst = dst()
			p.steps = append(p.steps, s)
		}
		args[k] = fusedArg{reg: p.steps[len(p.steps)-1].dst}
	}
	if p.tile = fusedTile(dev.Const, p.regs); p.tile == 0 {
		panic("kernels: fused expression exceeds local memory (see FusedFits)")
	}
	return p
}

// RegisterWords is the size, in 32-bit words, of the register buffer
// FusedEval needs to run p over m output positions: one share of registers ×
// tile words for each work-item that gets a tile. Under either Span an item
// whose global id reaches the tile count has none. Zero means p needs no
// register buffer.
func RegisterWords(dev *cl.Device, p *FusedProgram, m int) int {
	_, _, gsz := Geometry(dev)
	return p.regs * p.tile * min(gsz, (m+p.tile-1)/p.tile)
}

// FusedEval enqueues the fused evaluation pass: out[i] = expr(row(i)) for
// i < m, where row(i) is idx[i] when idx is non-nil (a materialised
// candidate list) and seq+i otherwise (the dense candidate p was compiled
// for). regs is the pass's register buffer of RegisterWords(dev, p, m)
// words, nil when that is zero; its contents need not be defined and are
// not defined afterwards.
func FusedEval(q *cl.Queue, out, idx, regs *cl.Buffer, p *FusedProgram, m int, cost cl.Cost, wait []*cl.Event) *cl.Event {
	name := "fused_eval_i32"
	if p.float {
		name = "fused_eval_f32"
	}
	return evalTiles(q, name, out, idx, regs, p, m, cost, wait)
}

// evalTiles enqueues p over m output positions. Tiles are dealt to
// work-items by Span, so the CPU class scans contiguous runs and the GPU
// class strides; each item keeps its registers in its share of regs, and
// only out is written.
func evalTiles(q *cl.Queue, name string, out, idx, regBuf *cl.Buffer, p *FusedProgram, m int, cost cl.Cost, wait []*cl.Event) *cl.Event {
	d := out.U32()
	var ix, rw []uint32
	if idx != nil {
		ix = idx.U32()
	}
	if regBuf != nil {
		rw = regBuf.U32()
	}
	tiles := (m + p.tile - 1) / p.tile
	share := p.regs * p.tile
	return q.EnqueueKernel(func(t *cl.Thread) {
		lo, hi, step := t.Span(tiles)
		var regs []uint32
		if share > 0 && lo < hi {
			regs = rw[t.Global*share:][:share]
		}
		for ti := lo; ti < hi; ti += step {
			i0 := ti * p.tile
			p.run(d, ix, regs, i0, min(p.tile, m-i0))
		}
	}, launch(q.Device(), name, m, cost, wait))
}

// run evaluates output positions [i0, i0+n) — one tile.
func (p *FusedProgram) run(out, ix, regs []uint32, i0, n int) {
	vec := func(a *fusedArg) []uint32 {
		switch {
		case a.col != nil:
			return a.col[i0:][:n]
		case a.reg < 0:
			return out[i0:][:n]
		}
		return regs[a.reg*p.tile:][:n]
	}
	for i := range p.steps {
		s := &p.steps[i]
		d := vec(&fusedArg{reg: s.dst})
		switch s.kind {
		case stepGather:
			gatherU32(d, s.a.col, ix[i0:][:n])
		case stepCopy:
			copy(d, vec(&s.a))
		case stepCast:
			castI32F32(f32s(d), i32s(vec(&s.a)))
		default:
			var x, y []uint32
			if !s.a.isConst {
				x = vec(&s.a)
			}
			if !s.b.isConst {
				y = vec(&s.b)
			}
			if s.float {
				mapF32(s.bin, f32s(d), f32s(x), f32s(y), s.a.cf, s.b.cf)
			} else {
				mapI32(s.bin, i32s(d), i32s(x), i32s(y), s.a.ci, s.b.ci)
			}
		}
	}
}

func f32s(w []uint32) []float32 { return mem.F32(mem.BytesOfU32(w)) }
func i32s(w []uint32) []int32   { return mem.I32(mem.BytesOfU32(w)) }
