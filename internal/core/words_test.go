package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// The suites of the word-at-a-time selection kernels and the tile programs.
// Like every suite of the package they run with freed bytes poisoned
// (main_test.go), so a producer that leaves the bits from n to the word
// boundary to the recycling allocator fails here; the CPU device takes its
// core count from GOMAXPROCS, which CI sets to 1, 2 and 8.

func wordEngines() []*Engine {
	return []*Engine{New(cl.NewCPUDevice(0)), New(cl.NewGPUDevice(128 << 20))}
}

// shapeFilter is one conjunct of TestSelectionShapes with its row predicate.
type shapeFilter struct {
	f    ops.FusedFilter
	pass func(r int) bool
}

// TestSelectionShapes: every selection entry point over every bitmap shape.
// For each domain size around the word boundaries, each kind of candidate
// and chains of one to four conjuncts mixing range and column-compare
// filters, the result bitmap of the unfused chain and of the fused region
// must equal a host reference bit for bit — the bits past the last row zero
// — the count must be its population count, and the oid lists of Select,
// SelectCmp, OIDUnion and Fused must equal the sequential baseline's. The
// candidates put words on both sides of the refinement threshold: all-set
// and alternating words (32 and 16 survivors) are evaluated densely, one bit
// in 64 and the tails of clusters bit by bit.
func TestSelectionShapes(t *testing.T) {
	sizes := []int{1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 40_001}
	cands := []struct {
		name string
		set  func(r, n int) bool // nil: no candidate
		void bool
	}{
		{name: "none"},
		{name: "dense", void: true, set: func(r, n int) bool { return r >= n/3 && r < n/3+(n+1)/2 }},
		{name: "all", set: func(r, n int) bool { return true }},
		{name: "empty", set: func(r, n int) bool { return false }},
		{name: "one-in-64", set: func(r, n int) bool { return r%64 == 5%n }},
		{name: "alternating", set: func(r, n int) bool { return r%2 == 0 }},
		{name: "clustered", set: func(r, n int) bool { return r/50%3 == 0 }},
	}
	for _, e := range wordEngines() {
		for _, n := range sizes {
			r := rand.New(rand.NewSource(int64(n)))
			iv, iw, fv, pat := make([]int32, n), make([]int32, n), make([]float32, n), make([]int32, n)
			for i := 0; i < n; i++ {
				iv[i], iw[i], fv[i] = r.Int31n(100)-50, r.Int31n(100)-50, float32(r.Intn(64))/8-4
			}
			fv[0] = float32(math.NaN())
			ic, iwc, fc := i32Col("i", iv), i32Col("w", iw), f32Col("f", fv)
			all := []shapeFilter{
				{ops.FusedFilter{Col: ic, Lo: -30, Hi: 30, LoIncl: true}, func(r int) bool { return iv[r] >= -30 && iv[r] < 30 }},
				{ops.FusedFilter{Col: fc, Lo: -2.5, Hi: 3, HiIncl: true}, func(r int) bool { return fv[r] > -2.5 && fv[r] <= 3 }},
				{ops.FusedFilter{Col: ic, IsCmp: true, Other: iwc, Cmp: ops.Ge}, func(r int) bool { return iv[r] >= iw[r] }},
				{ops.FusedFilter{Col: fc, Lo: math.Inf(-1), Hi: 0, LoIncl: true}, func(r int) bool { return fv[r] < 0 }},
			}
			for _, c := range cands {
				var cand, candMS *bat.BAT
				switch {
				case c.void:
					lo := n / 3
					cand = bat.NewVoid("cand", uint32(lo), min((n+1)/2, n-lo))
					candMS = cand
				case c.set != nil:
					for i := range pat {
						pat[i] = 0
						if c.set(i, n) {
							pat[i] = 1
						}
					}
					pc := i32Col("pat", pat)
					var err error
					if cand, err = e.Select(pc, nil, 1, 1, true, true); err != nil {
						t.Fatal(err)
					}
					if candMS, err = crossMS.Select(pc, nil, 1, 1, true, true); err != nil {
						t.Fatal(err)
					}
				}
				for k := 1; k <= len(all); k++ {
					name := fmt.Sprintf("%s n=%d cand=%s conjuncts=%d", e.Name(), n, c.name, k)
					chain := all[:k]
					want := make([]uint32, kernels.BitmapWords(n))
					for row := 0; row < n; row++ {
						ok := c.set == nil || c.set(row, n)
						for _, f := range chain {
							ok = ok && f.pass(row)
						}
						if ok {
							want[row/32] |= 1 << uint(row%32)
						}
					}
					ref := selectChain(t, name, crossMS, chain, candMS)
					unfused := selectChain(t, name, e, chain, cand)
					checkSelection(t, name+" unfused", e, unfused, want, ref.OIDs())

					op := &ops.FusedOp{Cand: cand}
					for _, f := range chain {
						op.Filters = append(op.Filters, f.f)
					}
					fused, err := e.fusedExpr(op)
					if err != nil {
						t.Fatalf("%s: fused: %v", name, err)
					}
					checkSelection(t, name+" fused", e, fused, want, ref.OIDs())

					// The union with the first conjunct alone (under the same
					// candidate) is that conjunct: the chain is a subset of it.
					first := selectChain(t, name, e, chain[:1], cand)
					firstMS := selectChain(t, name, crossMS, chain[:1], candMS)
					union, err := e.OIDUnion(unfused, first)
					if err != nil {
						t.Fatalf("%s: union: %v", name, err)
					}
					if got := syncedOIDs(t, e, union); !slices.Equal(got, firstMS.OIDs()) {
						t.Fatalf("%s: union has %d oids, the baseline's first conjunct %d", name, len(got), firstMS.Len())
					}
					for _, b := range []*bat.BAT{unfused, fused, first, union} {
						e.Release(b)
					}
				}
				e.Release(cand)
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}

// selectChain runs the conjuncts as a chain of Select / SelectCmp calls,
// each taking the previous result as its candidate.
func selectChain(t *testing.T, name string, o ops.Operators, chain []shapeFilter, cand *bat.BAT) *bat.BAT {
	t.Helper()
	for _, c := range chain {
		var err error
		prev := cand
		if f := c.f; f.IsCmp {
			cand, err = o.SelectCmp(f.Col, f.Other, f.Cmp, prev)
		} else {
			cand, err = o.Select(f.Col, prev, f.Lo, f.Hi, f.LoIncl, f.HiIncl)
		}
		if err != nil {
			t.Fatalf("%s on %s: %v", name, o.Name(), err)
		}
	}
	return cand
}

// checkSelection compares a selection result with the reference bitmap — as
// a bitmap when the engine holds one — and the reference oid list.
func checkSelection(t *testing.T, name string, e *Engine, got *bat.BAT, want []uint32, oids []uint32) {
	t.Helper()
	count := 0
	for _, w := range want {
		count += bits.OnesCount32(w)
	}
	if got.Len() != count {
		t.Fatalf("%s: count %d, the reference bitmap holds %d", name, got.Len(), count)
	}
	if _, isBM := e.mm.IsBitmap(got); isBM {
		//lint:transfer readWords drains the queue before the bitmap is read
		buf, _, _, err := e.mm.BitmapForRead(got)
		if err != nil {
			t.Fatal(err)
		}
		if words := readWords(t, e, buf, len(want)); !slices.Equal(words, want) {
			for i := range want {
				if words[i] != want[i] {
					t.Fatalf("%s: bitmap word %d = %032b, want %032b", name, i, words[i], want[i])
				}
			}
		}
	}
	if list := syncedOIDs(t, e, got); !slices.Equal(list, oids) {
		t.Fatalf("%s: %d oids differ from the baseline's %d", name, len(list), len(oids))
	}
}

// exprGen draws random expression trees for TestFusedProgram, building the
// fused node list and the unfused operator chain side by side.
type exprGen struct {
	r     *rand.Rand
	cols  []*bat.BAT
	nodes []ops.FusedNode
}

// node appends a random subtree of the given depth and returns its index
// and a closure evaluating it with the unfused operators.
func (g *exprGen) node(depth int) (int, func(o ops.Operators, cand *bat.BAT) (*bat.BAT, error)) {
	if depth == 0 || g.r.Intn(4) == 0 {
		col := g.cols[g.r.Intn(len(g.cols))]
		g.nodes = append(g.nodes, ops.FusedNode{Kind: ops.FusedCol, Col: col})
		return len(g.nodes) - 1, func(o ops.Operators, cand *bat.BAT) (*bat.BAT, error) {
			return o.Project(cand, col)
		}
	}
	bin := []ops.Bin{ops.Add, ops.SubOp, ops.Mul, ops.Div}[g.r.Intn(4)]
	l, evalL := g.node(depth - 1)
	if g.r.Intn(3) == 0 { // a constant operand, on either side
		c := []float64{0, 1, 2, -3, 0.5, 1.25, 100}[g.r.Intn(7)]
		first := g.r.Intn(2) == 0
		g.nodes = append(g.nodes, ops.FusedNode{Kind: ops.FusedConst, C: c})
		k := len(g.nodes) - 1
		nd := ops.FusedNode{Kind: ops.FusedBin, Bin: bin, L: l, R: k}
		if first {
			nd.L, nd.R = k, l
		}
		g.nodes = append(g.nodes, nd)
		return len(g.nodes) - 1, func(o ops.Operators, cand *bat.BAT) (*bat.BAT, error) {
			a, err := evalL(o, cand)
			if err != nil {
				return nil, err
			}
			return o.BinopConst(bin, a, c, first)
		}
	}
	rr, evalR := g.node(depth - 1)
	g.nodes = append(g.nodes, ops.FusedNode{Kind: ops.FusedBin, Bin: bin, L: l, R: rr})
	return len(g.nodes) - 1, func(o ops.Operators, cand *bat.BAT) (*bat.BAT, error) {
		a, err := evalL(o, cand)
		if err != nil {
			return nil, err
		}
		b, err := evalR(o, cand)
		if err != nil {
			return nil, err
		}
		return o.Binop(bin, a, b)
	}
}

// TestFusedProgram: seeded random expression trees of depth up to four over
// int32 and float32 columns and constants — integral and fractional, so
// both sides of the promotion rule, and integer division by zero — run as a
// tile program must be byte-identical to the unfused Project / Binop /
// BinopConst chain, and with a terminal Sum to the unfused Aggr, with no
// candidate, a dense one and an oid list, at output sizes around the tile
// boundaries of every register count the trees can reach.
func TestFusedProgram(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(22))
	iv, iz, fv, fw := make([]int32, n), make([]int32, n), make([]float32, n), make([]float32, n)
	for i := 0; i < n; i++ {
		iv[i], iz[i] = r.Int31n(2000)-1000, r.Int31n(5)-2 // iz holds zeros: x / 0
		fv[i], fw[i] = r.Float32()*200-100, float32(r.Intn(16))/4-2
	}
	cols := []*bat.BAT{i32Col("i", iv), i32Col("z", iz), f32Col("f", fv), f32Col("w", fw)}
	for _, e := range wordEngines() {
		// Output sizes: 1 and, for every tile length a program of one to six
		// registers gets on this device, the sizes around one tile and past
		// three.
		share := e.dev.Const.LocalMemSize / 4 / (4 * e.dev.Const.UnitsPerCore)
		sizes := []int{1}
		for regs := 1; regs <= 6; regs++ {
			tile := share / regs
			if tile >= 8 {
				tile &^= 7
			}
			sizes = append(sizes, tile-1, tile, tile+1, 3*tile+5)
		}
		for trial := 0; trial < 40; trial++ {
			g := &exprGen{r: r, cols: cols}
			_, eval := g.node(1 + r.Intn(4))
			if len(g.nodes) == 1 {
				continue // a bare projection is not a region
			}
			m := sizes[r.Intn(len(sizes))]
			if m < 1 || m > n {
				m = 1
			}
			perm := r.Perm(n)[:m]
			slices.Sort(perm)
			oids := make([]uint32, m)
			for i, p := range perm {
				oids[i] = uint32(p)
			}
			for ci, cand := range []*bat.BAT{nil, bat.NewVoid("dense", uint32(r.Intn(n-m+1)), m), oidCol("oids", oids)} {
				name := fmt.Sprintf("%s trial %d m=%d cand=%s nodes=%+v", e.Name(), trial, m, [...]string{"none", "dense", "oids"}[ci], g.nodes)
				want, err := eval(e, cand)
				if err != nil {
					t.Fatalf("%s: unfused: %v", name, err)
				}
				got, err := e.fusedExpr(&ops.FusedOp{Cand: cand, Nodes: g.nodes})
				if err != nil {
					t.Fatalf("%s: fused: %v", name, err)
				}
				wantSum, err := e.Aggr(ops.Sum, want, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				gotSum, err := e.fusedExpr(&ops.FusedOp{Cand: cand, Nodes: g.nodes, HasAgg: true, Agg: ops.Sum})
				if err != nil {
					t.Fatalf("%s: fused sum: %v", name, err)
				}
				for _, pair := range [][2]*bat.BAT{{want, got}, {wantSum, gotSum}} {
					for _, b := range pair {
						if err := e.Sync(b); err != nil {
							t.Fatal(err)
						}
					}
					if pair[0].T != pair[1].T || !slices.Equal(pair[0].Bytes(), pair[1].Bytes()) {
						t.Fatalf("%s: fused %v differs from the unfused chain's %v", name, pair[1], pair[0])
					}
				}
				for _, b := range []*bat.BAT{want, got, wantSum, gotSum} {
					e.Release(b)
				}
			}
		}
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
	}
}
