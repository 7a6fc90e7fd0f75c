package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/cl"
	"repro/internal/ops"
)

// The three benchmarks below are the evidence behind refineBits and the tile
// program (tables in DESIGN.md). Each checks its result against a row-at-a-
// time reference before timing and panics on a difference, so the CI smoke
// run (-benchtime 1x) doubles as a self-check. Run them at -cpu 1,2: the
// device has GOMAXPROCS cores.

const benchRows = 1 << 18

func benchEnv(b *testing.B) *env {
	dev := cl.NewCPUDevice(runtime.GOMAXPROCS(0))
	b.Cleanup(dev.Close)
	return newEnv(dev)
}

// reportRows times op and reports it per row.
func reportRows(b *testing.B, rows int, op func() *cl.Event) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op().Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// benchKeys fills n values of which a share sel is below 1000 (the rest lie
// in [1000, 2000)): independently at random, or in runs of 4096 rows.
func benchKeys(r *rand.Rand, n int, sel float64, clustered bool) []int32 {
	v := make([]int32, n)
	pass := false
	for i := range v {
		if !clustered || i%4096 == 0 {
			pass = r.Float64() < sel
		}
		v[i] = r.Int31n(1000)
		if !pass {
			v[i] += 1000
		}
	}
	return v
}

// BenchmarkSelectWord: the selection kernel over 1 and 3 conjuncts of one
// kind, each passing the given share of rows, with every word evaluated
// densely, every word refined bit by bit, and under the rule (refineBits).
// The three alternate within each iteration, so that drift on a shared
// machine falls on all of them alike; each reports its own ns/row.
func BenchmarkSelectWord(b *testing.B) {
	e := benchEnv(b)
	const n = benchRows
	bm, sp, total := e.buf(b, BitmapWords(n)), e.buf(b, ReducePartialWords(e.dev)), e.buf(b, 1)
	policies := []struct {
		name   string
		refine int
	}{{"dense", -1}, {"sparse", 32}, {"rule", refineBits}}
	for _, kind := range []string{"i32", "f32", "cmp"} {
		for _, sel := range []float64{0.01, 0.15, 0.50, 0.98} {
			for _, data := range []string{"random", "clustered"} {
				r := rand.New(rand.NewSource(int64(sel * 100)))
				var filters []FusedPredFilter
				var cols []*cl.Buffer
				want := make([]uint32, BitmapWords(n))
				for i := range want {
					want[i] = wordMask(i*32, 0, n)
				}
				for c := 0; c < 3; c++ {
					keys := benchKeys(r, n, sel, data == "clustered")
					col := e.buf(b, n)
					f := FusedPredFilter{Col: col, Lo: 0, Hi: 999}
					switch kind {
					case "i32":
						copy(col.I32(), keys)
					case "f32":
						for i, k := range keys {
							col.F32()[i] = float32(k) + 0.5
						}
						f.Float = true
						f.Lo, f.Hi, _ = F32RangeBounds(0, 1000, true, false)
					default:
						copy(col.I32(), keys)
						f = FusedPredFilter{IsCmp: true, Col: col, Other: e.buf(b, n), Cmp: ops.Lt}
						for i := range keys {
							f.Other.I32()[i] = 1000
						}
					}
					filters = append(filters, f)
					cols = append(cols, f.Col, f.Other)
					for i, k := range keys {
						if k >= 1000 {
							want[i/32] &^= 1 << uint(i%32)
						}
					}
					if c != 0 && c != 2 {
						continue
					}
					b.Run(fmt.Sprintf("%s/conj=%d/sel=%g/%s", kind, c+1, sel, data), func(b *testing.B) {
						count := 0
						for _, w := range want {
							count += bits.OnesCount32(w)
						}
						var spent [3]time.Duration
						for i := -1; i < b.N; i++ { // round -1 checks, untimed
							for pi, p := range policies {
								start := time.Now()
								ev := selectWords(e.q, bm, nil, sp, filters, 0, n, n, p.refine, nil)
								if err := ev.Wait(); err != nil {
									b.Fatal(err)
								}
								if i >= 0 {
									spent[pi] += time.Since(start)
									continue
								}
								if err := FoldCount(e.q, sp, total, nil).Wait(); err != nil {
									b.Fatal(err)
								}
								if !slices.Equal(bm.U32()[:len(want)], want) || int(total.U32()[0]) != count {
									panic("BenchmarkSelectWord: " + b.Name() + "/" + p.name + " differs from the reference")
								}
							}
						}
						for pi, p := range policies {
							b.ReportMetric(float64(spent[pi].Nanoseconds())/float64(b.N)/n, p.name+"-ns/row")
						}
					})
				}
				for _, c := range cols {
					if c != nil {
						_ = c.Release()
					}
				}
			}
		}
	}
}

// BenchmarkFusedEval: the tile program over float trees of two and four Bin
// nodes and an integer tree, dense (columns aliased) and through an oid
// list (leaves gathered into registers).
func BenchmarkFusedEval(b *testing.B) {
	e := benchEnv(b)
	const n = benchRows
	r := rand.New(rand.NewSource(7))
	fa, fb, fc, ia, ib := e.buf(b, n), e.buf(b, n), e.buf(b, n), e.buf(b, n), e.buf(b, n)
	idx, out := e.buf(b, n), e.buf(b, n)
	for i := 0; i < n; i++ {
		fa.F32()[i], fb.F32()[i], fc.F32()[i] = r.Float32()*100, r.Float32(), r.Float32()
		ia.I32()[i], ib.I32()[i] = r.Int31n(1000), r.Int31n(7)
		idx.U32()[i] = uint32(r.Intn(n))
	}
	slices.Sort(idx.U32()[:n]) // an oid list is ascending
	col := func(buf *cl.Buffer, float bool) FusedExprNode {
		return FusedExprNode{Kind: ops.FusedCol, Buf: buf, Float: float}
	}
	bin := func(op ops.Bin, l, r int, float bool) FusedExprNode {
		return FusedExprNode{Kind: ops.FusedBin, Bin: op, L: l, R: r, Float: float}
	}
	one := FusedExprNode{Kind: ops.FusedConst, C: 1}
	trees := []struct {
		name  string
		nodes []FusedExprNode
		ref   func(r int) uint32
	}{
		{"f32x2", // a * (1 - b)
			[]FusedExprNode{col(fa, true), one, col(fb, true), bin(ops.SubOp, 1, 2, true), bin(ops.Mul, 0, 3, true)},
			func(r int) uint32 { return math.Float32bits(fa.F32()[r] * (1 - fb.F32()[r])) }},
		{"f32x4", // a * (1 - b) * (1 + c)
			[]FusedExprNode{col(fa, true), one, col(fb, true), bin(ops.SubOp, 1, 2, true), bin(ops.Mul, 0, 3, true),
				col(fc, true), bin(ops.Add, 1, 5, true), bin(ops.Mul, 4, 6, true)},
			func(r int) uint32 {
				return math.Float32bits(float32(fa.F32()[r]*(1-fb.F32()[r])) * (1 + fc.F32()[r]))
			}},
		{"i32x2", // (a + 1) / b, x / 0 = 0
			[]FusedExprNode{col(ia, false), one, bin(ops.Add, 0, 1, false), col(ib, false), bin(ops.Div, 2, 3, false)},
			func(r int) uint32 {
				if ib.I32()[r] == 0 {
					return 0
				}
				return uint32((ia.I32()[r] + 1) / ib.I32()[r])
			}},
	}
	for _, tr := range trees {
		for _, through := range []*cl.Buffer{nil, idx} {
			name := tr.name + "/dense"
			if through != nil {
				name = tr.name + "/oids"
			}
			b.Run(name, func(b *testing.B) {
				p := CompileFusedExpr(e.dev, tr.nodes, through != nil, 0)
				regs := e.buf(b, RegisterWords(e.dev, p, n))
				run := func() *cl.Event { return FusedEval(e.q, out, through, regs, p, n, cl.Cost{}, nil) }
				if err := run().Wait(); err != nil {
					b.Fatal(err)
				}
				for i, got := range out.U32()[:n] {
					row := i
					if through != nil {
						row = int(through.U32()[i])
					}
					if got != tr.ref(row) {
						panic(fmt.Sprintf("BenchmarkFusedEval: %s position %d differs from the reference", b.Name(), i))
					}
				}
				reportRows(b, n, run)
			})
		}
	}
}

// BenchmarkGroupRuns times the run path against the radix passes over the
// run lengths the rule admits: 600 000 keys below 10 000 refining previous ids
// that are non-decreasing in runs of the given length — run=7 is runs of 1 to
// 7 rows at random, as TPC-H orders have lineitems — the two paths alternated
// within each iteration. The first round checks the run path's ids against
// monet.Group's first-appearance numbering.
func BenchmarkGroupRuns(b *testing.B) {
	e := benchEnv(b)
	const n = 600_000
	_, _, gsz := Geometry(e.dev)
	col, prev, ids, sorted := e.buf(b, n+1), e.buf(b, n+1), e.buf(b, n+1), e.buf(b, n+1)
	parts := e.buf(b, KeyRangeWords(e.dev))
	s := GroupSortScratch{K0: e.buf(b, n+1), V0: e.buf(b, n+1), K1: e.buf(b, n+1), V1: e.buf(b, n+1),
		Hist: e.buf(b, SortHistWords(e.dev)+1), Spine: e.buf(b, gsz+2), Total: e.buf(b, 1)}
	r := rand.New(rand.NewSource(11))
	for _, run := range []int{4, 7, 16, MaxRefineRun} {
		groups := fillRuns(r, col.I32()[:n], prev.I32()[:n], run)
		if err := KeyRange(e.q, parts, col, prev, n, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		ks := FoldKeyRange(e.dev, parts.U32(), groups)
		want, _ := firstAppearance(b, col.U32()[:n], prev.I32()[:n], false)
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			var spent [2]time.Duration
			for i := -1; i < b.N; i++ { // round -1 checks, untimed
				start := time.Now()
				_, done := GroupByRuns(e.q, ids, col, prev, s.Spine, s.Total, n, nil)
				if err := done.Wait(); err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				_, done = GroupBySort(e.q, sorted, col, prev, ks, s, n, nil)
				if err := done.Wait(); err != nil {
					b.Fatal(err)
				}
				if i >= 0 {
					spent[0] += mid.Sub(start)
					spent[1] += time.Since(mid)
				} else if !slices.Equal(ids.I32()[:n], want) {
					panic("BenchmarkGroupRuns: " + b.Name() + ": the run path's ids differ from monet.Group's")
				}
			}
			b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N)/n, "runs-ns/row")
			b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N)/n, "sort-ns/row")
		})
	}
}

// fillRuns fills col with keys below 10 000 and prev with ids non-decreasing
// in runs of run rows (run=7: 1 to 7 rows at random, as TPC-H orders have
// lineitems) and returns the number of runs.
func fillRuns(r *rand.Rand, col, prev []int32, run int) uint32 {
	id, left := int32(-1), 0
	for i := range col {
		if left == 0 {
			id, left = id+1, run
			if run == 7 {
				left = 1 + r.Intn(7)
			}
		}
		left--
		col[i], prev[i] = r.Int31n(10_000), id
	}
	return uint32(id + 1)
}

// BenchmarkGroupRegion: TPC-H Q1's grouping and ten aggregates over a
// Q1-shaped input — 600 000 rows, a key of three codes refined by a key of
// two (one of the six combinations absent), five float columns — run as a
// grouped region (KeyRanges, GroupRegionFold, GroupRegionFinal) and as the
// kernels of the chained members (per grouping a measurement, the identity
// build and a look-up; per aggregate a partials pass), alternated within each
// iteration. The first round checks that both give the same result bytes.
func BenchmarkGroupRegion(b *testing.B) {
	e := benchEnv(b)
	const n = 600_000
	_, _, gsz := Geometry(e.dev)
	r := rand.New(rand.NewSource(13))
	rf, ls := e.buf(b, n+1), e.buf(b, n+1)
	var f [5]*cl.Buffer // qty, price, disc, disc price, charge
	for c := range f {
		f[c] = e.buf(b, n+1)
	}
	for i := 0; i < n; i++ {
		k := r.Intn(5)
		if k >= 3 {
			k++ // code 3, rf 0 under ls 1, never occurs
		}
		rf.I32()[i], ls.I32()[i] = int32(k%3), int32(k/3)
		qty, price, disc, tax := float32(1+r.Intn(50)), 900+r.Float32()*100_000, float32(r.Intn(11))/100, float32(r.Intn(9))/100
		dp := price * (1 - disc)
		f[0].F32()[i], f[1].F32()[i], f[2].F32()[i], f[3].F32()[i], f[4].F32()[i] = qty, price, disc, dp, dp*(1+tax)
	}
	// Q1's aggregates: min rf, min ls, sum qty, price, disc price, charge, avg
	// qty, price, disc, count.
	const outs = 10
	var want, got [outs]*cl.Buffer
	var scratch [outs][4]*cl.Buffer // partials; an average's sums, counts and their partials
	for i := range want {
		want[i], got[i] = e.buf(b, 8), e.buf(b, 8)
		scratch[i] = [4]*cl.Buffer{e.buf(b, 6*SumChunks+1), e.buf(b, 8), e.buf(b, 8), e.buf(b, 6*SumChunks+1)}
	}
	parts, spine, total := e.buf(b, KeyRangesWords(e.dev, 2)), e.buf(b, gsz+2), e.buf(b, 1)
	bitsBuf, rank := e.buf(b, 8), e.buf(b, 8)
	ids1, ids2 := e.buf(b, n+1), e.buf(b, n+1)

	group := func(col, prev, ids *cl.Buffer, nprev uint32) int {
		if err := KeyRange(e.q, parts, col, prev, n, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		ks := FoldKeyRange(e.dev, parts.U32(), nprev)
		words := IdentityWords(e.dev, n, ks.Range())
		tab := Slots{Bits: bitsBuf, Rank: rank, Min: ks.Min, Span: ks.Span, Prev: ks.Prev}
		zero := Fill(e.q, tab.Bits, words, 0, nil)
		set := IdentitySet(e.q, tab, col, prev, n, []*cl.Event{zero})
		if err := IdentityRank(e.q, tab, spine, total, words, []*cl.Event{set}).Wait(); err != nil {
			b.Fatal(err)
		}
		if err := HashLookupGids(e.q, ids, tab, col, prev, n, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		return int(total.U32()[0])
	}
	chained := func() int {
		ng := group(ls, ids1, ids2, uint32(group(rf, nil, ids1, 1)))
		sum := func(i, c int) *cl.Event {
			return GroupedSumF32(e.q, want[i], f[c], ids2, scratch[i][0], n, ng, nil)
		}
		count := func(dst, parts *cl.Buffer) *cl.Event {
			return GroupedAggI32(e.q, dst, nil, ids2, parts, ops.Sum, n, ng, nil)
		}
		evs := []*cl.Event{
			GroupedAggI32(e.q, want[0], rf, ids2, scratch[0][0], ops.Min, n, ng, nil),
			GroupedAggI32(e.q, want[1], ls, ids2, scratch[1][0], ops.Min, n, ng, nil),
			sum(2, 0), sum(3, 1), sum(4, 3), sum(5, 4), count(want[9], scratch[9][0]),
		}
		for i, c := range []int{0, 1, 2} { // the averages: a sum, a count, a division
			s := GroupedSumF32(e.q, scratch[6+i][1], f[c], ids2, scratch[6+i][0], n, ng, nil)
			k := count(scratch[6+i][2], scratch[6+i][3])
			evs = append(evs, DivF32I32(e.q, want[6+i], scratch[6+i][1], scratch[6+i][2], ng, []*cl.Event{s, k}))
		}
		if err := cl.WaitAll(evs...); err != nil {
			b.Fatal(err)
		}
		return ng
	}
	keys := []*cl.Buffer{rf, ls}
	code, present := e.buf(b, n+1), e.buf(b, 1)
	accs := []RegionAcc{{Kind: ops.Sum, Parts: e.buf(b, 6*SumChunks+1)}}
	for c := range f {
		accs = append(accs, RegionAcc{Kind: ops.Sum, Float: true, Vals: f[c], Parts: e.buf(b, 6*SumChunks+1)})
	}
	region := func() int {
		if err := KeyRanges(e.q, parts, keys, n, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		ks := FoldKeyRanges(e.dev, parts.U32(), 2)
		codes := int((ks[0].Span + 1) * (ks[1].Span + 1))
		present.U32()[0] = 0
		if err := GroupRegionFold(e.q, code, present, keys, ks, accs, n, codes, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		ng := bits.OnesCount32(present.U32()[0])
		ro := []RegionOut{{Dst: got[0], Acc: -1, Key: 0}, {Dst: got[1], Acc: -1, Key: 1},
			{Dst: got[2], Acc: 1}, {Dst: got[3], Acc: 2}, {Dst: got[4], Acc: 4}, {Dst: got[5], Acc: 5},
			{Dst: got[6], Acc: 1, Avg: true}, {Dst: got[7], Acc: 2, Avg: true}, {Dst: got[8], Acc: 3, Avg: true},
			{Dst: got[9], Acc: 0}}
		if err := GroupRegionFinal(e.q, present, ks, accs, ro, n, codes, nil).Wait(); err != nil {
			b.Fatal(err)
		}
		return ng
	}
	var spent [2]time.Duration
	for i := -1; i < b.N; i++ { // round -1 checks, untimed
		start := time.Now()
		ng := region()
		mid := time.Now()
		if chained() != ng {
			panic("BenchmarkGroupRegion: the region and the chain count different groups")
		}
		if i >= 0 {
			spent[0] += mid.Sub(start)
			spent[1] += time.Since(mid)
			continue
		}
		for o := range want {
			if !slices.Equal(want[o].U32()[:ng], got[o].U32()[:ng]) {
				panic(fmt.Sprintf("BenchmarkGroupRegion: aggregate %d differs from the chain's", o))
			}
		}
	}
	b.ReportMetric(float64(spent[0].Nanoseconds())/float64(b.N)/n, "region-ns/row")
	b.ReportMetric(float64(spent[1].Nanoseconds())/float64(b.N)/n, "chained-ns/row")
}

// BenchmarkBitmapOps: combining and materialising bitmaps with 1 %
// and 50 % of their bits set.
func BenchmarkBitmapOps(b *testing.B) {
	e := benchEnv(b)
	const n = benchRows
	nw := BitmapWords(n)
	x, y, d := e.buf(b, nw), e.buf(b, nw), e.buf(b, nw)
	sp, oids := e.buf(b, ReducePartialWords(e.dev)), e.buf(b, n)
	for _, sel := range []float64{0.01, 0.50} {
		r := rand.New(rand.NewSource(3))
		var rows []uint32
		for i := 0; i < n; i++ {
			x.U32()[i/32] &^= 1 << uint(i%32)
			y.U32()[i/32] |= 1 << uint(i%32)
			if r.Float64() < sel {
				x.U32()[i/32] |= 1 << uint(i%32)
				rows = append(rows, uint32(i))
			}
			if r.Float64() < sel {
				y.U32()[i/32] &^= 1 << uint(i%32)
			}
		}
		check := func(b *testing.B, ok bool) {
			if !ok {
				panic("BenchmarkBitmapOps: " + b.Name() + " differs from the reference")
			}
		}
		b.Run(fmt.Sprintf("or/sel=%g", sel), func(b *testing.B) {
			run := func() *cl.Event { return BitmapOr(e.q, d, x, y, sp, n, nil) }
			if err := run().Wait(); err != nil {
				b.Fatal(err)
			}
			for i, w := range d.U32()[:nw] {
				check(b, w == x.U32()[i]|y.U32()[i])
			}
			reportRows(b, n, run)
		})
		b.Run(fmt.Sprintf("materialize/sel=%g", sel), func(b *testing.B) {
			run := func() *cl.Event { return Materialize(e.q, oids, x, sp, n, nil) }
			if err := run().Wait(); err != nil {
				b.Fatal(err)
			}
			check(b, slices.Equal(oids.U32()[:len(rows)], rows))
			reportRows(b, n, run)
		})
	}
}

// BenchmarkLaunchGrain is the evidence behind the CPU's grain
// (cl.BuildConstants.Grain, DESIGN.md has the table): a chain of dependent
// launches of one kernel over n elements, run in one work-group and over
// every core, alternated on one device within each iteration. "busy" chains
// launch after launch, so an idle worker is still spinning when the next one
// comes; "idle" sleeps 300 µs before each launch, so the workers have parked.
// Each reports µs a launch for both geometries; the grain sits where they
// cross. Run it at -cpu 2.
func BenchmarkLaunchGrain(b *testing.B) {
	e := benchEnv(b)
	const maxN = 1 << 17
	r := rand.New(rand.NewSource(1))
	vals, idx, col := make([]uint32, maxN), make([]uint32, maxN), make([]int32, maxN)
	for i := range vals {
		vals[i], idx[i], col[i] = r.Uint32(), uint32(r.Intn(maxN)), r.Int31n(100)
	}
	src, ix, ci, dst := e.u32(b, vals), e.u32(b, idx), e.i32(b, col), e.buf(b, maxN+1)
	bm, sp, total := e.buf(b, BitmapWords(maxN)), e.scratch(b), e.buf(b, 1)
	kernels := []struct {
		name string
		run  func(n int, wait []*cl.Event) *cl.Event
	}{
		{"gather", func(n int, w []*cl.Event) *cl.Event { return Gather(e.q, dst, src, ix, n, w) }},
		{"select", func(n int, w []*cl.Event) *cl.Event { return e.selectI32(bm, ci, nil, sp, n, 10, 60, w) }},
		{"prefix", func(n int, w []*cl.Event) *cl.Event { return PrefixSum(e.q, dst, src, sp, total, n, w) }},
	}
	for _, mode := range []string{"busy", "idle"} {
		chain, gap := 20, time.Duration(0)
		if mode == "idle" {
			chain, gap = 1, 300*time.Microsecond
		}
		for _, k := range kernels {
			for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", mode, k.name, n), func(b *testing.B) {
					var took [2]time.Duration // one group, every core
					for range b.N {
						for g, grain := range []int{math.MaxInt32, 0} {
							e.dev.Const.Grain = grain
							time.Sleep(gap)
							start := time.Now()
							var ev *cl.Event
							for range chain {
								var w []*cl.Event
								if ev != nil {
									w = []*cl.Event{ev}
								}
								ev = k.run(n, w)
							}
							if err := ev.Wait(); err != nil {
								b.Fatal(err)
							}
							took[g] += time.Since(start)
						}
					}
					per := float64(b.N * chain * 1000)
					b.ReportMetric(float64(took[0].Nanoseconds())/per, "one-group-µs")
					b.ReportMetric(float64(took[1].Nanoseconds())/per, "all-cores-µs")
				})
			}
		}
	}
}
