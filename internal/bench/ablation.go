package bench

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cl"
	"repro/internal/core/kernels"
	"repro/internal/ops"
)

// Ablation benchmarks for the design decisions the paper fixes by
// trial-and-error or adopts from prior work. Each ablation runs one kernel
// configuration against its alternative on both device drivers, isolating
// the specific effect the design addresses:
//
//   - accumulator placement (§4.1.7): partition-private partial tables vs.
//     a single atomically updated accumulator per group;
//   - memory access pattern (§4.2, Figure 4): device-preferred vs. foreign
//     pattern for a bandwidth-bound kernel;
//   - radix width (§5.2.7): 8-bit vs. 4-bit digits per device;
//   - the slots stage (§4.1.4): identity addressing vs. the sorted
//     addressing by key range.

// ablEnv bundles a device's execution state for direct kernel launches.
type ablEnv struct {
	dev *cl.Device
	ctx *cl.Context
	q   *cl.Queue
}

func newAblEnv(dev *cl.Device) *ablEnv {
	ctx := cl.NewContext(dev)
	return &ablEnv{dev: dev, ctx: ctx, q: cl.NewQueue(ctx)}
}

func (e *ablEnv) buf(words int) *cl.Buffer {
	b, err := e.ctx.CreateBuffer(words * 4)
	if err != nil {
		panic(err) // ablation devices are sized generously
	}
	return b
}

// measureKernel times reps launches of op: virtual span on simulated
// devices, wall time otherwise.
func (e *ablEnv) measureKernel(reps int, op func() *cl.Event) (float64, error) {
	// Warm-up.
	if err := op().Wait(); err != nil {
		return 0, err
	}
	if e.dev.Simulated {
		start := e.dev.TimelineNow()
		for i := 0; i < reps; i++ {
			if err := op().Wait(); err != nil {
				return 0, err
			}
		}
		return float64((e.dev.TimelineNow() - start).Microseconds()) / float64(reps) / 1000, nil
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := op().Wait(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(reps) / 1000, nil
}

// AblationAccumulators measures the §4.1.7 accumulator design the engine
// runs: grouped integer sums through partition-private partials vs. atomics
// straight into one accumulator per group, across the group counts between
// which kernels.GroupAggScratchWords switches from the first to the second.
func AblationAccumulators(opt Options) *Report {
	opt = opt.withDefaults()
	rows := opt.BaseMB * rowsPerMB
	// 2 … 64 k groups, then the counts at which the partials table reaches
	// half, one, two and four times the input at this size, so the figure
	// brackets the switch whatever -base says.
	groupCounts := []float64{2, 16, 128, 1 << 10, 1 << 13, 1 << 16}
	for _, words := range []int{rows / 2, rows, 2 * rows, 4 * rows} {
		if g := words / kernels.GroupSumChunksFor(rows, rows); float64(g) > groupCounts[len(groupCounts)-1] {
			groupCounts = append(groupCounts, float64(g))
		}
	}

	r := &Report{
		ID:     "Ablation A1",
		Title:  fmt.Sprintf("Grouped aggregation: partition-private partials vs. direct atomics (§4.1.7), %d MB", opt.BaseMB),
		XLabel: "#groups",
		Xs:     groupCounts,
		Millis: map[string][]float64{},
	}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(opt.Threads), cl.NewGPUDevice(opt.GPUMemory)} {
		e := newAblEnv(dev)
		vals := e.buf(rows + 1)
		gids := e.buf(rows + 1)
		rnd := rand.New(rand.NewSource(opt.Seed))
		vi, gi := vals.I32(), gids.I32()
		for i := 0; i < rows; i++ {
			vi[i] = rnd.Int31n(1000)
		}
		class := dev.Const.Class.String()
		for _, label := range []string{"/partials", "/direct"} {
			r.Order = append(r.Order, class+label)
			r.Millis[class+label] = make([]float64, len(groupCounts))
		}
		for xi, gc := range groupCounts {
			ngroups := int(gc)
			for i := 0; i < rows; i++ {
				gi[i] = rnd.Int31n(int32(ngroups))
			}
			dst := e.buf(ngroups + 1)
			partials := e.buf(ngroups*kernels.GroupSumChunksFor(rows, ngroups) + 1)
			for label, scratch := range map[string]*cl.Buffer{"/partials": partials, "/direct": nil} {
				ms, err := e.measureKernel(opt.Runs, func() *cl.Event {
					return kernels.GroupedAggI32(e.q, dst, vals, gids, scratch, ops.Sum, rows, ngroups, nil)
				})
				if err != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("%s%s: %v", class, label, err))
					continue
				}
				r.Millis[class+label][xi] = ms
			}
			_ = partials.Release()
			_ = dst.Release()
		}
		_ = vals.Release()
		_ = gids.Release()
	}
	for _, gc := range groupCounts {
		if kernels.GroupAggScratchWords(rows, int(gc)) == 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("at %d rows the engine runs partials below %.0f groups and direct atomics from there on", rows, gc))
			break
		}
	}
	return r
}

// AblationAccessPattern measures the §4.2 access-pattern rule: a
// bandwidth-bound selection kernel with the device-preferred pattern vs.
// the other device's pattern, by flipping the build constant.
func AblationAccessPattern(opt Options) *Report {
	opt = opt.withDefaults()
	xs := make([]float64, len(opt.SizesMB))
	for i, mb := range opt.SizesMB {
		xs[i] = float64(mb)
	}
	r := &Report{
		ID:     "Ablation A2",
		Title:  "Selection kernel: device-preferred vs. foreign access pattern (§4.2, Fig. 4)",
		XLabel: "size[MB]",
		Xs:     xs,
		Millis: map[string][]float64{},
	}
	for _, base := range []*cl.Device{cl.NewCPUDevice(opt.Threads), cl.NewGPUDevice(opt.GPUMemory)} {
		// A twin device with the access-pattern constant flipped but the
		// launch geometry kept, so only the pattern changes.
		var foreign *cl.Device
		if base.Const.Class == cl.ClassCPU {
			foreign = cl.NewCPUDevice(opt.Threads)
			foreign.Const.Class = cl.ClassGPU
		} else {
			foreign = cl.NewGPUDevice(opt.GPUMemory)
			foreign.Const.Class = cl.ClassCPU
		}
		foreign.Const.Cores = base.Const.Cores
		foreign.Const.UnitsPerCore = base.Const.UnitsPerCore
		foreign.Const.Grain = base.Const.Grain
		for devLabel, dev := range map[string]*cl.Device{"/preferred": base, "/foreign": foreign} {
			label := base.Const.Class.String() + devLabel
			r.Order = append(r.Order, label)
			series := make([]float64, len(xs))
			e := newAblEnv(dev)
			for xi, mb := range opt.SizesMB {
				rows := mb * rowsPerMB
				col := e.buf(rows + 1)
				ci := col.I32()
				rnd := rand.New(rand.NewSource(opt.Seed + int64(xi)))
				for i := 0; i < rows; i++ {
					ci[i] = rnd.Int31n(1000)
				}
				bm, counts := e.buf(kernels.BitmapWords(rows)), e.buf(kernels.ReducePartialWords(dev))
				ms, err := e.measureKernel(opt.Runs, func() *cl.Event {
					return kernels.Select(e.q, bm, nil, counts, []kernels.FusedPredFilter{{Col: col, Lo: 0, Hi: 49}}, 0, rows, rows, nil)
				})
				if err != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("%s at %dMB: %v", label, mb, err))
					continue
				}
				series[xi] = ms
				_ = col.Release()
				_ = bm.Release()
				_ = counts.Release()
			}
			r.Millis[label] = series
		}
	}
	r.Notes = append(r.Notes,
		"note: the simulated GPU's cost model is pattern-blind; its foreign-pattern row shows functional portability, the CPU rows show the real cache effect")
	return r
}

// AblationRadixWidth measures the §5.2.7 radix choice: sorting with 4-bit
// vs. 8-bit digits on both devices.
func AblationRadixWidth(opt Options) *Report {
	opt = opt.withDefaults()
	xs := make([]float64, len(opt.SizesMB))
	for i, mb := range opt.SizesMB {
		xs[i] = float64(mb)
	}
	r := &Report{
		ID:     "Ablation A3",
		Title:  "Radix sort: 4-bit vs. 8-bit digits (§5.2.7)",
		XLabel: "size[MB]",
		Xs:     xs,
		Millis: map[string][]float64{},
	}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(opt.Threads), cl.NewGPUDevice(opt.GPUMemory)} {
		e := newAblEnv(dev)
		for _, bits := range []int{4, 8} {
			label := fmt.Sprintf("%s/%dbit", dev.Const.Class, bits)
			r.Order = append(r.Order, label)
			series := make([]float64, len(xs))
			for xi, mb := range opt.SizesMB {
				rows := mb * rowsPerMB
				keys := e.buf(rows + 1)
				vals := e.buf(rows + 1)
				tmpK, tmpV := e.buf(rows+1), e.buf(rows+1)
				_, _, gsz := kernels.Geometry(dev)
				hist := e.buf((1<<8)*gsz + 2)
				rnd := rand.New(rand.NewSource(opt.Seed + int64(xi)))
				ku := keys.U32()
				ms, err := e.measureKernel(opt.Runs, func() *cl.Event {
					for i := 0; i < rows; i++ {
						ku[i] = rnd.Uint32()
					}
					ev := kernels.Iota(e.q, vals, rows, 0, nil)
					return kernels.SortU32Bits(e.q, keys, vals, tmpK, tmpV, hist, rows, bits, 32, []*cl.Event{ev})
				})
				if err != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("%s at %dMB: %v", label, mb, err))
					continue
				}
				series[xi] = ms
				for _, b := range []*cl.Buffer{keys, vals, tmpK, tmpV, hist} {
					_ = b.Release()
				}
			}
			r.Millis[label] = series
		}
	}
	return r
}

// AblationSlotsStage measures the addressing rule of the lookup table
// (§4.1.4): the slots stage two ways over the same keys — identity addressing
// (range reduction, bitmap set, rank scan) and the sorted addressing (range
// reduction, radix sort, boundary flags, scan, compaction), each up to the
// distinct count — over range/n, n keys drawn from [0, range), up to 64, just
// under the range at which kernels.IdentityWords hands a build to sorting.
// Kernels are called directly, and both series of a point must agree on the
// distinct count.
func AblationSlotsStage(opt Options) *Report {
	opt = opt.withDefaults()
	rows := opt.BaseMB * rowsPerMB
	xs := []float64{0.25, 1, 4, 16, 64}
	r := &Report{
		ID:     "Ablation A4",
		Title:  fmt.Sprintf("Slots stage: identity vs. sorted addressing (§4.1.4), %d MB", opt.BaseMB),
		XLabel: "range/n",
		Xs:     xs,
		Millis: map[string][]float64{},
	}
	for _, dev := range []*cl.Device{cl.NewCPUDevice(opt.Threads), cl.NewGPUDevice(opt.GPUMemory)} {
		e := newAblEnv(dev)
		class := dev.Const.Class.String()
		modes := []string{"/identity", "/sorted"}
		for _, mode := range modes {
			r.Order = append(r.Order, class+mode)
			r.Millis[class+mode] = make([]float64, len(xs))
		}
		_, _, gsz := kernels.Geometry(dev)
		col, keys := e.buf(rows+1), e.buf(rows+1)
		total, rangeParts := e.buf(1), e.buf(kernels.KeyRangeWords(dev))
		sc := kernels.GroupSortScratch{
			K0: e.buf(rows + 1), V0: e.buf(rows + 1), K1: e.buf(rows + 1), V1: e.buf(rows + 1),
			Hist: e.buf(kernels.SortHistWords(dev) + 1), Spine: e.buf(gsz + 2), Total: e.buf(1),
		}
		for xi, x := range xs {
			keyRange := int(x * float64(rows))
			rnd := rand.New(rand.NewSource(opt.Seed))
			ci := col.I32()
			for i := 0; i < rows; i++ {
				ci[i] = rnd.Int31n(int32(keyRange))
			}
			words := kernels.IdentityWords(dev, rows, uint64(keyRange))
			bits, rank := e.buf(words), e.buf(words)
			var ndistinct [2]uint32
			for mi, mode := range modes {
				ms, err := e.measureKernel(opt.Runs, func() *cl.Event {
					rev := kernels.KeyRange(e.q, rangeParts, col, nil, rows, nil)
					if err := rev.Wait(); err != nil {
						return rev
					}
					ks := kernels.FoldKeyRange(dev, rangeParts.U32(), 1)
					if mode == "/sorted" {
						scanned, done := kernels.SortedSlots(e.q, keys, col, ks, sc, rows, nil)
						_ = scanned.Wait()
						total.U32()[0] = sc.Total.U32()[0] + 1
						return done
					}
					tab := kernels.Slots{Bits: bits, Rank: rank, Min: ks.Min, Span: ks.Span, Prev: 1}
					z := kernels.Fill(e.q, bits, words, 0, nil)
					ev := kernels.IdentitySet(e.q, tab, col, nil, rows, []*cl.Event{z})
					return kernels.IdentityRank(e.q, tab, sc.Spine, total, words, []*cl.Event{ev})
				})
				if err != nil {
					r.Notes = append(r.Notes, fmt.Sprintf("%s%s at range/n %g: %v", class, mode, x, err))
					continue
				}
				r.Millis[class+mode][xi] = ms
				ndistinct[mi] = total.U32()[0]
			}
			if ndistinct[0] != ndistinct[1] {
				panic(fmt.Sprintf("bench: A4 at range/n %g on %s: %d / %d distinct keys (identity / sorted)",
					x, class, ndistinct[0], ndistinct[1]))
			}
			_ = bits.Release()
			_ = rank.Release()
		}
		for _, b := range []*cl.Buffer{col, keys, total, rangeParts, sc.K0, sc.V0, sc.K1, sc.V1, sc.Hist, sc.Spine, sc.Total} {
			_ = b.Release()
		}
	}
	return r
}

// Ablations maps ablation ids to their generators.
func Ablations() map[string]func(Options) *Report {
	return map[string]func(Options) *Report{
		"a1": AblationAccumulators,
		"a2": AblationAccessPattern,
		"a3": AblationRadixWidth,
		"a4": AblationSlotsStage,
	}
}
