package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/tpch"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// counters is a snapshot of every device and Memory Manager count of the
// rig's Ocelot devices, summed. Read before and after a call, the difference
// is what the call caused.
type counters struct {
	launches, transfers, transferBytes int64
	virtual                            time.Duration // simulated devices' timelines
	evictions, offloads, reloads       int64
	scratchHits, scratchMisses         int64
	spillJoins, spillBytes             int64
}

func (r *rig) counters() counters {
	var c counters
	for _, e := range r.devs {
		d := e.Device()
		c.launches += d.KernelLaunches()
		n, b := d.Transfers()
		c.transfers += n
		c.transferBytes += b
		if d.Simulated {
			c.virtual += d.TimelineNow()
		}
		ev, off, rel := e.Memory().Stats()
		c.evictions += ev
		c.offloads += off
		c.reloads += rel
		h, m := e.Memory().ScratchStats()
		c.scratchHits += h
		c.scratchMisses += m
		j, _, sb := e.SpillStats()
		c.spillJoins += j
		c.spillBytes += sb
	}
	return c
}

func (c *counters) addDelta(after, before counters) {
	c.launches += after.launches - before.launches
	c.transfers += after.transfers - before.transfers
	c.transferBytes += after.transferBytes - before.transferBytes
	c.virtual += after.virtual - before.virtual
	c.evictions += after.evictions - before.evictions
	c.offloads += after.offloads - before.offloads
	c.reloads += after.reloads - before.reloads
	c.scratchHits += after.scratchHits - before.scratchHits
	c.scratchMisses += after.scratchMisses - before.scratchMisses
	c.spillJoins += after.spillJoins - before.spillJoins
	c.spillBytes += after.spillBytes - before.spillBytes
}

// pressure is the sum of the counts that must read 0 on a CPU-only workload.
func (c counters) pressure() int64 {
	return c.transfers + c.transferBytes + int64(c.virtual) + c.evictions + c.offloads + c.reloads + c.spillJoins + c.spillBytes
}

// servers lists every serve.Server behind the rig's request boundary.
func (r *rig) servers() []*serve.Server {
	if r.ss == nil {
		return []*serve.Server{r.sv}
	}
	out := []*serve.Server{r.ss.Coordinator()}
	for i := 0; i < r.ss.NShards(); i++ {
		out = append(out, r.ss.Shard(i))
	}
	return out
}

// serveStats sums the per-query statistics of every server of the rig.
func (r *rig) serveStats() serve.QueryStats {
	var sum serve.QueryStats
	for _, sv := range r.servers() {
		for _, st := range sv.Stats() {
			sum.Runs += st.Runs
			sum.Errors += st.Errors
			sum.CacheHits += st.CacheHits
			sum.Rejected += st.Rejected
			sum.Dropped += st.Dropped
			sum.Shared += st.Shared
			sum.Batched += st.Batched
		}
	}
	return sum
}

// passes is the pass set the rig's servers use.
func (r *rig) passes() mal.Passes {
	p := mal.DefaultPasses()
	if r.ss != nil {
		p.Fusion = false
	}
	return p
}

// traceSet is the query set of the traced pass: the 14 queries, plus the scan
// plan at one parameter where the workload has it.
func (r *rig) traceSet(rng *rand.Rand) []request {
	var set []request
	for i := range r.queries {
		set = append(set, r.tpchRequest(i))
	}
	if r.scan != nil {
		set = append(set, r.scanRequest(1+rng.Intn(scanValues)))
	}
	return set
}

// peeled holds, per traced request, the time of the same request issued
// through successive entry points — each one layer further in.
type peeled struct {
	plain [][]float64 // untraced serve latency, per query index
	serve [][]float64 // traced serve latency, per query index
	s, c  []float64   // Server.ExecuteCtx, PlanCache.Run
	r, b  []float64   // Template.RunOn, RunQuery on a fresh session
	// o and crit are Session.OpTime and Session.CriticalPath of the replay:
	// the summed operator time, and the part of it on the longest dependency
	// chain — less where the parallel executor overlapped device lanes.
	o, crit []float64
	rounds  []float64 // per round: sum of its replays
	dev     counters  // sum of the deltas around the replays
	instr   int
	frags   int
	replans int
	parFrag int
}

// tracedPass runs the query set traceRounds times. Each request is issued
// through Server.ExecuteCtx, then PlanCache.Run on a warm cache the benchmark
// owns, then Template.RunOn, then mal.RunQuery on a fresh session, as sibling
// spans of one request; device and manager counters are read around the
// replay. An untraced serve round before each traced one gives the tracing
// overhead. Every response is compared in full.
func tracedPass(ctx context.Context, r *rig, seed int64, tr *tracer, tl *tally) (*peeled, error) {
	rng := rand.New(rand.NewSource(seed))
	set := r.traceSet(rng)
	p := &peeled{plain: make([][]float64, len(set)), serve: make([][]float64, len(set))}
	ck := &checker{tol: r.tol}
	passes := r.passes()
	cache := mal.NewPlanCache()
	verify := func(req request, res *mal.Result, err error) {
		tl.attempted++
		if err == nil {
			err = ck.full(res, req.want)
		}
		if err != nil {
			tl.fail("traced "+req.q.name, err)
		}
	}
	// Fill the benchmark's own cache; the servers' are warm since set-up.
	for _, req := range set {
		res, _, err := cache.Run(r.eng, req.q.name, req.params, passes, req.q.plan)
		verify(req, res, err)
	}

	reqID := 0
	for round := 0; round < r.w.traceRounds; round++ {
		order := rng.Perm(len(set))
		for _, i := range order {
			req := set[i]
			t0 := time.Now()
			res, err := r.sut.ExecuteCtx(ctx, req.q.name, req.params, req.q.plan)
			p.plain[i] = append(p.plain[i], ms(time.Since(t0)))
			verify(req, res, err)
		}
		var roundReplay float64
		for _, i := range order {
			req := set[i]
			root := tr.begin("request:"+req.q.name, -1, reqID)

			id := tr.begin("serve", root, reqID)
			res, err := r.sut.ExecuteCtx(ctx, req.q.name, req.params, req.q.plan)
			tr.end(id)
			verify(req, res, err)
			p.s = append(p.s, ms(tr.duration(id)))
			p.serve[i] = append(p.serve[i], ms(tr.duration(id)))

			id = tr.begin("mal.cache", root, reqID)
			res, _, err = cache.Run(r.eng, req.q.name, req.params, passes, req.q.plan)
			tr.end(id)
			verify(req, res, err)
			p.c = append(p.c, ms(tr.duration(id)))

			tpl := cache.Lookup(req.q.name, r.eng, passes)
			if tpl == nil {
				return nil, fmt.Errorf("traced pass: no cached template for %s", req.q.name)
			}
			before := r.counters()
			id = tr.begin("mal.replay", root, reqID)
			res, sess, err := tpl.RunOn(r.eng, req.params)
			tr.end(id)
			p.dev.addDelta(r.counters(), before)
			verify(req, res, err)
			if err == nil {
				tr.child("mal.ops", id, sess.CriticalPath())
				p.o = append(p.o, ms(sess.OpTime()))
				p.crit = append(p.crit, ms(sess.CriticalPath()))
				p.replans += sess.Replans()
				p.parFrag += sess.ParallelFragments()
			}
			p.r = append(p.r, ms(tr.duration(id)))
			roundReplay += ms(tr.duration(id))
			p.instr += tpl.Instructions()
			p.frags += tpl.Fragments()

			id = tr.begin("mal.build", root, reqID)
			fresh := mal.NewSession(r.eng)
			fresh.SetPasses(passes)
			fresh.SetParams(req.params)
			res, err = mal.RunQuery(fresh, req.q.plan)
			tr.end(id)
			verify(req, res, err)
			p.b = append(p.b, ms(tr.duration(id)))

			tr.end(root)
			reqID++
		}
		p.rounds = append(p.rounds, roundReplay)
	}
	return p, nil
}

// diffs returns a[i]-b[i] scaled by k.
func diffs(a, b []float64, k float64) []float64 {
	out := make([]float64, min(len(a), len(b)))
	for i := range out {
		out[i] = (a[i] - b[i]) * k
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// sumOfMedians adds up the per-query medians: the time of a typical round.
func sumOfMedians(byQuery [][]float64) float64 {
	var s float64
	for _, v := range byQuery {
		s += median(v)
	}
	return s
}

// report turns the traced pass into the serve, mal, core and cl metrics that
// come from it.
func (p *peeled) report(m *metrics, r *rig) {
	rounds := float64(r.w.traceRounds)
	m.timing("serve.self_us_p50", median(diffs(p.s, p.c, 1000)), p.s)
	m.timing("mal.build_us_p50", median(diffs(p.b, p.r, 1000)), p.b)
	m.timing("mal.cache_self_us_p50", median(diffs(p.c, p.r, 1000)), p.c)
	m.timing("mal.dispatch_us_p50", median(diffs(p.r, p.crit, 1000)), p.r)
	m.set("mal.dispatch_share", ratio(sum(p.r)-sum(p.crit), sum(p.r)))
	m.timing("mal.op_ms_p50", median(p.o), p.o)
	m.timing("mal.critpath_ms_p50", median(p.crit), p.crit)
	m.set("mal.instr_per_round", float64(p.instr)/rounds)
	m.set("mal.fragments_per_round", float64(p.frags)/rounds)
	m.set("mal.replans_per_round", float64(p.replans)/rounds)
	m.set("mal.parallel_frags_per_round", float64(p.parFrag)/rounds)

	d := p.dev
	m.set("cl.launches_per_round", float64(d.launches)/rounds)
	m.set("cl.transfers_per_round", float64(d.transfers)/rounds)
	m.set("cl.transfer_kb_per_round", float64(d.transferBytes)/1024/rounds)
	m.set("cl.virtual_ms_per_round", ms(d.virtual)/rounds)
	m.set("core.mm_evictions_per_round", float64(d.evictions)/rounds)
	m.set("core.mm_offloads_per_round", float64(d.offloads)/rounds)
	m.set("core.mm_reloads_per_round", float64(d.reloads)/rounds)
	m.set("core.scratch_hit_share", ratio(float64(d.scratchHits), float64(d.scratchHits+d.scratchMisses)))
	m.set("core.spill_joins_per_round", float64(d.spillJoins)/rounds)
	m.set("core.spill_kb_per_round", float64(d.spillBytes)/1024/rounds)
	var peak int64
	for _, e := range r.devs {
		if e.Device().Discrete {
			peak = max(peak, e.Device().PeakAllocated())
		}
	}
	m.set("core.dev_peak_mb", float64(peak)/(1<<20))

	m.set("trace.overhead_frac", ratio(sumOfMedians(p.serve), sumOfMedians(p.plain))-1)
}

// selfCheck compares the peeled self times of the traced requests, each as a
// share of its own request's serve time: at the median none may be negative
// by more than the noise between two calls of one request, and together they
// must add up to the serve time within a tenth.
func (p *peeled) selfCheck() (ok bool, line string) {
	share := func(a, b []float64) float64 {
		v := make([]float64, min(len(a), len(b), len(p.s)))
		for i := range v {
			v[i] = ratio(a[i]-b[i], p.s[i])
		}
		return median(v)
	}
	zero := make([]float64, len(p.s))
	parts := []float64{share(p.s, p.c), share(p.c, p.r), share(p.r, p.crit), share(p.crit, zero)}
	total := sum(parts)
	ok = math.Abs(total-1) <= 0.1
	for _, v := range parts {
		if v < -0.05 {
			ok = false
		}
	}
	return ok, fmt.Sprintf("self time as a share of the serve span, at the median: serve %.3f + cache %.3f + dispatch %.3f + operators %.3f = %.3f",
		parts[0], parts[1], parts[2], parts[3], total)
}

// twoClientRatio is the throughput of two closed-loop clients over that of
// one, each running the traced pass's number of rounds.
func twoClientRatio(ctx context.Context, r *rig, seed int64, tl *tally) float64 {
	run := func(clients int) float64 {
		var wg sync.WaitGroup
		cs := make([]*client, clients)
		t0 := time.Now()
		for i := range cs {
			cs[i] = newClient(r.sut, r.tol, seed*10+int64(i), r)
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for round := 0; round < r.w.traceRounds; round++ {
					c.round(ctx)
				}
			}(cs[i])
		}
		wg.Wait()
		wall := time.Since(t0)
		n := 0
		for _, c := range cs {
			c.settle()
			tl.add(c.tally)
			n += c.n
		}
		return float64(n) / wall.Seconds()
	}
	one := run(1)
	return ratio(run(2), one)
}

// operatorTimes calls five operators directly on lineitem and orders columns
// of the rig's instance — on o, drained after each call — and returns the
// median time of each in ms.
func operatorTimes(o ops.Operators, db *tpch.DB) (map[string]float64, error) {
	const reps = 5
	L, O := db.Lineitem, db.Orders
	year := func() (*bat.BAT, error) {
		return o.Select(L.Col("l_shipdate"), nil, float64(tpch.Ymd(1994, 1, 1)), float64(tpch.Ymd(1995, 1, 1)), true, false)
	}
	sel, err := year() // the candidate list the projection fetches through
	if err != nil {
		return nil, fmt.Errorf("direct select on %s: %w", o.Name(), err)
	}
	defer o.Release(sel)
	steps := []struct {
		name string
		call func() ([]*bat.BAT, error)
	}{
		{"select", func() ([]*bat.BAT, error) {
			b, err := year()
			return []*bat.BAT{b}, err
		}},
		{"project", func() ([]*bat.BAT, error) {
			b, err := o.Project(sel, L.Col("l_extendedprice"))
			return []*bat.BAT{b}, err
		}},
		{"join", func() ([]*bat.BAT, error) {
			l, r, err := o.Join(L.Col("l_orderkey"), O.Col("o_orderkey"))
			return []*bat.BAT{l, r}, err
		}},
		{"groupagg", func() ([]*bat.BAT, error) {
			g, n, err := o.Group(L.Col("l_returnflag"), nil, 0)
			if err != nil {
				return nil, err
			}
			a, err := o.Aggr(ops.Sum, L.Col("l_quantity"), g, n)
			return []*bat.BAT{g, a}, err
		}},
		{"sort", func() ([]*bat.BAT, error) {
			sorted, order, err := o.Sort(O.Col("o_totalprice"))
			return []*bat.BAT{sorted, order}, err
		}},
	}
	out := map[string]float64{}
	for _, st := range steps {
		var times []float64
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			outs, err := st.call()
			if err == nil {
				err = mal.Finish(o)
			}
			times = append(times, ms(time.Since(t0)))
			for _, b := range outs {
				if b != nil {
					o.Release(b)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("direct %s on %s: %w", st.name, o.Name(), err)
			}
		}
		out[st.name] = median(times)
	}
	return out, nil
}

// launchTimes measures the cl runtime alone on the engine's own queue: an
// empty kernel from enqueue to completion, the cost per command of a chain of
// 100 dependent enqueues drained by Finish, and a kernel whose work-items meet
// at one barrier. All in µs.
func launchTimes(q *cl.Queue) (launch, chain, barrier float64, err error) {
	const reps, chainLen = 200, 100
	empty := func(t *cl.Thread) {}
	one := func(l cl.Launch, fn cl.KernelFunc) ([]float64, error) {
		var v []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if err := q.EnqueueKernel(fn, l).Wait(); err != nil {
				return nil, err
			}
			v = append(v, us(time.Since(t0)))
		}
		return v, nil
	}
	lv, err := one(cl.Launch{Name: "bench_empty"}, empty)
	if err != nil {
		return 0, 0, 0, err
	}
	bv, err := one(cl.Launch{Name: "bench_barrier", Barriers: true}, func(t *cl.Thread) { t.Barrier() })
	if err != nil {
		return 0, 0, 0, err
	}
	var cv []float64
	for rep := 0; rep < reps/10; rep++ {
		var ev *cl.Event
		t0 := time.Now()
		for i := 0; i < chainLen; i++ {
			ev = q.EnqueueKernel(empty, cl.Launch{Name: "bench_chain", Wait: []*cl.Event{ev}})
		}
		if err := q.Finish(); err != nil {
			return 0, 0, 0, err
		}
		cv = append(cv, us(time.Since(t0))/chainLen)
	}
	return median(lv), median(cv), median(bv), q.Finish()
}

// gpuOpShare is the share of operator calls the hybrid engine placed on a
// GPU, over the engine's lifetime.
func gpuOpShare(h *hybrid.Engine) float64 {
	var gpu, all int
	for _, byDev := range h.Placements() {
		for label, n := range byDev {
			all += n
			if strings.HasPrefix(label, "GPU") {
				gpu += n
			}
		}
	}
	return ratio(float64(gpu), float64(all))
}

// runtimeStats is the Go runtime's state at one moment.
type runtimeStats struct {
	gcCycles  uint32
	pauseNs   uint64
	gcCPUFrac float64
	heapInuse uint64
}

func readRuntime() runtimeStats {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return runtimeStats{s.NumGC, s.PauseTotalNs, s.GCCPUFraction, s.HeapInuse}
}

// reportRuntime sets the Go runtime metrics of the window.
func reportRuntime(m *metrics, before, after runtimeStats) {
	m.set("rt.gc_cycles", float64(after.gcCycles-before.gcCycles))
	m.set("rt.gc_pause_ms_total", float64(after.pauseNs-before.pauseNs)/1e6)
	m.set("rt.gc_cpu_frac", after.gcCPUFrac)
	m.set("rt.heap_inuse_mb_max", float64(max(before.heapInuse, after.heapInuse))/(1<<20))
	m.set("rt.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads the process's peak resident set from /proc (VmHWM); 0 where
// there is no /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
