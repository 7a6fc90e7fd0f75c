package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/hybrid"
)

// setupReps is how often a run sets the workload up from nothing; set-up time
// is the median, and the last rig is the one measured.
const setupReps = 3

// window is what the measured window hands to the traced pass and the report.
type window struct {
	tally   tally
	byQuery [][]float64 // untraced latency per query index, ms
}

// runWorkload is one run: set up, measure for the window, check, and — with
// tracing on — the traced pass and the per-layer metrics.
func runWorkload(w *workload, sp *spec, o options, threads int) (*runResult, error) {
	m := newMetrics()
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	var r *rig
	var setups []float64
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = setup(w, threads); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	m.timing("setup_s", median(setups), setups)
	m.set("tpch.generate_s", r.generate.Seconds())
	m.set("tpch.db_mb", float64(r.db.TotalBytes())/(1<<20))

	// Start every window from a collected heap, whatever set-up left behind.
	runtime.GC()
	ctx := context.Background()
	d := time.Duration(o.seconds * float64(time.Second))
	devBefore, rtBefore, stBefore := r.counters(), readRuntime(), r.serveStats()
	var win *window
	switch {
	case w.open:
		win = reportOpen(m, r, runLadder(ctx, r, o.seed, d, o.trace == 1))
	case w.ingests > 0:
		win = reportIngest(m, runIngestMix(ctx, r, o.seed, d))
	default:
		cw := runClosed(ctx, r, o.seed, d)
		win = reportReader(m, cw.sut, cw.ref)
	}
	reportRuntime(m, rtBefore, readRuntime())
	var devWindow counters
	devWindow.addDelta(r.counters(), devBefore)
	st := r.serveStats()
	runs := float64(st.Runs - stBefore.Runs)
	m.set("serve.cache_hit_share", ratio(float64(st.CacheHits-stBefore.CacheHits), runs))
	m.set("serve.shared_share", ratio(float64(st.Shared-stBefore.Shared), runs))
	m.set("serve.batched_share", ratio(float64(st.Batched-stBefore.Batched), runs))
	for i, q := range r.queries {
		name := fmt.Sprintf("tpch.q%d_ms_p50", q.num)
		m.timing(name, median(win.byQuery[i]), win.byQuery[i])
	}
	total := win.tally

	checks := []check{}
	if o.trace == 1 {
		var err error
		if checks, err = traceAndReport(ctx, m, r, o, win, devWindow, &total); err != nil {
			return nil, err
		}
	}

	list, mustHave := sp.EndToEnd, true
	if o.trace == 1 {
		list, mustHave = sp.PerLayer, false
	}
	reported, err := m.report(list, append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...), mustHave)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	printMetrics(w, m, reported, list)
	correct := total.failed == 0
	for _, c := range checks {
		verdict := "ok"
		if !c.ok {
			verdict = "NOT MET"
			correct = correct && !c.gates
		}
		fmt.Printf("%-16s check %-7s %s\n", w.name, verdict, c.what)
	}
	fmt.Printf("%-16s attempted %d failed %d", w.name, total.attempted, total.failed)
	if total.firstErr != "" {
		fmt.Printf(" first failure: %s", total.firstErr)
	}
	fmt.Println()
	return &runResult{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: reported}, nil
}

// reportCommon sets what every window reports the same way: the reference's
// share of the numbers, and the end-to-end ratio against it.
func reportCommon(m *metrics, win *window, sutMs, refMs float64, ref *client) {
	ref.settle()
	win.tally.add(ref.tally)
	m.setNote("vs_ms_ratio", ratio(sutMs, refMs), "%.4g ms against %.4g ms over %d rounds of MonetDB", sutMs, refMs, len(ref.rounds))
	m.set("monet.allocs_per_req", ratio(float64(ref.mallocs), float64(ref.n)))
}

// reportReader sets the end-to-end metrics of a closed-loop client.
func reportReader(m *metrics, c, ref *client) *window {
	c.settle()
	m.timing("qps", c.qps(), c.rounds)
	m.timing("req_ms_p50", median(c.p50s), c.p50s)
	m.timing("req_ms_p95", median(c.p95s), c.p95s)
	m.timing("e2e.req_ms_p99", p99(c.lat), c.lat)
	m.set("e2e.allocs_per_req", ratio(float64(c.mallocs), float64(c.n)))
	m.set("e2e.alloc_kb_per_req", ratio(float64(c.allocBytes)/1024, float64(c.n)))
	win := &window{tally: c.tally, byQuery: c.byQuery}
	reportCommon(m, win, median(c.rounds), median(ref.rounds), ref)
	return win
}

// p99 is reported only where at least 1000 samples stand behind it, so that
// ten lie beyond it; otherwise it reads 0.
func p99(lat []float64) float64 {
	if len(lat) < 1000 {
		return 0
	}
	return percentile(lat, 99)
}

// reportOpen sets the metrics of the open loop. Throughput, latency and
// allocations come from the gated step, which always runs; latency is from
// due time, as the median over blocks of consecutive arrivals.
func reportOpen(m *metrics, r *rig, w *openWindow) *window {
	win := &window{byQuery: make([][]float64, len(r.queries))}
	maxOK := 0.0
	climbing := true
	for _, s := range w.steps {
		lat := s.done()
		sustained := s.sustained()
		fmt.Printf("%-16s step %4.0f req/s: sent %d refused %d failed %d p50 %.3f p95 %.3f ms, drained in %.1f ms, generator late p99 %.3f ms, sustained %v\n",
			r.w.name, s.rate, s.sent, s.refused, s.failed, percentile(lat, 50), percentile(lat, 95),
			ms(s.drain), percentile(s.late, 99), sustained)
		if climbing && sustained {
			maxOK = s.rate
		} else {
			climbing = false
		}
		if s.rate != gatedRate {
			continue
		}
		win.tally = tally{attempted: s.sent, failed: s.refused + s.failed, firstErr: s.firstErr}
		served := len(lat) - s.failed
		m.setNote("qps", ratio(float64(served), s.elapsed.Seconds()), "n=%d at %.0f req/s offered", served, s.rate)
		p50s, p95s := s.blockPercentiles(50), s.blockPercentiles(95)
		m.timing("req_ms_p50", median(p50s), p50s)
		m.timing("req_ms_p95", median(p95s), p95s)
		m.timing("e2e.req_ms_p99", p99(lat), lat)
		m.set("e2e.allocs_per_req", ratio(float64(s.mallocs), float64(s.sent)))
		m.set("e2e.alloc_kb_per_req", ratio(float64(s.allocByte)/1024, float64(s.sent)))
		m.timing("gen.late_ms_p99", percentile(s.late, 99), s.late)
		m.set("serve.refused_share", ratio(float64(s.refused), float64(s.sent)))
		for i, v := range s.lat {
			if qi := r.queryIndex(popularity[s.sched[i].rank]); qi >= 0 && !math.IsNaN(v) {
				win.byQuery[qi] = append(win.byQuery[qi], v)
			}
		}
		// Against the reference: the typical request of the step over the
		// typical request of MonetDB's closed loop.
		reportCommon(m, win, median(p50s), median(w.ref.p50s), w.ref)
	}
	m.set("e2e.max_rate_ok", maxOK)
	return win
}

// reportIngest sets the metrics of the read/ingest mix: reads feed the common
// metrics, the writer its own.
func reportIngest(m *metrics, w *ingestWindow) *window {
	win := reportReader(m, w.reader, w.ref)
	m.timing("e2e.ingest_ms_p50", median(w.ingestMs), w.ingestMs)
	m.timing("tpch.append_ms_p50", median(w.applyMs), w.applyMs)
	m.timing("serve.ingest_invalidate_us_p50", median(diffs(w.ingestMs, w.applyMs, 1000)), w.ingestMs)
	m.set("bat.append_rows_per_ingest", median(w.rows))
	win.tally.attempted += len(w.ingestMs)
	return win
}

// check is one prediction about the numbers, printed with its verdict. A
// prediction about counts gates the run's correctness; one about times is
// printed only, since the sandbox's noise can break it.
type check struct {
	ok    bool
	gates bool
	what  string
}

// traceAndReport runs the traced pass and everything else that only the
// per-layer metrics need, writes the span file, and returns the checks.
func traceAndReport(ctx context.Context, m *metrics, r *rig, o options, win *window, devWindow counters, total *tally) ([]check, error) {
	w := r.w
	tr := newTracer()
	p, err := tracedPass(ctx, r, o.seed, tr, total)
	if err != nil {
		return nil, err
	}
	p.report(m, r)
	dir, err := outDir(o.root)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	m.set("serve.qps_2c_ratio", twoClientRatio(ctx, r, o.seed, total))

	var checks []check
	ok, line := p.selfCheck()
	checks = append(checks, check{ok: ok, what: line})

	// Operators and launches, called directly.
	if len(r.devs) > 0 {
		t, err := operatorTimes(r.eng, r.db)
		if err != nil {
			return nil, err
		}
		for name, v := range t {
			m.set("core."+name+"_ms", v)
		}
		launch, chain, barrier, err := launchTimes(r.devs[0].Queue())
		if err != nil {
			return nil, fmt.Errorf("direct launches: %w", err)
		}
		m.set("cl.launch_us_p50", launch)
		m.set("cl.chain_us_per_cmd", chain)
		m.set("cl.barrier_us_p50", barrier)
		m.set("cl.launch_share", ratio(m.val["cl.launches_per_round"]*launch/1000, median(p.rounds)))
	}
	t, err := operatorTimes(r.msEng, r.db)
	if err != nil {
		return nil, err
	}
	for name, v := range t {
		m.set("monet."+name+"_ms", v)
	}
	if h, ok := r.eng.(*hybrid.Engine); ok {
		m.set("hybrid.gpu_op_share", gpuOpShare(h))
		m.set("hybrid.transient_retries", float64(h.TransientRetries()))
	}

	// Predictions that must hold on every run.
	dev := devWindow
	dev.addDelta(p.dev, counters{})
	if w.engine == "HYB" {
		checks = append(checks, check{dev.evictions+dev.offloads+dev.spillJoins > 0 && dev.transfers > 0, true,
			fmt.Sprintf("device memory is under pressure: %d evictions, %d offloads, %d reloads, %d spilling joins, %d transfers over the window and the traced pass",
				dev.evictions, dev.offloads, dev.reloads, dev.spillJoins, dev.transfers)})
	} else {
		checks = append(checks, check{dev.pressure() == 0, true,
			fmt.Sprintf("no transfer, eviction, offload, reload or spill on a CPU-only workload (sum of the counts: %d)", dev.pressure())})
	}
	coalesced := m.val["serve.shared_share"] + m.val["serve.batched_share"]
	if w.open {
		checks = append(checks, check{coalesced > 0, true, fmt.Sprintf("the open loop shares work: %.4f of its requests shared or batched", coalesced)})
	} else {
		checks = append(checks, check{coalesced == 0, true, fmt.Sprintf("a one-client closed loop shares no work: %.4f of its requests shared or batched", coalesced)})
	}

	if w.open {
		// Queueing delay: latency at the gated step minus that query's
		// latency on an idle server, from the traced pass.
		var queue []float64
		for qi, lat := range win.byQuery {
			idle := median(p.plain[qi])
			for _, v := range lat {
				queue = append(queue, v-idle)
			}
		}
		m.timing("serve.queue_ms_p95", percentile(queue, 95), queue)
	}
	if r.ss != nil {
		if err := reportSharded(ctx, m, r, o, total); err != nil {
			return nil, err
		}
	}
	return checks, nil
}

// reportSharded sets the sharded layer's metrics.
func reportSharded(ctx context.Context, m *metrics, r *rig, o options, total *tally) error {
	st := r.ss.Stats()
	served := float64(st.Scattered + st.Degenerate + st.ColdCompiles + st.Fallbacks)
	m.set("serve.shard_scattered_share", ratio(float64(st.Scattered), served))
	m.set("serve.shard_degenerate_share", ratio(float64(st.Degenerate), served))
	m.set("serve.shard_fallbacks", float64(st.Fallbacks))
	m.set("serve.shard_recompiles_per_ingest", ratio(float64(st.Recompiles), float64(r.w.ingests)))

	// Sharded against unsharded on the same data, rounds interleaved.
	plain := plainMS(r.w.opts)
	sharded := newClient(r.sut, r.tol, o.seed, r)
	unsharded := newClient(plain, r.tol, o.seed, r)
	for round := 0; round <= r.w.traceRounds; round++ {
		sharded.round(ctx)
		unsharded.round(ctx)
	}
	for _, c := range []*client{sharded, unsharded} {
		c.settle()
		total.add(c.tally)
	}
	// The first round compiled the unsharded server's plans.
	m.set("serve.shard_overhead_ratio", ratio(sumOfMedians(tail(sharded.byQuery)), sumOfMedians(tail(unsharded.byQuery))))
	m.set("serve.torn_share", tornShare(ctx, r, o.seed))
	return nil
}

// tail drops each query's first sample.
func tail(byQuery [][]float64) [][]float64 {
	out := make([][]float64, len(byQuery))
	for i, v := range byQuery {
		if len(v) > 1 {
			out[i] = v[1:]
		}
	}
	return out
}
