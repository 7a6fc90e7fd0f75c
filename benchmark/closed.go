package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/mal"
)

// fullCheckEvery is how often the window keeps a response for the full
// row-by-row comparison; every response gets the quick check.
const fullCheckEvery = 8

// tally counts operations and keeps the first failure for the report.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) fail(what string, err error) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf("%s: %v", what, err)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// kept is a response held back for the full comparison after the window, so
// that neither its time nor its allocations land in the window's metrics.
type kept struct {
	res  *mal.Result
	want *oracle
	name string
}

// client is one closed-loop client: it records every request's latency and
// every round's time on the clock, with check time excluded.
type client struct {
	ex   executor
	ck   *checker
	rng  *rand.Rand
	reqs func(qi int) request // the request for query qi, as the data stands now
	nq   int

	tally   tally
	n       int
	lat     []float64   // every request, ms
	byQuery [][]float64 // per query index, ms
	// Per round: the sum, the median and the 95th percentile of its requests'
	// latencies, ms. The round is the block the end-to-end numbers are medians
	// over, so that one stall of the sandbox moves them little.
	rounds, p50s, p95s []float64
	scratch            []float64
	kept               []kept
	// mallocs and allocBytes are the process's allocations while this client
	// was the one running.
	mallocs, allocBytes uint64
}

// newClient makes a client of the system under test; tol 0 and refRequest
// make one of the MonetDB reference.
func newClient(ex executor, tol float64, seed int64, r *rig) *client {
	return &client{
		ex:      ex,
		ck:      &checker{tol: tol},
		rng:     rand.New(rand.NewSource(seed)),
		reqs:    r.tpchRequest,
		nq:      len(r.queries),
		byQuery: make([][]float64, len(r.queries)),
	}
}

// newRefClient makes the client of the MonetDB reference server.
func newRefClient(r *rig, seed int64) *client {
	c := newClient(r.ms, 0, seed, r)
	c.reqs = r.refRequest
	return c
}

// do issues one request and accounts for it. An error, a refusal or a wrong
// answer is a failed operation; its latency is still recorded.
func (c *client) do(ctx context.Context, req request, qi int) float64 {
	c.tally.attempted++
	t0 := time.Now()
	res, err := c.ex.ExecuteCtx(ctx, req.q.name, req.params, req.q.plan)
	took := ms(time.Since(t0))
	c.lat = append(c.lat, took)
	c.byQuery[qi] = append(c.byQuery[qi], took)
	if err == nil {
		err = c.ck.quick(res, req.want)
	}
	if err != nil {
		c.tally.fail(req.q.name, err)
	} else if c.n%fullCheckEvery == 0 {
		c.kept = append(c.kept, kept{res, req.want, req.q.name})
	}
	c.n++
	return took
}

// round runs the query set once in a seeded order.
func (c *client) round(ctx context.Context) {
	c.scratch = c.scratch[:0]
	for _, qi := range c.rng.Perm(c.nq) {
		c.scratch = append(c.scratch, c.do(ctx, c.reqs(qi), qi))
	}
	c.endRound()
}

// endRound files the latencies of one round, left in scratch.
func (c *client) endRound() {
	c.rounds = append(c.rounds, sum(c.scratch))
	sort.Float64s(c.scratch)
	c.p50s = append(c.p50s, percentileSorted(c.scratch, 50))
	c.p95s = append(c.p95s, percentileSorted(c.scratch, 95))
}

// runFor runs whole rounds until d has passed and books the process's
// allocations of that time to the client, which runs alone.
func (c *client) runFor(ctx context.Context, d time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for t0 := time.Now(); time.Since(t0) < d; {
		c.round(ctx)
	}
	runtime.ReadMemStats(&after)
	c.mallocs += after.Mallocs - before.Mallocs
	c.allocBytes += after.TotalAlloc - before.TotalAlloc
}

// settle runs the full comparison on the kept responses.
func (c *client) settle() {
	for _, k := range c.kept {
		if err := c.ck.full(k.res, k.want); err != nil {
			c.tally.fail(k.name, err)
		}
	}
	c.kept = nil
}

// qps is the throughput of whole rounds: requests per round over the median
// round time.
func (c *client) qps() float64 {
	return ratio(float64(c.nq)*1000, median(c.rounds))
}

// closedWindow is what a closed-loop window measured.
type closedWindow struct {
	sut, ref *client
}

// runClosed runs one client for the given time, cut into six blocks — two of
// the system under test, one of the MonetDB reference on the same data,
// twice — so that both see the same drift of the machine; a block ends at the
// first round boundary past its time.
func runClosed(ctx context.Context, r *rig, seed int64, d time.Duration) *closedWindow {
	w := &closedWindow{sut: newClient(r.sut, r.tol, seed, r), ref: newRefClient(r, seed+1)}
	for _, c := range []*client{w.sut, w.sut, w.ref, w.sut, w.sut, w.ref} {
		c.runFor(ctx, d/6)
	}
	return w
}
