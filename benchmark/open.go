package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The open loop: independent users, so requests are sent on a schedule
// whether or not earlier ones have returned, and each is timed from the
// moment it was due.
var (
	// ladder is the offered rate of each step, requests per second.
	ladder = []float64{150, 300, 600, 900, 1200, 1500}
	// gatedRate is the rate whose requests feed the end-to-end metrics and
	// count as failed operations when they fail. The two execution slots serve
	// about 500 req/s of this mix without sharing work, and every query runs
	// its kernels on both cores: at 600 req/s the p50 differs by 66 % between
	// seeds and at 300 by 15 % between runs of one seed. The steps above probe
	// for the knee: a refusal there only lowers max_rate_ok.
	gatedRate = 150.0
	// The window is cut into ten parts: one block of the MonetDB reference at
	// either end and eight parts of load. With tracing off the gated step has
	// all eight; with tracing on it has three and each higher step one, since
	// only per-layer metrics come from those.
	windowParts, tracedGatedParts time.Duration = 10, 3
	// popularity is the rank order of the Zipf(theta=1) draw over the 14
	// TPC-H queries and the scan plan, most popular first.
	popularity = []string{"scan", "Q6", "Q1", "Q12", "Q4", "Q3", "Q19", "Q5", "Q10", "Q15", "Q7", "Q8", "Q17", "Q11", "Q21"}
)

const (
	// maxOutstanding caps requests in flight; an arrival over the cap is
	// refused by the generator and counts as failed.
	maxOutstanding = 512
	// A step is sustained when its p95 from due time is within limitMs, no
	// request was refused or failed, the backlog drained within drainLimit of
	// the last arrival, and the generator itself ran at most lateLimitMs late
	// at its 99th percentile.
	limitMs     = 50.0
	drainLimit  = 250 * time.Millisecond
	lateLimitMs = 10.0
)

// arrival is one scheduled request: when it is due, which plan, which
// parameter.
type arrival struct {
	due  time.Duration // from the start of the step
	rank int           // index into popularity
	hi   int           // scan parameter, 1..scanValues; 0 for a TPC-H query
}

// zipfCDF returns the cumulative weights of Zipf(theta=1) over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func draw(cdf []float64, rng *rand.Rand) int {
	return min(sort.SearchFloat64s(cdf, rng.Float64()), len(cdf)-1)
}

// mixPer100 is how often each plan occurs among 100 consecutive arrivals: the
// Zipf(theta=1) weights over the popularity order, rounded by largest
// remainder. Exact shares, so that every block of 100 arrivals — the block the
// end-to-end latencies are medians over — offers the same mix whatever the
// seed; the seed decides the order inside the block.
func mixPer100() []int {
	cdf := zipfCDF(len(popularity))
	counts := make([]int, len(cdf))
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	total, prev := 0, 0.0
	for i, c := range cdf {
		w := (c - prev) * blockSize
		prev = c
		counts[i] = int(w)
		total += counts[i]
		rems = append(rems, rem{i, w - float64(counts[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; total < blockSize; k++ {
		counts[rems[k].i]++
		total++
	}
	return counts
}

// schedule returns the arrivals of one step — a pure function of the seed,
// the step and its rate. The count is fixed at rate×length and the times are
// uniform draws, sorted: a Poisson process given its number of arrivals. Plans
// are dealt to the arrivals block by block from a shuffled mixPer100; the scan
// parameter is a Zipf(1) draw. A fixed count and a fixed mix keep runs with
// different seeds comparable.
func schedule(seed int64, step int, rate float64, length time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1000 + int64(step)))
	n := int(math.Round(rate * length.Seconds()))
	his := zipfCDF(scanValues)
	var deck []int
	for rank, count := range mixPer100() {
		for ; count > 0; count-- {
			deck = append(deck, rank)
		}
	}
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Float64() * float64(length))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	for i := range out {
		if i%blockSize == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		out[i].rank = deck[i%blockSize]
		if popularity[out[i].rank] == "scan" {
			out[i].hi = 1 + draw(his, rng)
		}
	}
	return out
}

// stepResult is what one step of the ladder measured.
type stepResult struct {
	rate      float64
	sent      int
	refused   int
	failed    int
	firstErr  string
	sched     []arrival
	lat       []float64 // per arrival: ms from due time to completion; NaN if refused
	late      []float64 // ms the generator dispatched after the due time
	drain     time.Duration
	elapsed   time.Duration
	kept      []kept
	mallocs   uint64
	allocByte uint64
}

// done returns the latencies of the requests that were sent, in arrival order.
func (s *stepResult) done() []float64 {
	out := make([]float64, 0, len(s.lat))
	for _, v := range s.lat {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// blockSize is the number of consecutive arrivals the open loop's end-to-end
// latencies are medians over.
const blockSize = 100

// blockPercentiles cuts the step's latencies, in arrival order, into blocks and
// returns each block's p-th percentile.
func (s *stepResult) blockPercentiles(p float64) []float64 {
	lat := s.done()
	var out []float64
	for lo := 0; lo+blockSize <= len(lat); lo += blockSize {
		out = append(out, percentile(lat[lo:lo+blockSize], p))
	}
	if len(out) == 0 {
		out = append(out, percentile(lat, p))
	}
	return out
}

// sustained applies the step's pass rule.
func (s *stepResult) sustained() bool {
	return s.refused == 0 && s.failed == 0 &&
		percentile(s.done(), 95) <= limitMs &&
		s.drain <= drainLimit &&
		percentile(s.late, 99) <= lateLimitMs
}

// requestFor maps an arrival to the rig's request.
func (r *rig) requestFor(a arrival) request {
	if a.hi > 0 {
		return r.scanRequest(a.hi)
	}
	return r.tpchRequest(r.queryIndex(popularity[a.rank]))
}

// queryIndex finds a TPC-H query by name; -1 for the scan plan.
func (r *rig) queryIndex(name string) int {
	for i, q := range r.queries {
		if q.name == name {
			return i
		}
	}
	return -1
}

// runStep plays one step's schedule: one dispatcher sleeping to due times,
// one goroutine per request.
func runStep(ctx context.Context, r *rig, sched []arrival, rate float64, length time.Duration) *stepResult {
	s := &stepResult{rate: rate, sent: len(sched), sched: sched}
	var (
		mu          sync.Mutex
		wg          sync.WaitGroup
		outstanding int
	)
	s.lat = make([]float64, len(sched))
	s.late = make([]float64, 0, len(sched))
	checkers := sync.Pool{New: func() any { return &checker{tol: r.tol} }}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, a := range sched {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		due := start.Add(a.due)
		s.late = append(s.late, ms(time.Since(due)))
		mu.Lock()
		if outstanding >= maxOutstanding {
			s.refused++
			s.lat[i] = math.NaN()
			mu.Unlock()
			continue
		}
		outstanding++
		mu.Unlock()
		req := r.requestFor(a)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.sut.ExecuteCtx(ctx, req.q.name, req.params, req.q.plan)
			s.lat[i] = ms(time.Since(due))
			if err == nil {
				ck := checkers.Get().(*checker)
				err = ck.quick(res, req.want)
				checkers.Put(ck)
			}
			mu.Lock()
			defer mu.Unlock()
			outstanding--
			if err != nil {
				s.failed++
				if s.firstErr == "" {
					s.firstErr = req.q.name + ": " + err.Error()
				}
			} else if i%fullCheckEvery == 0 {
				s.kept = append(s.kept, kept{res, req.want, req.q.name})
			}
		}(i)
	}
	lastDue := start.Add(length)
	wg.Wait()
	s.drain = max(time.Since(lastDue), 0)
	s.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocByte = after.TotalAlloc - before.TotalAlloc
	return s
}

// settle runs the full comparison on the step's kept responses.
func (s *stepResult) settle(tol float64) {
	ck := &checker{tol: tol}
	for _, k := range s.kept {
		if err := ck.full(k.res, k.want); err != nil {
			s.failed++
			if s.firstErr == "" {
				s.firstErr = k.name + ": " + err.Error()
			}
		}
	}
	s.kept = nil
}

// openWindow is what the open-loop window measured.
type openWindow struct {
	steps []*stepResult
	ref   *client
}

// runLadder climbs the ladder between two blocks of the MonetDB reference.
// The gated step always runs, since the end-to-end metrics come from it;
// above, the climb stops at the first step that is not sustained.
func runLadder(ctx context.Context, r *rig, seed int64, d time.Duration, climb bool) *openWindow {
	w := &openWindow{ref: newRefClient(r, seed+1)}
	part := d / windowParts
	w.ref.runFor(ctx, part)
	for i, rate := range ladder {
		length := part
		switch {
		case rate == gatedRate && climb:
			length = tracedGatedParts * part
		case rate == gatedRate:
			length = (windowParts - 2) * part
		case !climb:
			continue
		}
		s := runStep(ctx, r, schedule(seed, i, rate, length), rate, length)
		s.settle(r.tol)
		w.steps = append(w.steps, s)
		if rate > gatedRate && !s.sustained() {
			break
		}
	}
	w.ref.runFor(ctx, part)
	return w
}
