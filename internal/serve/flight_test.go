package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/mem"
	"repro/internal/ops"
)

func flightCol(name string, vals []int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

func flightFCol(name string, vals []float32) *bat.BAT {
	s := mem.AllocF32(len(vals))
	copy(s, vals)
	return bat.NewF32(name, s)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightDuplicatesShareOneExecution: N identical concurrent
// requests must execute the plan exactly once — one leader runs, the rest
// wait on its flight and share the result — with the coalescing visible in
// the stats.
func TestSingleFlightDuplicatesShareOneExecution(t *testing.T) {
	const followers = 7
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 4})
	var executions atomic.Int64
	plan := func(s *mal.Session) *mal.Result {
		executions.Add(1)
		// Hold the leader's execution open until every follower is waiting
		// on the flight, so none can slip past to an independent run.
		for start := time.Now(); sv.sharedWaiting.Load() < followers; {
			if time.Since(start) > 30*time.Second {
				t.Error("followers never queued behind the flight")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return s.Result(nil)
	}

	var wg sync.WaitGroup
	results := make(chan *mal.Result, followers+1)
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sv.Execute("dup", nil, plan)
			if err != nil {
				t.Errorf("coalesced request failed: %v", err)
				return
			}
			results <- res
		}()
	}
	wg.Wait()
	close(results)
	if n := executions.Load(); n != 1 {
		t.Fatalf("plan executed %d times for %d identical requests, want 1", n, followers+1)
	}
	var ref *mal.Result
	for res := range results {
		if ref == nil {
			ref = res
			continue
		}
		if err := canonEqual(res, ref); err != nil {
			t.Fatalf("shared results disagree: %v", err)
		}
	}
	st := sv.Stats()["dup"]
	if st.Runs != followers+1 || st.Shared != followers || st.Errors != 0 {
		t.Fatalf("stats = %+v, want %d runs with %d shared", st, followers+1, followers)
	}
}

// TestSingleFlightLeaderCancelDoesNotStrandFollowers: when a flight's
// leader is dropped before executing (context cancelled while queued), its
// followers must not hang on the dead flight — they retry, one becomes the
// new leader, and the request completes.
func TestSingleFlightLeaderCancelDoesNotStrandFollowers(t *testing.T) {
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	blocker := func(s *mal.Session) *mal.Result {
		close(started)
		<-release
		return s.Result(nil)
	}
	fast := func(s *mal.Session) *mal.Result { return s.Result(nil) }

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sv.Execute("blocker", nil, blocker); err != nil {
			t.Errorf("blocker failed: %v", err)
		}
	}()
	<-started // the only slot is held

	// The leader registers the flight for "q", then queues for the slot.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := sv.ExecuteCtx(ctx, "q", nil, fast)
		leaderErr <- err
	}()
	waitFor(t, "leader to queue", func() bool { return sv.waiting.Load() == 1 })

	// The follower finds the in-flight leader and waits on it.
	followerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := sv.Execute("q", nil, fast)
		followerErr <- err
	}()
	waitFor(t, "follower to join the flight", func() bool { return sv.sharedWaiting.Load() == 1 })

	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	// The follower must have moved on from the abandoned flight: it requeues
	// as its own leader and completes once the blocker releases the slot.
	waitFor(t, "follower to requeue", func() bool { return sv.waiting.Load() == 1 })
	close(release)
	if err := <-followerErr; err != nil {
		t.Fatalf("follower stranded by cancelled leader: %v", err)
	}
	wg.Wait()

	st := sv.Stats()["q"]
	if st.Dropped != 1 || st.Runs != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 1 dropped (the leader) and 1 run (the follower)", st)
	}
}

// sumScan is a parameterised plan over five rows: the sum of v where k is
// in 2..hi (hi defaults to 4). hold runs inside the plan closure, so it
// holds only a cold build open — replays never run the closure.
func sumScan(hold func()) func(*mal.Session) *mal.Result {
	k := flightCol("k", []int32{1, 2, 3, 4, 5})
	v := flightFCol("v", []float32{10, 20, 30, 40, 50})
	return func(s *mal.Session) *mal.Result {
		hi := s.Param("hi", 4)
		sel := s.Select(k, nil, 2, hi, true, true)
		vv := s.Project(sel, v)
		hold()
		return s.Result([]string{"sum"}, s.Aggr(ops.Sum, vv, nil, 0))
	}
}

// holdUntil returns a hold for sumScan that waits until cond holds. It runs
// on a request's goroutine, so it reports a timeout with t.Error and lets
// the build finish.
func holdUntil(t *testing.T, what string, cond func() bool) func() {
	return func() {
		for start := time.Now(); !cond(); {
			if time.Since(start) > 30*time.Second {
				t.Errorf("timed out waiting for %s", what)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// sumAnswer is one request's outcome: the bound it asked for and its sum.
type sumAnswer struct {
	hi, got float64
	err     error
}

// askSum issues sumScan with bound hi and delivers the answer on out.
func askSum(sv *Server, plan func(*mal.Session) *mal.Result, hi float64, out chan<- sumAnswer) {
	res, err := sv.Execute("q", mal.Params{"hi": hi}, plan)
	if err != nil {
		out <- sumAnswer{hi: hi, err: err}
		return
	}
	out <- sumAnswer{hi: hi, got: res.Canonical()[0][0]}
}

// sumWant is sumScan's answer per bound: k in 2..hi.
var sumWant = map[float64]float64{3: 50, 4: 90, 5: 140}

// checkSum fails unless a is the right answer for its own bound.
func checkSum(t *testing.T, a sumAnswer) {
	t.Helper()
	if a.err != nil {
		t.Fatalf("hi=%v: %v", a.hi, a.err)
	}
	if a.got != sumWant[a.hi] {
		t.Fatalf("hi=%v: sum = %v, want %v (parameters not re-bound?)", a.hi, a.got, sumWant[a.hi])
	}
}

// TestQueuedRequestsRebindTheirOwnParameters: same-query requests with
// different parameters that find the only slot busy wait in the ordinary
// queue, and each is then served as a replay of the cached template that
// re-binds its own parameters.
func TestQueuedRequestsRebindTheirOwnParameters(t *testing.T) {
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 1})
	// Hold the cold build open until both later requests are queued.
	plan := sumScan(holdUntil(t, "two queued requests", func() bool { return sv.waiting.Load() == 2 }))

	outs := make(chan sumAnswer, 3)
	go askSum(sv, plan, 4, outs)
	waitFor(t, "the leader to take the slot", func() bool { return len(sv.sem) == 1 })
	go askSum(sv, plan, 3, outs)
	go askSum(sv, plan, 5, outs)
	for i := 0; i < 3; i++ {
		checkSum(t, <-outs)
	}
	st := sv.Stats()["q"]
	if st.Runs != 3 || st.CacheHits != 2 || st.Batched != 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 3 runs, 2 cache hits, 0 batched", st)
	}
	hits, misses, _ := sv.CacheStats()
	if hits != 2 || misses != 1 {
		t.Fatalf("cache stats %d hits / %d misses, want 2/1", hits, misses)
	}
}

// gatedOps is an engine whose Select blocks, for any bound but 4, until
// open is closed (or ten seconds pass, so a wrong order fails instead of
// hanging). It lets a test hold the requests queued behind a hi=4 leader
// inside their own executions.
type gatedOps struct {
	ops.Operators
	open chan struct{}
}

func (g gatedOps) Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error) {
	if hi != 4 {
		select {
		case <-g.open:
		case <-time.After(10 * time.Second):
		}
	}
	return g.Operators.Select(col, cand, lo, hi, loIncl, hiIncl)
}

// TestLeaderReturnsOnItsOwnTime: a request that ran while same-query
// requests with other parameters queued behind it returns as soon as its
// own execution is done — it does not serve the queued requests first —
// and each queued request then returns its own answer from its own slot.
func TestLeaderReturnsOnItsOwnTime(t *testing.T) {
	open := make(chan struct{})
	sv := New(gatedOps{mal.MS.Build(mal.ConfigOptions{}), open}, Options{MaxConcurrent: 1})
	plan := sumScan(holdUntil(t, "two queued requests", func() bool { return sv.waiting.Load() == 2 }))

	leader := make(chan sumAnswer, 1)
	var leaderRuns int64
	go func() {
		res, err := sv.Execute("q", mal.Params{"hi": 4}, plan)
		leaderRuns = sv.Stats()["q"].Runs
		if err != nil {
			leader <- sumAnswer{hi: 4, err: err}
			return
		}
		leader <- sumAnswer{hi: 4, got: res.Canonical()[0][0]}
	}()
	waitFor(t, "the leader to take the slot", func() bool { return len(sv.sem) == 1 })
	others := make(chan sumAnswer, 2)
	go askSum(sv, plan, 3, others)
	go askSum(sv, plan, 5, others)

	checkSum(t, <-leader)
	if leaderRuns != 1 {
		t.Fatalf("the leader returned after %d runs, want 1: it served queued requests before returning", leaderRuns)
	}
	close(open)
	for i := 0; i < 2; i++ {
		checkSum(t, <-others)
	}
	if st := sv.Stats()["q"]; st.Runs != 3 || st.CacheHits != 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 3 runs, 2 cache hits", st)
	}
}
