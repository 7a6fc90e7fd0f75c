package mal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/hybrid"
)

// pinAlternating pins the template's compute instructions round-robin
// across the given device labels and derives each fragment's graph again, so
// a replay schedules that many lanes through the parallel executor
// regardless of what the placement pass chose. Pins only route placement —
// any assignment is legal — which is exactly why the tests may rewrite them
// (before the first replay: a template that is being executed is immutable).
func pinAlternating(s *Session, labels ...string) int {
	tpl := s.Template()
	pinned := 0
	for fi, frag := range tpl.frags {
		for _, in := range frag.instrs {
			if in.computes() {
				in.Device = labels[pinned%len(labels)]
				pinned++
			}
		}
		tpl.frags[fi] = s.planGraph(frag.instrs)
	}
	return pinned
}

// TestPlanGraphStructure: the per-fragment dependency graph must be
// well-formed on a real rewritten plan — every edge points backward, the
// lanes partition the fragment, every argument's producer is a dependency,
// and sync/release instructions ride their producer's lane.
func TestPlanGraphStructure(t *testing.T) {
	k, v, g := testData()
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
	s := NewSession(o)
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	pinAlternating(s, "GPU0", "GPU1")
	_, sess, err := tpl.RunOn(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	for fi, frag := range tpl.frags {
		if len(frag.deps) != len(frag.instrs) || len(frag.laneOf) != len(frag.instrs) {
			t.Fatalf("frag %d: %d edge lists, %d lanes for %d instructions", fi, len(frag.deps), len(frag.laneOf), len(frag.instrs))
		}
		seen := map[int]bool{}
		for _, idxs := range frag.lanes {
			prev := -1
			for _, i := range idxs {
				if seen[i] {
					t.Fatalf("frag %d: node %d in two lanes", fi, i)
				}
				seen[i] = true
				if i <= prev {
					t.Fatalf("frag %d lane %q: indices not ascending", fi, frag.laneOf[idxs[0]])
				}
				prev = i
			}
		}
		if len(seen) != len(frag.instrs) {
			t.Fatalf("frag %d: lanes cover %d of %d nodes", fi, len(seen), len(frag.instrs))
		}
		producer := map[*bat.BAT]int{}
		for i, in := range frag.instrs {
			depSet := map[int]bool{}
			for _, d := range frag.deps[i] {
				if d < 0 || d >= i {
					t.Fatalf("frag %d node %d: forward or self edge to %d", fi, i, d)
				}
				depSet[d] = true
			}
			for _, a := range in.Args {
				if a == nil {
					continue
				}
				if p, ok := producer[sess.canon(a)]; ok && !depSet[p] {
					t.Fatalf("frag %d node %d (%s): missing data edge to producer %d of %q",
						fi, i, in.OpName(), p, a.Name)
				}
			}
			if !in.computes() && len(in.Args) > 0 && in.Args[0] != nil {
				if p, ok := producer[sess.canon(in.Args[0])]; ok && frag.laneOf[i] != frag.laneOf[p] {
					t.Fatalf("frag %d node %d (%s): lane %q, producer's lane %q",
						fi, i, in.OpName(), frag.laneOf[i], frag.laneOf[p])
				}
			}
			for _, r := range in.Rets {
				producer[sess.canon(r)] = i
			}
			for _, m := range in.Sub {
				for _, r := range m.Rets {
					producer[sess.canon(r)] = i
				}
			}
		}
	}
}

// TestParallelReplayMultiLaneByteIdentical: a template pinned across two
// GPU lanes must replay through the parallel executor to byte-identical
// results, run after run, and the critical path must never exceed the
// summed dispatch time.
func TestParallelReplayMultiLaneByteIdentical(t *testing.T) {
	k, v, g := testData()
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
	s := NewSession(o)
	s.SetParallel(false)
	ref, err := RunQuery(s, miniPlan(k, v, g))
	if err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	if pinAlternating(s, "GPU0", "GPU1") < 2 {
		t.Fatal("plan too small to span two lanes")
	}
	for run := 0; run < 6; run++ {
		got, sess, err := tpl.RunOn(o, nil)
		if err != nil {
			t.Fatalf("replay %d: %v", run, err)
		}
		if sess.ParallelFragments() == 0 {
			t.Fatalf("replay %d: parallel executor did not engage", run)
		}
		if err := got.EqualWithin(ref, 0); err != nil {
			t.Fatalf("replay %d not byte-identical to serial run: %v", run, err)
		}
		if cp, sum := sess.CriticalPath(), sess.OpTime(); cp <= 0 || cp > sum {
			t.Fatalf("replay %d: critical path %v outside (0, %v]", run, cp, sum)
		}
	}
}

// TestParallelSwitchOffStaysSerial: SetParallel(false) must keep a
// multi-lane plan on the serial path (no parallel fragments), still
// producing the same result.
func TestParallelSwitchOffStaysSerial(t *testing.T) {
	k, v, g := testData()
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
	s := NewSession(o)
	ref, err := RunQuery(s, miniPlan(k, v, g))
	if err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	pinAlternating(s, "GPU0", "GPU1")
	ser, err := tpl.newExec(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	ser.SetParallel(false)
	got, err := ser.runTemplate()
	if err != nil {
		t.Fatal(err)
	}
	if ser.ParallelFragments() != 0 {
		t.Fatal("serial execution recorded parallel fragments")
	}
	if err := got.EqualWithin(ref, 0); err != nil {
		t.Fatalf("serial replay differs: %v", err)
	}
	if cp, sum := ser.CriticalPath(), ser.OpTime(); cp != sum {
		t.Fatalf("serial critical path %v != summed dispatch %v", cp, sum)
	}
}

// TestParallelAbortPropagates: a plan abort inside one lane of the parallel
// executor must unblock every other lane and surface as an error from the
// replay — no deadlock, no stray panic.
func TestParallelAbortPropagates(t *testing.T) {
	k, v, g := testData()
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20, GPUs: 2})
	s := NewSession(o)
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	if pinAlternating(s, "GPU0", "GPU1") < 2 {
		t.Fatal("plan too small to span two lanes")
	}
	// Kill every device: the first dispatch fails on its pin and on the
	// whole fallback chain, aborting the plan from inside a lane goroutine.
	h := o.(*hybrid.Engine)
	for _, d := range h.Devices() {
		d.Eng.Device().InjectFaults(cl.FaultPlan{DieAtCommand: 1})
	}
	done := make(chan error, 1)
	go func() {
		_, err := tpl.Run(o, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("replay on all-dead devices reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("parallel abort deadlocked")
	}
}

// TestPlanCacheSingleFlightMissStorm: N concurrent cold requests for the
// same key must run the plan function exactly once; the waiters replay the
// winner's template (counted as hits) and all agree.
func TestPlanCacheSingleFlightMissStorm(t *testing.T) {
	const waiters = 7
	k, v, g := testData()
	o := OcelotCPU.Build(ConfigOptions{Threads: 2})
	c := NewPlanCache()
	passes := DefaultPasses()

	var builds atomic.Int64
	plan := func(s *Session) *Result {
		builds.Add(1)
		// Hold the build open until every follower has registered on the
		// in-flight entry, so none of them can race past to a plain hit.
		for start := time.Now(); c.Coalesced() < waiters; {
			if time.Since(start) > 30*time.Second {
				t.Error("followers never queued behind the build")
				break
			}
			time.Sleep(time.Millisecond)
		}
		return miniPlan(k, v, g)(s)
	}

	var wg sync.WaitGroup
	results := make(chan *Result, waiters+1)
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := c.Run(o, "storm", nil, passes, plan)
			results <- res
			errs <- err
		}()
	}
	wg.Wait()
	close(results)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("plan function ran %d times under the miss storm, want 1", n)
	}
	var ref *Result
	for res := range results {
		if ref == nil {
			ref = res
			continue
		}
		if err := res.EqualWithin(ref, 0); err != nil {
			t.Fatalf("coalesced results disagree: %v", err)
		}
	}
	hits, misses, size := c.Stats()
	if misses != 1 || hits != waiters || size != 1 {
		t.Fatalf("cache stats %d hits / %d misses / %d templates, want %d/1/1",
			hits, misses, size, waiters)
	}
	if c.Coalesced() != waiters {
		t.Fatalf("coalesced = %d, want %d", c.Coalesced(), waiters)
	}
}
