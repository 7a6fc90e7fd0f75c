package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/mem"
	"repro/internal/ops"
	"repro/internal/tpch"
)

// TestCtxCancelledBeforeAdmission: an already-dead context never reaches an
// engine and reports the context's error, not ErrOverloaded.
func TestCtxCancelledBeforeAdmission(t *testing.T) {
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sv.ExecuteCtx(ctx, "dead", nil, func(s *mal.Session) *mal.Result {
		t.Error("plan must not run for a cancelled request")
		return s.Result(nil)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := sv.Stats()["dead"]; st.Dropped != 1 || st.Runs != 0 {
		t.Fatalf("stats = %+v, want 1 dropped, 0 runs", st)
	}
}

// TestCtxDeadlineWhileQueued: a request waiting behind a slow plan whose
// deadline expires is dropped at dequeue — never executed — and reports
// DeadlineExceeded, distinct from admission's ErrOverloaded.
func TestCtxDeadlineWhileQueued(t *testing.T) {
	sv := New(mal.MS.Build(mal.ConfigOptions{}), Options{MaxConcurrent: 1, MaxQueued: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := sv.Execute("slow", nil, func(s *mal.Session) *mal.Result {
			close(started)
			<-release
			return s.Result(nil)
		})
		if err != nil {
			t.Errorf("slow query failed: %v", err)
		}
	}()
	<-started // the only slot is held

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := sv.ExecuteCtx(ctx, "queued", nil, func(s *mal.Session) *mal.Result {
		t.Error("expired request must not execute")
		return s.Result(nil)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("a dropped request must not read as overload")
	}
	close(release)
	wg.Wait()
	if st := sv.Stats()["queued"]; st.Dropped != 1 || st.Runs != 0 {
		t.Fatalf("stats = %+v, want 1 dropped, 0 runs", st)
	}
	// The slot freed by the drop is usable: a live request still runs.
	if _, err := sv.ExecuteCtx(context.Background(), "after", nil, func(s *mal.Session) *mal.Result {
		return s.Result(nil)
	}); err != nil {
		t.Fatalf("server unusable after a drop: %v", err)
	}
}

// TestDeviceLostMidPlanRetriesOnce: a GPU that dies mid-query — after
// earlier operators have adopted GPU-resident intermediates — must cost one
// transparent replay, with the retry routing around the latched-dead device
// and producing the same rows as an unharmed engine. The plan forces the
// shape the chain-level fallback cannot absorb: an intermediate owned by the
// dead card, needed by a later fragment, whose migration fails on every
// fallback target.
func TestDeviceLostMidPlanRetriesOnce(t *testing.T) {
	hyb, err := hybrid.New(4, 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	gpu := hyb.Devices()[1]
	// Pin every operator to the GPU so the mid-plan intermediate is
	// device-resident; once the device dies the pin degrades to an unpinned
	// call, which runs on the CPU.
	sv := New(hyb.On(gpu.Label), Options{MaxConcurrent: 2, NoCache: true})

	vals := mem.AllocI32(500_000)
	for i := range vals {
		vals[i] = int32(i % 1000)
	}
	col := bat.NewI32("c", vals)
	var want []int32
	for _, v := range vals {
		if v <= 499 {
			want = append(want, v)
		}
	}

	plan := func(s *mal.Session) *mal.Result {
		sel := s.Select(col, nil, 0, 499, true, true)
		// The scalar read is a flush boundary: sel materializes as a
		// GPU-owned intermediate, live into the rest of the plan.
		_ = s.ScalarF(s.Aggr(ops.Sum, s.Project(sel, col), nil, 0))
		// Lose the card that owns it. The guard keeps the replay clean:
		// the retry finds the device already latched dead and runs on the
		// CPU from host-resident base data.
		if gpu.Alive() {
			gpu.Eng.Device().Kill()
		}
		return s.Result([]string{"v"}, s.Project(sel, col))
	}

	res, err := sv.ExecuteCtx(context.Background(), "lost", nil, plan)
	if err != nil {
		t.Fatalf("device loss was not recovered: %v", err)
	}
	st := sv.Stats()["lost"]
	if st.Retries != 1 || st.Errors != 0 || st.Runs != 1 {
		t.Fatalf("stats = %+v, want 1 retry, 0 errors, 1 run", st)
	}
	if gpu.Alive() {
		t.Fatal("device must stay latched dead after the retry")
	}
	got := res.Cols[0].I32s()
	if len(got) != len(want) {
		t.Fatalf("retried result has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if got := gpu.Eng.Device().Allocated(); got != 0 {
		t.Fatalf("dead device still holds %d bytes", got)
	}
}

// TestKillEachDeviceInTurn is the fault-injection acceptance test: on a
// hybrid server the GPU is fated to die a few commands into a join-heavy
// query pinned to it. The run must complete with the same canonical rows as
// an unharmed CPU engine, the victim must latch dead, and the corpse must
// account for zero device bytes — no partial state leaks.
func TestKillEachDeviceInTurn(t *testing.T) {
	d := testDB()
	q := tpch.QueryByNum(3)
	plan := func(s *mal.Session) *mal.Result { return q.Plan(s, d) }
	ref, err := mal.RunQuery(mal.NewSession(mal.OcelotCPU.Build(engineOpts())), plan)
	if err != nil {
		t.Fatal(err)
	}

	hyb, err := hybrid.New(4, 512<<20)
	if err != nil {
		t.Fatal(err)
	}
	victim := hyb.Devices()[1]
	// Pin the plan to the victim so real mid-plan work is on the card when
	// it dies; after the death the pin degrades to an unpinned call, which
	// runs on the CPU.
	sv := New(hyb.On(victim.Label), Options{MaxConcurrent: 2, NoCache: true})
	victim.Eng.Device().InjectFaults(cl.FaultPlan{DieAtCommand: 3})

	res, err := sv.ExecuteCtx(context.Background(), victim.Label, nil, plan)
	if err != nil {
		t.Fatalf("%s: query did not survive the device loss: %v", victim.Label, err)
	}
	if victim.Alive() {
		t.Fatalf("%s: device must latch dead", victim.Label)
	}
	if err := canonEqualFloatTol(ref, res); err != nil {
		t.Fatalf("%s: result diverges from the unharmed reference: %v", victim.Label, err)
	}
	if got := victim.Eng.Device().Allocated(); got != 0 {
		t.Fatalf("%s: dead device still holds %d bytes", victim.Label, got)
	}
}
