package mal

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mem"
	"repro/internal/ops"
)

func col(name string, vals []int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

func fcol(name string, vals []float32) *bat.BAT {
	s := mem.AllocF32(len(vals))
	copy(s, vals)
	return bat.NewF32(name, s)
}

// miniPlan is a toy query: SELECT sum(v*2) FROM t WHERE k BETWEEN 2 AND 4
// GROUP BY g — enough to cross select, project, arithmetic, group, aggregate.
func miniPlan(k, v, g *bat.BAT) func(*Session) *Result {
	return func(s *Session) *Result {
		sel := s.Select(k, nil, 2, 4, true, true)
		vv := s.Project(sel, v)
		gg := s.Project(sel, g)
		doubled := s.BinopConst(ops.Mul, vv, 2, false)
		grp, n := s.Group(gg, nil, 0)
		sum := s.Aggr(ops.Sum, doubled, grp, n)
		keys := s.Aggr(ops.Min, gg, grp, n)
		return s.Result([]string{"g", "sum"}, keys, sum)
	}
}

func testData() (k, v, g *bat.BAT) {
	k = col("k", []int32{1, 2, 3, 4, 5, 2, 3})
	v = fcol("v", []float32{10, 20, 30, 40, 50, 60, 70})
	g = col("g", []int32{0, 1, 0, 1, 0, 1, 0})
	return
}

func TestMiniPlanAgreesAcrossAllConfigurations(t *testing.T) {
	k, v, g := testData()
	var reference *Result
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 4, GPUMemory: 64 << 20})
		s := NewSession(o)
		res, err := RunQuery(s, miniPlan(k, v, g))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if res.Rows() != 2 {
			t.Fatalf("%v: %d rows, want 2", cfg, res.Rows())
		}
		if reference == nil {
			reference = res
			// g=1 rows: k=2(v20),4(40),2(60) → sum 240; g=0: k=3(30),3(70) → 200.
			can := res.Canonical()
			if can[0][1] != 200 || can[1][1] != 240 {
				t.Fatalf("%v: wrong sums %v", cfg, can)
			}
			continue
		}
		if err := res.EqualWithin(reference, 1e-4); err != nil {
			t.Fatalf("%v disagrees with MS: %v", cfg, err)
		}
	}
}

func TestTraceRecordsInstructions(t *testing.T) {
	k, v, g := testData()
	s := NewSession(MS.Build(ConfigOptions{}))
	s.EnableTrace()
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) < 6 {
		t.Fatalf("trace too short: %d instrs", len(tr))
	}
	joined := ""
	for _, in := range tr {
		joined += in.String() + "\n"
	}
	for _, op := range []string{"algebra.select", "algebra.leftfetchjoin", "algebra.group", "algebra.sum", "algebra.sync"} {
		if !strings.Contains(joined, op) {
			t.Fatalf("trace missing %s:\n%s", op, joined)
		}
	}
}

func TestOcelotModuleNameInTrace(t *testing.T) {
	k, v, g := testData()
	s := NewSession(OcelotCPU.Build(ConfigOptions{Threads: 2}))
	s.EnableTrace()
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Trace()[0].String(), "ocelot.select") {
		t.Fatalf("rewriter did not route to ocelot module: %s", s.Trace()[0])
	}
}

func TestAbortPropagatesAsError(t *testing.T) {
	s := NewSession(MS.Build(ConfigOptions{}))
	_, err := RunQuery(s, func(s *Session) *Result {
		void := bat.NewVoid("v", 0, 3)
		s.Select(void, nil, 0, 1, true, true) // select on void: engine error
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "select") {
		t.Fatalf("expected select abort, got %v", err)
	}
}

// TestParallelAbortPropagates: a replay whose every device is dead aborts
// on its first dispatch, and the abort surfaces as an error from the replay
// — no hang, no stray panic.
func TestParallelAbortPropagates(t *testing.T) {
	k, v, g := testData()
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 128 << 20})
	s := NewSession(o)
	if _, err := RunQuery(s, miniPlan(k, v, g)); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	// Kill every device: the first dispatch fails on its pin and on the
	// whole fallback chain.
	for _, d := range o.(*hybrid.Engine).Devices() {
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
		t.Fatal("replay on all-dead devices did not return")
	}
}

// TestReplayAbortMatchesBuild: a replay and a build share one abort path.
// With the GPU dying at the same command mid-plan, a replay of a sealed
// template must return the error a build of the same plan returns, and both
// must leave the context's live buffers and the device's reserved bytes
// where they were before the run.
func TestReplayAbortMatchesBuild(t *testing.T) {
	k, v, g := testData()
	o := OcelotGPU.Build(ConfigOptions{GPUMemory: 64 << 20})
	eng := o.(*core.Engine)
	dev := eng.Device()
	plan := miniPlan(k, v, g)
	s := NewSession(o)
	if _, err := RunQuery(s, plan); err != nil {
		t.Fatal(err)
	}
	tpl := s.Template()
	// One clean replay leaves the base columns' device copies resident, the
	// state every later run, build or replay, starts from.
	if _, err := tpl.Run(o, nil); err != nil {
		t.Fatal(err)
	}
	books := func() [2]int64 {
		_ = eng.Finish() // drain; the failed command's error was already reported
		eng.Memory().FlushScratch()
		return [2]int64{int64(eng.Queue().Context().LiveBuffers()), dev.Allocated()}
	}
	// underFault runs f with the device dying at command n, then revives it
	// and checks the books against the baseline taken before f ran.
	underFault := func(what string, n int64, f func() error) error {
		t.Helper()
		base := books()
		dev.InjectFaults(cl.FaultPlan{DieAtCommand: n})
		err := f()
		dev.InjectFaults(cl.FaultPlan{})
		dev.Revive()
		if got := books(); got != base {
			t.Fatalf("%s dying at command %d: live buffers and reserved bytes %v, want the baseline %v", what, n, got, base)
		}
		return err
	}
	aborted := 0
	for n := int64(1); ; n++ {
		var ran int
		replayErr := underFault("replay", n, func() error {
			_, e, err := tpl.RunOn(o, nil)
			ran = len(e.Plan())
			return err
		})
		if replayErr == nil {
			break // the plan issues fewer than n commands
		}
		buildErr := underFault("build", n, func() error {
			_, err := RunQuery(NewSession(o), plan)
			return err
		})
		if buildErr == nil || buildErr.Error() != replayErr.Error() {
			t.Fatalf("dying at command %d: replay returned %v, build %v", n, replayErr, buildErr)
		}
		if !errors.Is(replayErr, cl.ErrDeviceLost) {
			t.Fatalf("dying at command %d: replay error %v does not wrap cl.ErrDeviceLost", n, replayErr)
		}
		if ran > 0 && ran < tpl.Instructions() {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatal("no fault point aborted the replay mid-plan; the test proves nothing")
	}
}

func TestScalarExtractionSyncs(t *testing.T) {
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20})
		s := NewSession(o)
		v := fcol("v", []float32{1.5, 2.5})
		var got float64
		_, err := RunQuery(s, func(s *Session) *Result {
			sum := s.Aggr(ops.Sum, v, nil, 0)
			got = s.ScalarF(sum)
			return s.Result(nil)
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if got != 4 {
			t.Fatalf("%v: scalar = %v, want 4", cfg, got)
		}
	}
}

func TestScalarErrors(t *testing.T) {
	s := NewSession(MS.Build(ConfigOptions{}))
	_, err := RunQuery(s, func(s *Session) *Result {
		s.ScalarF(col("twovals", []int32{1, 2}))
		return nil
	})
	if err == nil {
		t.Fatal("scalar of 2-row BAT must abort")
	}
}

func TestUnionAndSemiJoinThroughSession(t *testing.T) {
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20})
		s := NewSession(o)
		k := col("k", []int32{1, 2, 3, 4, 5, 6})
		other := col("o", []int32{2, 5, 9})
		var nsemi, nunion int
		_, err := RunQuery(s, func(s *Session) *Result {
			a := s.Select(k, nil, 1, 2, true, true)
			b := s.Select(k, nil, 5, 6, true, true)
			u := s.Sync(s.Union(a, b))
			nunion = u.Len()
			semi := s.Sync(s.SemiJoin(k, other))
			nsemi = semi.Len()
			return s.Result(nil)
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if nunion != 4 {
			t.Fatalf("%v: union = %d, want 4", cfg, nunion)
		}
		if nsemi != 2 {
			t.Fatalf("%v: semijoin = %d, want 2", cfg, nsemi)
		}
	}
}

func TestSortThroughSession(t *testing.T) {
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20})
		s := NewSession(o)
		k := col("k", []int32{5, 1, 4, 2, 3})
		payload := fcol("p", []float32{50, 10, 40, 20, 30})
		res, err := RunQuery(s, func(s *Session) *Result {
			sorted, order := s.Sort(k)
			aligned := s.Project(order, payload)
			return s.Result([]string{"k", "p"}, sorted, aligned)
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		rows := res.Canonical()
		for i := range rows {
			if rows[i][0] != float64(i+1) || rows[i][1] != float64((i+1)*10) {
				t.Fatalf("%v: sorted rows = %v", cfg, rows)
			}
		}
	}
}

func TestConfigStringsAndFinish(t *testing.T) {
	names := map[Config]string{MS: "MS", MP: "MP", OcelotCPU: "CPU", OcelotGPU: "GPU"}
	for cfg, want := range names {
		if cfg.String() != want {
			t.Fatalf("%d: name %q, want %q", cfg, cfg.String(), want)
		}
	}
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 32 << 20})
		if err := Finish(o); err != nil {
			t.Fatalf("%v: finish: %v", cfg, err)
		}
		_, isGPU := GPUTime(o)
		if (cfg == OcelotGPU) != isGPU {
			t.Fatalf("%v: GPUTime presence wrong", cfg)
		}
	}
}

func TestThetaJoinThroughSession(t *testing.T) {
	type pair struct{ l, r uint32 }
	lv := []int32{1, 5, 3}
	rv := []int32{2, 4}
	var want []pair
	for i, a := range lv {
		for j, b := range rv {
			if a < b {
				want = append(want, pair{uint32(i), uint32(j)})
			}
		}
	}
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20})
		s := NewSession(o)
		var got []pair
		_, err := RunQuery(s, func(s *Session) *Result {
			lres, rres := s.ThetaJoin(col("l", lv), col("r", rv), ops.Lt)
			s.Sync(lres)
			s.Sync(rres)
			for i := 0; i < lres.Len(); i++ {
				got = append(got, pair{lres.OIDs()[i], rres.OIDs()[i]})
			}
			return s.Result(nil)
		})
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d pairs, want %d", cfg, len(got), len(want))
		}
		sortPairs := func(ps []pair) {
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].l != ps[j].l {
					return ps[i].l < ps[j].l
				}
				return ps[i].r < ps[j].r
			})
		}
		sortPairs(got)
		sortPairs(want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: pair %d = %v, want %v", cfg, i, got[i], want[i])
			}
		}
	}
}

func TestThetaJoinTypeMismatch(t *testing.T) {
	for _, cfg := range AllConfigs() {
		o := cfg.Build(ConfigOptions{Threads: 2, GPUMemory: 64 << 20})
		s := NewSession(o)
		_, err := RunQuery(s, func(s *Session) *Result {
			s.ThetaJoin(col("l", []int32{1}), fcol("r", []float32{1}), ops.Lt)
			return nil
		})
		if err == nil {
			t.Fatalf("%v: theta join across types must fail", cfg)
		}
	}
}

func TestResultStringAndSelectEq(t *testing.T) {
	s := NewSession(MS.Build(ConfigOptions{}))
	k := col("k", []int32{5, 5, 7, 9})
	res, err := RunQuery(s, func(s *Session) *Result {
		sel := s.SelectEq(k, nil, 5)
		keys := s.Project(sel, k)
		return s.Result([]string{"k"}, keys)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() != 2 {
		t.Fatalf("selecteq rows = %d", res.Rows())
	}
	out := res.String()
	if !strings.Contains(out, "k") || !strings.Contains(out, "5") {
		t.Fatalf("result rendering = %q", out)
	}
	if s.Operators().Name() == "" {
		t.Fatal("operators accessor broken")
	}
}

func TestResultStringTruncatesLongOutput(t *testing.T) {
	vals := make([]int32, 50)
	for i := range vals {
		vals[i] = int32(i)
	}
	r := &Result{Names: []string{"v"}, Cols: []*bat.BAT{col("v", vals)}}
	out := r.String()
	if !strings.Contains(out, "50 rows total") {
		t.Fatalf("long result not truncated: %q", out)
	}
}

func TestHybridConfigThroughSession(t *testing.T) {
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 256 << 20})
	s := NewSession(o)
	k := col("k", []int32{1, 2, 3, 4, 5, 2, 3})
	v := fcol("v", []float32{10, 20, 30, 40, 50, 60, 70})
	g := col("g", []int32{0, 1, 0, 1, 0, 1, 0})
	res, err := RunQuery(s, miniPlan(k, v, g))
	if err != nil {
		t.Fatal(err)
	}
	can := res.Canonical()
	if can[0][1] != 200 || can[1][1] != 240 {
		t.Fatalf("hybrid mini plan sums = %v", can)
	}
	if Hybrid.String() != "HYB" {
		t.Fatal("hybrid label wrong")
	}
}
