package mal

import (
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mem"
	"repro/internal/ops"
)

// TestAbortedPinnedPlanDoesNotLeakPlacement is the regression test for the
// engine-global ForceNext pin: a plan whose placement pass pinned
// instructions and which then aborts *between the pin and the operator
// call* (here: a bogus group-count handle fails instruction setup after the
// instruction was already pinned) must leave no placement state behind on
// the shared engine. Under the old design the pending pin survived the
// abort and silently forced the next operator onto the wrong device.
func TestAbortedPinnedPlanDoesNotLeakPlacement(t *testing.T) {
	o := Hybrid.Build(ConfigOptions{Threads: 2, GPUMemory: 512 << 20})
	h := o.(*hybrid.Engine)

	// Plan 1: big enough that placement pins work to the GPU, then an
	// instruction that aborts after placement stamped every pin.
	const n = 1 << 20
	raw := mem.AllocI32(n)
	for i := range raw {
		raw[i] = int32(i % 1000)
	}
	big := bat.NewI32("big", raw)
	s1 := NewSession(o)
	// The scenario needs the bogus plan to reach *execution* so an abort
	// can strand placement pins; the verifier would reject it statically at
	// the bind stage, before placement ever stamps a pin.
	s1.SetVerify(false)
	_, err := RunQuery(s1, func(s *Session) *Result {
		sel := s.Select(big, nil, 100, 899, true, true)
		prj := s.Project(sel, big)
		s.Aggr(ops.Sum, prj, nil, -7) // bogus group-count handle: aborts at execution
		return s.Result(nil)
	})
	if err == nil || !strings.Contains(err.Error(), "unknown slot") {
		t.Fatalf("plan 1 must abort on the bogus handle, got %v", err)
	}
	pinnedGPU := false
	for _, in := range s1.Plan() {
		if in.Device == "GPU" {
			pinnedGPU = true
		}
	}
	if !pinnedGPU {
		t.Fatal("plan 1 never pinned an instruction to the GPU; the scenario lost its teeth")
	}

	// An unpinned call on the same shared engine, whose input no device
	// owns, runs on the CPU; a pin that leaked would send it to the GPU.
	before := h.Placements()["select"]
	tiny := col("tiny", []int32{1, 2, 3, 4, 5, 6, 7, 8})
	if _, err := h.Select(tiny, nil, 2, 6, true, true); err != nil {
		t.Fatal(err)
	}
	after := h.Placements()["select"]
	if after["CPU"] != before["CPU"]+1 || after["GPU"] != before["GPU"] {
		t.Fatalf("aborted plan leaked placement: select counts CPU %d→%d, GPU %d→%d",
			before["CPU"], after["CPU"], before["GPU"], after["GPU"])
	}
}

// TestCrossFragmentEarlyRelease: intermediates produced before a mid-plan
// flush boundary (ScalarF) that the final fragment never reads must be
// released when the final fragment starts — before its first compute
// instruction — instead of holding device memory until Close, and the
// device high-water mark must drop accordingly.
func TestCrossFragmentEarlyRelease(t *testing.T) {
	const n = 1 << 18
	vals := mem.AllocF32(n)
	for i := range vals {
		vals[i] = float32(i % 997)
	}
	wide := bat.NewF32("wide", vals)

	build := func(s *Session, frag1 *[]*bat.BAT) *Result {
		// Fragment 1: a chain of wide intermediates, closed by a scalar
		// extraction (flush boundary).
		cur := s.BinopConst(ops.Add, wide, 1, false)
		*frag1 = append(*frag1, cur)
		for i := 0; i < 3; i++ {
			cur = s.BinopConst(ops.Add, cur, 1, false)
			*frag1 = append(*frag1, cur)
		}
		s.ScalarF(s.Aggr(ops.Sum, cur, nil, 0))
		// Fragment 2: an independent chain from the base column (different
		// constants, so CSE cannot merge it with fragment 1).
		cur2 := s.BinopConst(ops.Add, wide, 2, false)
		for i := 0; i < 3; i++ {
			cur2 = s.BinopConst(ops.Add, cur2, 2, false)
		}
		return s.Result([]string{"v"}, s.Aggr(ops.Sum, cur2, nil, 0))
	}

	run := func(early bool) (*Session, int64) {
		o := OcelotGPU.Build(ConfigOptions{GPUMemory: 256 << 20})
		s := NewSession(o)
		p := DefaultPasses()
		p.EarlyRelease = early
		s.SetPasses(p)
		var frag1 []*bat.BAT
		if _, err := RunQuery(s, func(s *Session) *Result { return build(s, &frag1) }); err != nil {
			t.Fatal(err)
		}
		eng := o.(*core.Engine)
		if err := eng.Finish(); err != nil {
			t.Fatal(err)
		}
		// Structural check (early-release runs only): every fragment-1
		// chain value must be released before the final fragment's first
		// compute instruction executes.
		if early {
			frag1Set := map[*bat.BAT]bool{}
			for _, b := range frag1 {
				frag1Set[b] = true
			}
			released := 0
			for _, in := range s.Plan() {
				if in.Kind == OpRelease && frag1Set[s.canon(in.Args[0])] {
					released++
					continue
				}
				if in.computes() && released > 0 {
					// First compute after the releases began: all chain
					// values must already be free.
					if released != len(frag1) {
						t.Fatalf("only %d/%d fragment-1 intermediates released before the final fragment computes", released, len(frag1))
					}
					break
				}
			}
			if released == 0 {
				t.Fatal("no fragment-1 intermediate was released by the final fragment")
			}
		}
		return s, eng.Device().PeakAllocated()
	}

	_, with := run(true)
	_, without := run(false)
	if with >= without {
		t.Fatalf("cross-fragment release did not lower the peak footprint: %d >= %d", with, without)
	}
	t.Logf("peak device bytes across fragments: early-release %d vs end-of-plan %d (%.1f%% saved)",
		with, without, 100*float64(without-with)/float64(without))
}
