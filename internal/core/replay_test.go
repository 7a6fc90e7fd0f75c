package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cl"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/tpch"
)

// TestWarmReplayAllocations is the regression guard of the allocation-free
// warm replay: replaying a sealed template on Ocelot-CPU may allocate the
// bytes of the result columns it hands over at Sync — those leave the Memory
// Manager with the result — plus a small constant per plan and per plan
// instruction for the session, events and descriptors (1.5–2 KB measured);
// every intermediate has to come from the free-list. The one exception the
// constants leave room for is Q1, which keeps nine same-size columns alive at
// once against a free-list depth of eight per size and so allocates one of
// them per replay. Before, each intermediate cost a zeroed device buffer and
// a never-read host heap: 2.6 MB for a replay of Q1 on this database, 3.0 MB
// for Q21, against 0.2 and 0.1 MB now.
func TestWarmReplayAllocations(t *testing.T) {
	const (
		replays      = 8
		perPlan      = 4 << 10 // bytes of small objects allowed per replay
		perInstr     = 4 << 10 // and per plan instruction
		perResultCol = 512     // alignment slack and descriptor of a handed-over column
	)
	db := tpch.Generate(0.005, 42)
	eng := core.New(cl.NewCPUDevice(2))
	defer eng.Device().Close()
	cache, passes := mal.NewPlanCache(), mal.DefaultPasses()
	for _, q := range tpch.Queries() {
		name := fmt.Sprintf("Q%d", q.Num)
		run := func() *mal.Result {
			res, _, err := cache.Run(eng, name, nil, passes, func(s *mal.Session) *mal.Result { return q.Plan(s, db) })
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		run() // builds the template
		run() // first replay: fills the free-list with this plan's sizes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var res *mal.Result
		for i := 0; i < replays; i++ {
			res = run()
		}
		runtime.ReadMemStats(&after)
		got := int64(after.TotalAlloc-before.TotalAlloc) / replays

		budget := perPlan + int64(cache.Lookup(name, eng, passes).Instructions())*perInstr
		for _, c := range res.Cols {
			budget += c.HeapBytes() + perResultCol
		}
		t.Logf("%s: %d B/replay, budget %d", name, got, budget)
		if got > budget {
			t.Errorf("%s: a warm replay allocates %d bytes, more than its result columns, %d B and %d B per instruction allow (%d)",
				name, got, perPlan, perInstr, budget)
		}
	}
}

// TestRecyclingKeepsAccountingExact: with buffers recycled through the
// free-list, a closed session still leaves nothing behind. After
// Execution.Close and Finish the context's live buffers, the device's reserved
// bytes and the Memory Manager's registry are back at the baseline of the
// warmed caches (base columns, cached hash tables) — recycled bytes hold no
// device capacity — and FlushScratch empties the free-list, so a retired
// engine retains no intermediate's bytes.
func TestRecyclingKeepsAccountingExact(t *testing.T) {
	db := tpch.Generate(0.005, 42)
	for _, dev := range []*cl.Device{cl.NewCPUDevice(2), cl.NewGPUDevice(256 << 20)} {
		eng := core.New(dev)
		type books struct {
			live, entries int
			reserved      int64
		}
		round := func() books {
			for _, q := range tpch.Queries() {
				// RunQuery closes the session: every intermediate is released.
				if _, err := mal.RunQuery(mal.NewSession(eng), func(s *mal.Session) *mal.Result { return q.Plan(s, db) }); err != nil {
					t.Fatalf("%s Q%d: %v", eng.Name(), q.Num, err)
				}
			}
			if err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			return books{eng.Queue().Context().LiveBuffers(), eng.Memory().Entries(), dev.Allocated()}
		}
		base := round()
		hits0, _ := eng.Memory().ScratchStats()
		if got := round(); got != base {
			t.Fatalf("%s: books after a second round %+v, want the warmed baseline %+v", eng.Name(), got, base)
		}
		if hits1, _ := eng.Memory().ScratchStats(); hits1 == hits0 {
			t.Fatalf("%s: the second round never hit the free-list; recycling is off and the test proves nothing", eng.Name())
		}

		eng.Memory().FlushScratch()
		dev.Close()
		_, miss0 := eng.Memory().ScratchStats()
		word, err := eng.Memory().Alloc(4) // a size every query allocates and releases
		if err != nil {
			t.Fatal(err)
		}
		if _, miss1 := eng.Memory().ScratchStats(); miss1 != miss0+1 {
			t.Fatalf("%s: the free-list still served an allocation after FlushScratch", eng.Name())
		}
		eng.Memory().Release(word)
		eng.Memory().FlushScratch()
		if got := (books{eng.Queue().Context().LiveBuffers(), eng.Memory().Entries(), dev.Allocated()}); got != base {
			t.Fatalf("%s: books after retiring the engine %+v, want %+v", eng.Name(), got, base)
		}
	}
}
