package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/tpch"
)

// TestServerInvalidateTableKeepsOtherTablesWarm is the staleness regression
// check for a plain Server over a catalog: a publish naming lineitem must
// force queries over lineitem to rebuild while queries over unrelated
// tables keep replaying their cached templates (cache-hit counters prove
// it).
func TestServerInvalidateTableKeepsOtherTablesWarm(t *testing.T) {
	d := testDB()
	vers := &mal.Catalog{}
	sv := newBalanced([]ops.Operators{mal.MS.Build(engineOpts())}, Options{MaxConcurrent: 2}, vers)
	q6, q11 := *tpch.QueryByNum(6), *tpch.QueryByNum(11) // lineitem vs partsupp-only
	run := func(q tpch.Query) {
		t.Helper()
		if _, err := sv.Execute(fmt.Sprintf("Q%d", q.Num), nil, func(s *mal.Session) *mal.Result {
			return q.Plan(s, d)
		}); err != nil {
			t.Fatalf("Q%d: %v", q.Num, err)
		}
	}
	run(q6)
	run(q11)
	run(q6)
	run(q11)
	hits, misses, _ := sv.CacheStats()
	if hits != 2 || misses != 2 {
		t.Fatalf("warmup cache stats %d/%d, want 2 hits / 2 misses", hits, misses)
	}

	vers.Publish([]string{"lineitem"})

	run(q11) // no lineitem: template must stay warm
	if h, m, _ := sv.CacheStats(); h != hits+1 || m != misses {
		t.Fatalf("Q11 after lineitem publish: %d/%d (was %d/%d) — unrelated template went cold", h, m, hits, misses)
	}
	run(q6) // reads lineitem: must rebuild
	if h, m, _ := sv.CacheStats(); h != hits+1 || m != misses+1 {
		t.Fatalf("Q6 after lineitem publish: %d/%d (was %d/%d) — stale template replayed", h, m, hits, misses)
	}
}

// TestShardedLiveIngest serves reads concurrently with an incremental
// append. Every result observed during the append must equal either the
// pre-append or the post-append answer (generation-stamped snapshots, no
// torn reads); afterwards the appended rows must be visible, queries over
// the appended tables recompile exactly once, and queries over untouched
// tables stay warm in the coordinator's cache.
func TestShardedLiveIngest(t *testing.T) {
	full := tpch.GenerateSkewed(0.005, 42, 0.5)
	pre := tpch.PrefixDB(full, full.Orders.Rows()*4/5)
	sdb := tpch.ShardDB(pre, 2)

	refEng := mal.MS.Build(engineOpts())
	q6, q11 := *tpch.QueryByNum(6), *tpch.QueryByNum(11)
	preRef6 := refRun(t, refEng, q6, pre)
	postRef6 := refRun(t, refEng, q6, full)
	ref11 := refRun(t, refEng, q11, pre) // partsupp-only: append changes nothing
	if canonEqual(preRef6, postRef6) == nil {
		t.Fatal("append does not change Q6's answer; the test would prove nothing")
	}

	ss := NewSharded(mal.MS.Build(engineOpts()), shardEngines(mal.MS, 2), sdb.Catalog(), Options{MaxConcurrent: 4})
	exec := func(q tpch.Query) (*mal.Result, error) {
		return ss.Execute(fmt.Sprintf("Q%d", q.Num), nil, func(s *mal.Session) *mal.Result {
			return q.Plan(s, sdb.Global)
		})
	}
	for i := 0; i < 3; i++ { // cold compile + warm rounds
		res, err := exec(q6)
		if err != nil {
			t.Fatal(err)
		}
		if err := canonEqual(res, preRef6); err != nil {
			t.Fatalf("pre-append Q6 round %d: %v", i, err)
		}
		if res, err = exec(q11); err != nil {
			t.Fatal(err)
		}
		if err := canonEqual(res, ref11); err != nil {
			t.Fatalf("pre-append Q11 round %d: %v", i, err)
		}
	}

	// Readers hammer Q6 while the tail lands. Each read must see exactly one
	// generation.
	const readers, reads = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers*reads)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				res, err := exec(q6)
				if err != nil {
					errs <- err
					return
				}
				if canonEqual(res, preRef6) != nil && canonEqual(res, postRef6) != nil {
					errs <- fmt.Errorf("read %d: result matches neither generation (torn read)", i)
					return
				}
			}
		}()
	}
	ss.Ingest(tpch.ShardTables(), func() { sdb.AppendTail(full) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The appended rows are visible now, through a recompiled plan.
	res, err := exec(q6)
	if err != nil {
		t.Fatal(err)
	}
	if err := canonEqual(res, postRef6); err != nil {
		t.Fatalf("post-append Q6: %v", err)
	}
	if st := ss.Stats(); st.Recompiles == 0 {
		t.Fatal("append did not retire the compiled Q6 plan")
	} else if st.Fallbacks != 0 {
		t.Fatalf("%d scatter fallbacks during ingest", st.Fallbacks)
	}

	// Q11 reads none of the appended tables: its coordinator template must
	// still be warm — served as a hit, no rebuild.
	h0, m0, _ := ss.Coordinator().CacheStats()
	if res, err = exec(q11); err != nil {
		t.Fatal(err)
	}
	if err := canonEqual(res, ref11); err != nil {
		t.Fatalf("post-append Q11: %v", err)
	}
	h1, m1, _ := ss.Coordinator().CacheStats()
	if m1 != m0 || h1 != h0+1 {
		t.Fatalf("Q11 after ingest: coordinator cache %d/%d -> %d/%d — template went cold", h0, m0, h1, m1)
	}
}

// TestShardedIngestsLeaveShardStateBounded: every compiled plan presents its
// own key to the shard servers (name@version), so each ingest retires a key
// for good. The retired key's template must go with the first run after the
// ingest's publish — it will never be looked up again, so nothing else would
// drop it short of the LRU — and the per-query statistics must keep
// aggregating under the bare query name, not grow a row per compile.
func TestShardedIngestsLeaveShardStateBounded(t *testing.T) {
	sdb := tpch.GenerateSharded(0.005, 42, 0, 2)
	ss := NewSharded(mal.MS.Build(engineOpts()), shardEngines(mal.MS, 2), sdb.Catalog(), Options{MaxConcurrent: 4})
	q6 := *tpch.QueryByNum(6)
	exec := func() {
		t.Helper()
		if _, err := ss.Execute("Q6", nil, func(s *mal.Session) *mal.Result { return q6.Plan(s, sdb.Global) }); err != nil {
			t.Fatal(err)
		}
	}
	const ingests = 6
	for i := 0; i <= ingests; i++ {
		exec() // cold: compiles plan Q6@i+1 on the coordinator
		exec() // warm: scatters it, building one template per shard
		exec()
		if i < ingests {
			ss.Ingest([]string{"lineitem"}, func() {}) // the publish alone retires the plan
		}
	}
	if st := ss.Stats(); st.ColdCompiles != ingests+1 || st.Fallbacks != 0 {
		t.Fatalf("cold compiles %d (want %d), fallbacks %d", st.ColdCompiles, ingests+1, st.Fallbacks)
	}
	for i := 0; i < ss.NShards(); i++ {
		sh := ss.Shard(i)
		stats := sh.Stats()
		if st, ok := stats["Q6"]; len(stats) != 1 || !ok || st.Runs != 2*(ingests+1) {
			t.Fatalf("shard %d statistics %+v: want the one row \"Q6\" with %d runs", i, stats, 2*(ingests+1))
		}
		if _, misses, size := sh.CacheStats(); size != 1 || misses != ingests+1 {
			t.Fatalf("shard %d plan cache: %d templates resident after %d builds, want only the live plan's", i, size, misses)
		}
	}
}
