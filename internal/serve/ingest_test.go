package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/mal"
	"repro/internal/ops"
	"repro/internal/tpch"
)

// appendTables are the tables tpch.DB.AppendTail changes.
var appendTables = []string{"orders", "lineitem"}

// refRun executes a query on eng outside any server.
func refRun(t *testing.T, eng ops.Operators, q tpch.Query, d *tpch.DB) *mal.Result {
	t.Helper()
	res, err := mal.RunQuery(mal.NewSession(eng), func(s *mal.Session) *mal.Result { return q.Plan(s, d) })
	if err != nil {
		t.Fatalf("Q%d reference: %v", q.Num, err)
	}
	return res
}

// execQuery runs TPC-H query num through sv over d.
func execQuery(sv *Server, num int, d *tpch.DB) (*mal.Result, error) {
	q := tpch.QueryByNum(num)
	return sv.Execute(fmt.Sprintf("Q%d", num), nil, func(s *mal.Session) *mal.Result { return q.Plan(s, d) })
}

// TestServerInvalidateTableKeepsOtherTablesWarm is the staleness regression
// check: a publish naming lineitem must force queries over lineitem to
// rebuild while queries over unrelated tables keep replaying their cached
// templates (cache-hit counters prove it).
func TestServerInvalidateTableKeepsOtherTablesWarm(t *testing.T) {
	d := testDB()
	sv := New(mal.MS.Build(engineOpts()), Options{MaxConcurrent: 2})
	run := func(num int) {
		t.Helper()
		if _, err := execQuery(sv, num, d); err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
	}
	run(6)  // lineitem
	run(11) // partsupp, supplier, nation
	run(6)
	run(11)
	hits, misses, _ := sv.CacheStats()
	if hits != 2 || misses != 2 {
		t.Fatalf("warmup cache stats %d/%d, want 2 hits / 2 misses", hits, misses)
	}

	sv.Ingest([]string{"lineitem"}, func() {}) // the publish alone

	run(11) // no lineitem: template must stay warm
	if h, m, _ := sv.CacheStats(); h != hits+1 || m != misses {
		t.Fatalf("Q11 after lineitem publish: %d/%d (was %d/%d) — unrelated template went cold", h, m, hits, misses)
	}
	run(6) // reads lineitem: must rebuild
	if h, m, _ := sv.CacheStats(); h != hits+1 || m != misses+1 {
		t.Fatalf("Q6 after lineitem publish: %d/%d (was %d/%d) — stale template replayed", h, m, hits, misses)
	}
}

// TestServerLiveIngest serves reads concurrently with an append. Every
// result observed during the append must equal the pre-append or the
// post-append answer; afterwards the appended rows are visible through one
// rebuilt Q6 template, and Q11, which reads none of the appended tables, is
// still a cache hit.
func TestServerLiveIngest(t *testing.T) {
	full := tpch.GenerateSkewed(0.005, 42, 0.5)
	d := tpch.PrefixDB(full, full.Orders.Rows()*4/5)

	refEng := mal.MS.Build(engineOpts())
	q6, q11 := *tpch.QueryByNum(6), *tpch.QueryByNum(11)
	preRef6, postRef6 := refRun(t, refEng, q6, d), refRun(t, refEng, q6, full)
	ref11 := refRun(t, refEng, q11, d) // partsupp-only: the append changes nothing
	if canonEqual(preRef6, postRef6) == nil {
		t.Fatal("append does not change Q6's answer; the test would prove nothing")
	}

	sv := New(mal.MS.Build(engineOpts()), Options{MaxConcurrent: 4})
	for i := 0; i < 3; i++ { // a build, then warm rounds
		for _, c := range []struct {
			num  int
			want *mal.Result
		}{{6, preRef6}, {11, ref11}} {
			res, err := execQuery(sv, c.num, d)
			if err != nil {
				t.Fatal(err)
			}
			if err := canonEqual(res, c.want); err != nil {
				t.Fatalf("pre-append Q%d round %d: %v", c.num, i, err)
			}
		}
	}

	// Readers hammer Q6 while the tail lands. Each read must see exactly one
	// generation.
	const readers, reads = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				res, err := execQuery(sv, 6, d)
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
	sv.Ingest(appendTables, func() { d.AppendTail(full) })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res, err := execQuery(sv, 6, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := canonEqual(res, postRef6); err != nil {
		t.Fatalf("post-append Q6: %v", err)
	}
	// Q6 and Q11 built once before the append; Q6 rebuilt once after it.
	h0, m0, _ := sv.CacheStats()
	if m0 != 3 {
		t.Fatalf("%d template builds, want 3", m0)
	}
	if res, err = execQuery(sv, 11, d); err != nil {
		t.Fatal(err)
	}
	if err := canonEqual(res, ref11); err != nil {
		t.Fatalf("post-append Q11: %v", err)
	}
	if h1, m1, _ := sv.CacheStats(); m1 != m0 || h1 != h0+1 {
		t.Fatalf("Q11 after the append: cache %d/%d -> %d/%d — template went cold", h0, m0, h1, m1)
	}
}

// TestServerIngestSweepsStaleTemplates: a template an ingest made stale goes
// with the first lookup after the publish, even when its query never runs
// again — nothing else would drop it short of the LRU — and the statistics
// keep one row per query name.
func TestServerIngestSweepsStaleTemplates(t *testing.T) {
	d := testDB()
	sv := New(mal.MS.Build(engineOpts()), Options{MaxConcurrent: 4})
	run := func(num int) {
		t.Helper()
		if _, err := execQuery(sv, num, d); err != nil {
			t.Fatalf("Q%d: %v", num, err)
		}
	}
	const ingests = 6
	for i := 1; i <= ingests; i++ {
		run(6)
		run(6)
		run(11)
		sv.Ingest([]string{"lineitem"}, func() {}) // the publish alone retires Q6
		run(11)
		if _, _, size := sv.CacheStats(); size != 1 {
			t.Fatalf("after ingest %d: %d templates resident, want only Q11's", i, size)
		}
	}
	if _, misses, _ := sv.CacheStats(); misses != ingests+1 {
		t.Fatalf("%d template builds, want %d: Q6 once per round, Q11 once", misses, ingests+1)
	}
	stats := sv.Stats()
	if len(stats) != 2 || stats["Q6"].Runs != 2*ingests || stats["Q11"].Runs != 2*ingests {
		t.Fatalf("statistics %+v: want the rows Q6 and Q11 with %d runs each", stats, 2*ingests)
	}
}
