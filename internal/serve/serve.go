// Package serve is the concurrent query-serving layer over the MAL
// execution stack: the piece that turns the benchmark harness into the
// server the paper assumes Ocelot lives inside (§3.1 — MonetDB serves many
// client sessions against one engine). A Server multiplexes client plan
// executions onto one shared engine: each request gets its own MAL session
// (sessions are single-threaded; the engine is shared and thread-safe),
// admission is capped so a traffic burst waits in one bounded queue, in
// arrival order, instead of oversubscribing the devices, and completed
// plans are cached as rewritten templates (mal.PlanCache) so repeated
// queries skip the plan build and the whole rewriter pass pipeline,
// re-binding only their parameters.
//
// Under load the server also shares work across identical requests
// (disable with Options.NoCoalesce): requests for the same query with the
// same parameter values that arrive while an identical execution is in
// flight do not execute at all — they wait for the in-flight leader and
// share its result. The coalescing key includes the pass configuration and
// the catalog version (mal.Catalog), so a request that arrives after an
// ingest published new data never shares a result computed before it.
//
// The plan cache and every flight read the server's one catalog version,
// which only Ingest changes: it applies a change to the base data and
// publishes the version naming the tables it changed, so only work over
// those tables goes stale.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cl"
	"repro/internal/mal"
	"repro/internal/ops"
)

// ErrOverloaded is returned when admission control rejects a request: the
// number of waiting requests exceeds Options.MaxQueued.
var ErrOverloaded = errors.New("serve: server overloaded, request rejected by admission control")

// Options configure a Server.
type Options struct {
	// MaxConcurrent caps how many plans execute simultaneously on the
	// shared engine (the admission cap); <=0 selects 4.
	MaxConcurrent int
	// MaxQueued caps how many requests may wait for an execution slot
	// beyond the cap before new arrivals are rejected with ErrOverloaded;
	// <=0 selects 16x MaxConcurrent.
	MaxQueued int
	// Passes is the rewriter pass configuration for every plan; the zero
	// value selects mal.DefaultPasses.
	Passes *mal.Passes
	// NoCache disables the rewritten-plan cache: every request builds and
	// rewrites its plan from scratch (ablation and tests). Implies
	// NoCoalesce: without templates there is nothing to share.
	NoCache bool
	// NoCoalesce disables single-flighting identical in-flight queries, so
	// every request executes independently (ablation, and tests that assert
	// exact execution counts).
	NoCoalesce bool
}

// QueryStats aggregate the executions of one named query.
type QueryStats struct {
	// Runs counts completed executions (successful or failed); Errors the
	// failed ones; CacheHits the executions served from a cached template.
	Runs, Errors, CacheHits int64
	// Rejected counts requests admission control turned away with
	// ErrOverloaded; they never executed and are not part of Runs or the
	// latency aggregates.
	Rejected int64
	// Dropped counts requests whose caller's context expired or was
	// cancelled before execution started — while waiting for a slot, or
	// already queued when the slot finally freed. Like Rejected they never
	// executed and are not part of Runs.
	Dropped int64
	// Retries counts executions re-run after a device was lost mid-plan:
	// the retry routes around the dead device, so one lost card costs one
	// replay, not a failed request.
	Retries int64
	// Shared counts requests served by single-flight coalescing: they are
	// part of Runs but never executed a plan — they waited for an identical
	// in-flight execution and share its result.
	Shared int64
	// Batched is always 0: requests are no longer batched into another
	// request's admission slot.
	//
	// Deprecated: kept only for the pinned benchmark's serve.batched_share
	// metric; it goes with that metric.
	Batched int64
	// Rows is the total result rows returned.
	Rows int64
	// Total and Max aggregate end-to-end request latency (admission wait
	// included).
	Total, Max time.Duration
}

// Server dispatches concurrent plan executions onto one shared operator
// configuration.
type Server struct {
	o      ops.Operators
	cache  *mal.PlanCache // nil under Options.NoCache
	passes mal.Passes

	// vers is the catalog the plan cache and the flights read; Ingest
	// publishes to it.
	vers *mal.Catalog
	// ingestMu orders Ingest against plan builds. Ingest holds the write
	// side across its apply and its publish; every build holds the read
	// side across its plan closure, which resolves base columns live
	// (bat.Table.Col), and reads the catalog version it records under it.
	// Replays take no lock: a template holds the column snapshots its build
	// resolved.
	ingestMu sync.RWMutex

	sem     chan struct{}
	maxQ    int64
	waiting atomic.Int64

	// Single-flight (see the package comment).
	coalesce bool
	fmu      sync.Mutex
	flights  map[string]*flight
	// Observability for deterministic tests: how many followers are
	// currently waiting on a flight.
	sharedWaiting atomic.Int64

	mu    sync.Mutex
	stats map[string]*QueryStats
}

// flight is one in-flight execution identical requests wait on. The leader
// fills res/err, removes the flight from the map and closes done (the
// happens-before edge followers read through). A leader that never gets to
// publish — dropped, rejected, or panicked — abandons instead: followers
// observe abandoned and retry from admission, so a cancelled leader cannot
// strand them.
type flight struct {
	done      chan struct{}
	res       *mal.Result
	err       error
	abandoned bool
}

// New creates a server over one shared configuration. The engine must be
// safe for concurrent sessions (all shipped configurations are); the
// server's plan cache is scoped to this engine and the data its plans read,
// per the mal.PlanCache contract, and reads the server's catalog.
func New(o ops.Operators, opt Options) *Server {
	if opt.MaxConcurrent <= 0 {
		opt.MaxConcurrent = 4
	}
	if opt.MaxQueued <= 0 {
		opt.MaxQueued = 16 * opt.MaxConcurrent
	}
	passes := mal.DefaultPasses()
	if opt.Passes != nil {
		passes = *opt.Passes
	}
	sv := &Server{
		o:        o,
		passes:   passes,
		vers:     &mal.Catalog{},
		sem:      make(chan struct{}, opt.MaxConcurrent),
		maxQ:     int64(opt.MaxQueued),
		coalesce: !opt.NoCoalesce && !opt.NoCache,
		flights:  map[string]*flight{},
		stats:    map[string]*QueryStats{},
	}
	if !opt.NoCache {
		sv.cache = mal.NewPlanCacheFor(sv.vers, sv.ingestMu.RLocker())
	}
	return sv
}

// Ingest applies a change to the base data the server's plans read —
// typically bat.Table.AppendDelta calls — and publishes one catalog version
// in which the named tables changed. The write side of the ingest lock
// keeps plan builds out while apply runs, so no build resolves half of a
// change; requests replaying templates are unaffected, they read the column
// snapshots their builds resolved. The publish retires exactly the templates
// that read a changed table and starts fresh flights. A request that starts
// after Ingest returns sees the new rows; one concurrent with it sees the
// old generation or the new one, never a mix.
func (sv *Server) Ingest(tables []string, apply func()) {
	sv.ingestMu.Lock()
	defer sv.ingestMu.Unlock()
	apply()
	sv.vers.Publish(tables)
}

// Execute runs the named plan with the given parameter bindings, blocking
// until an execution slot is free. Admission control rejects the request
// with ErrOverloaded when too many requests are already waiting. Execute is
// safe to call from any number of goroutines.
func (sv *Server) Execute(name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	return sv.ExecuteCtx(context.Background(), name, params, plan)
}

// ExecuteCtx is Execute with a caller deadline: a request whose context
// expires or is cancelled while it waits for an execution slot — or that is
// already queued when its slot finally frees — is dropped *before* any plan
// work starts and reports the context's own error
// (context.DeadlineExceeded or context.Canceled), distinct from the
// admission-control ErrOverloaded. A plan already executing is never
// interrupted: sessions are not preemptible, so the deadline gates
// admission and dequeue, which under load is where requests spend their
// wait anyway.
//
// With coalescing enabled a request may be served without executing, by
// the result of an identical in-flight execution. A request whose leader
// abandons its flight retries from the top; the context gates every retry.
func (sv *Server) ExecuteCtx(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	start := time.Now()
	for {
		res, err, retry := sv.attempt(ctx, start, name, params, plan)
		if !retry {
			return res, err
		}
	}
}

// attempt is one pass through single-flight, admission and execution.
// retry means the request followed a flight whose leader abandoned it: the
// caller loops.
func (sv *Server) attempt(ctx context.Context, start time.Time, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (_ *mal.Result, _ error, retry bool) {
	if err := ctx.Err(); err != nil {
		sv.drop(name)
		return nil, err, false
	}

	// Single-flight: identical request already executing → wait for it;
	// none → register as leader so duplicates arriving from here on wait
	// for us. The deferred abandon covers every exit that does not publish
	// (reject, drop, panic), so followers can never be stranded.
	var fl *flight
	var fkey string
	if sv.coalesce {
		fkey = sv.flightKey(name, params)
		sv.fmu.Lock()
		if other := sv.flights[fkey]; other != nil {
			sv.fmu.Unlock()
			return sv.followFlight(ctx, start, name, other)
		}
		fl = &flight{done: make(chan struct{})}
		sv.flights[fkey] = fl
		sv.fmu.Unlock()
		defer func() {
			if fl != nil {
				sv.abandonFlight(fkey, fl)
			}
		}()
	}

	select {
	case sv.sem <- struct{}{}: // free execution slot: admitted immediately
	default:
		// All slots busy: join the bounded wait queue.
		if sv.waiting.Add(1) > sv.maxQ {
			sv.waiting.Add(-1)
			sv.reject(name)
			return nil, ErrOverloaded, false
		}
		select {
		case sv.sem <- struct{}{}:
		case <-ctx.Done():
			sv.waiting.Add(-1)
			sv.drop(name)
			return nil, ctx.Err(), false
		}
		sv.waiting.Add(-1)
	}
	defer func() { <-sv.sem }()
	// Dequeue gate: the slot may have freed long after the caller gave up.
	if err := ctx.Err(); err != nil {
		sv.drop(name)
		return nil, err, false
	}

	res, hit, err := sv.runWithRetry(name, params, plan)
	sv.note(name, start, res, hit, err, false)
	if fl != nil {
		sv.publishFlight(fkey, fl, res, err)
		fl = nil
	}
	return res, err, false
}

// flightKey identifies executions that may share a result: same query, same
// rewriter passes, same catalog version, same parameter values.
func (sv *Server) flightKey(name string, params mal.Params) string {
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('|')
	sb.WriteString(sv.passes.Key())
	fmt.Fprintf(&sb, "|v%d", sv.vers.Current().Seq())
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteByte('|')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatFloat(params[k], 'g', -1, 64))
	}
	return sb.String()
}

// followFlight waits for an identical in-flight execution and shares its
// result. An abandoned flight (its leader never published) retries.
func (sv *Server) followFlight(ctx context.Context, start time.Time, name string, fl *flight) (*mal.Result, error, bool) {
	sv.sharedWaiting.Add(1)
	defer sv.sharedWaiting.Add(-1)
	select {
	case <-fl.done:
		if fl.abandoned {
			return nil, nil, true
		}
		sv.note(name, start, fl.res, false, fl.err, true)
		return fl.res, fl.err, false
	case <-ctx.Done():
		sv.drop(name)
		return nil, ctx.Err(), false
	}
}

// publishFlight hands the leader's result to every follower: fill the
// result, unhook the flight so new arrivals start fresh, then release the
// followers.
func (sv *Server) publishFlight(key string, fl *flight, res *mal.Result, err error) {
	fl.res, fl.err = res, err
	sv.fmu.Lock()
	delete(sv.flights, key)
	sv.fmu.Unlock()
	close(fl.done)
}

// abandonFlight releases followers without a result; they retry admission.
func (sv *Server) abandonFlight(key string, fl *flight) {
	fl.abandoned = true
	sv.fmu.Lock()
	delete(sv.flights, key)
	sv.fmu.Unlock()
	close(fl.done)
}

// runOn executes the plan on the server's engine, its template cached
// under name. A build without a cache holds the ingest lock's read side
// across the plan closure itself; the cache takes it through its guard.
func (sv *Server) runOn(name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, bool, error) {
	if sv.cache != nil {
		return sv.cache.Run(sv.o, name, params, sv.passes, plan)
	}
	s := mal.NewSession(sv.o)
	s.SetPasses(sv.passes)
	s.SetParams(params)
	res, err := mal.RunQuery(s, func(s *mal.Session) *mal.Result {
		sv.ingestMu.RLock()
		defer sv.ingestMu.RUnlock()
		return plan(s)
	})
	return res, false, err
}

// runWithRetry is runOn plus the device-loss replay: a device that died
// mid-plan took the plan's intermediates with it, but it is latched dead,
// so one replay routes around it (hybrid pick/placement skip dead devices;
// base data lives on the host).
func (sv *Server) runWithRetry(name string, params mal.Params, plan func(*mal.Session) *mal.Result) (res *mal.Result, hit bool, err error) {
	res, hit, err = sv.runOn(name, params, plan)
	if err != nil && errors.Is(err, cl.ErrDeviceLost) {
		sv.mu.Lock()
		sv.statLocked(name).Retries++
		sv.mu.Unlock()
		res, hit, err = sv.runOn(name, params, plan)
	}
	return res, hit, err
}

// statLocked returns (creating if needed) the named stats; sv.mu held.
func (sv *Server) statLocked(name string) *QueryStats {
	st := sv.stats[name]
	if st == nil {
		st = &QueryStats{}
		sv.stats[name] = st
	}
	return st
}

func (sv *Server) reject(name string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.statLocked(name).Rejected++
}

func (sv *Server) drop(name string) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.statLocked(name).Dropped++
}

// note records a completed request: every request ends in exactly one of
// Rejected, Dropped or Runs, with shared marking the single-flight service
// path inside Runs.
func (sv *Server) note(name string, start time.Time, res *mal.Result, hit bool, err error, shared bool) {
	took := time.Since(start)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	st := sv.statLocked(name)
	st.Runs++
	if err != nil {
		st.Errors++
	}
	if hit {
		st.CacheHits++
	}
	if shared {
		st.Shared++
	}
	if res != nil {
		st.Rows += int64(res.Rows())
	}
	st.Total += took
	if took > st.Max {
		st.Max = took
	}
}

// CacheStats returns plan-cache hits, misses and resident templates (zeros
// when the cache is disabled).
func (sv *Server) CacheStats() (hits, misses int64, size int) {
	if sv.cache == nil {
		return 0, 0, 0
	}
	return sv.cache.Stats()
}

// Stats returns a copy of the per-query statistics.
func (sv *Server) Stats() map[string]QueryStats {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	out := make(map[string]QueryStats, len(sv.stats))
	for name, st := range sv.stats {
		out[name] = *st
	}
	return out
}

// String renders the per-query statistics as an aligned table.
func (sv *Server) String() string {
	stats := sv.Stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %6s %6s %6s %6s %6s %6s %6s %10s %12s %12s\n",
		"query", "runs", "errs", "rej", "drop", "retry", "hits", "shr", "rows", "avg", "max")
	for _, n := range names {
		st := stats[n]
		avg := time.Duration(0)
		if st.Runs > 0 {
			avg = st.Total / time.Duration(st.Runs)
		}
		fmt.Fprintf(&sb, "%-24s %6d %6d %6d %6d %6d %6d %6d %10d %12v %12v\n",
			n, st.Runs, st.Errors, st.Rejected, st.Dropped, st.Retries, st.CacheHits, st.Shared, st.Rows,
			avg.Round(time.Microsecond), st.Max.Round(time.Microsecond))
	}
	hits, misses, size := sv.CacheStats()
	fmt.Fprintf(&sb, "plan cache: %d hits, %d misses, %d templates\n", hits, misses, size)
	return sb.String()
}
