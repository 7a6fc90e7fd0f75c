// The rewritten-plan cache. A Session that built and executed a plan leaves
// behind a Template: the rewritten IR fragments exactly as the executor ran
// them (module-bound, CSE/DCE-reduced, sync/release-instrumented, placement-
// pinned), the result shape, and the parameter slots the plan declared.
// PlanCache stores templates keyed by query name, configuration and pass
// set; a hit re-executes the stored fragments directly — no plan function,
// no IR build, no rewriter pass runs — with parameter slots re-bound from
// the per-execution Params. This is the MonetDB-recycler-style reuse of
// rewritten plans (cf. Ivanova et al., "An architecture for recycling
// intermediates in a column-store"; Heimel et al. §3.1's rewriter layer).
//
// Correctness contract: a plan function must be deterministic given its
// Session parameters and the base data. Host-side values read mid-plan
// (ScalarF/ScalarI) are captured into the template as constants, so a cache
// must be scoped to one database — the serve layer keeps one cache per
// engine, which also scopes it to one configuration. Changes to that
// database reach the cache only through its Catalog (catalog.go): a template
// is current while no table it reads has changed since its build registered.
package mal

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/ops"
)

// intParamSlot is a slot-backed integer parameter (a group-count literal).
type intParamSlot struct {
	Slot int
	Name string
	Def  int
}

// Template is the sealed, reusable half of a finished session: the plan as
// the executor ran it, free of any per-execution state. Sealing writes its
// last field; from then on nothing but the verify-once verdict changes, so
// any number of goroutines may execute it concurrently.
type Template struct {
	module string
	passes Passes

	// frags are the rewritten fragments in execution order — one per flush
	// boundary (mid-plan Sync/Scalar extractions plus the final Result) —
	// each with the dependency graph and lanes its pins imply.
	frags []fragment

	// names/cols describe the result set the plan returned (cols are plan
	// values: placeholders or base BATs).
	names []string
	cols  []*bat.BAT

	// isPH marks placeholder BATs; alias maps CSE-eliminated placeholders
	// to their canonical twin; slotAlias mirrors aliasing for group-count
	// slots. nSlots sizes a fresh execution's slot table.
	isPH      map[*bat.BAT]bool
	alias     map[*bat.BAT]*bat.BAT
	slotAlias map[int]int
	nSlots    int

	// floatDefs are the capture-time values of float parameters; intSlots
	// the slot-backed integer parameters.
	floatDefs map[string]float64
	intSlots  []intParamSlot

	// refsByName indexes float-parameter instruction bindings so replay
	// rebinding is O(bound params), not O(plan size); built at seal time.
	refsByName map[string][]boundRef

	// sealErr is set when the pins the seal-time re-placement chose failed
	// the verifier; such a template refuses to execute.
	sealErr error
	sealed  bool

	// Verify-once-per-template state (verify.go): a sealed template is
	// verified at most once — at seal time if the building session already
	// verified every fragment, else lazily on the first verified replay —
	// and the verdict is cached, so PlanCache hits pay nothing.
	vmu   sync.Mutex
	vdone bool
	verr  error

	// tables are the named base tables the plan reads (collected at seal
	// time from the raw IR): the tables whose catalog versions decide whether
	// a cached template is still current (CatalogVersion.Same).
	tables []string
}

// boundRef is one instruction scalar field a named parameter re-binds.
type boundRef struct {
	in    *PInstr
	field ScalarField
}

func newTemplate(module string, passes Passes) *Template {
	return &Template{
		module:    module,
		passes:    passes,
		isPH:      map[*bat.BAT]bool{},
		alias:     map[*bat.BAT]*bat.BAT{},
		slotAlias: map[int]int{},
		floatDefs: map[string]float64{},
	}
}

// Template seals and returns the session's plan template. Call it only
// after the plan ran to completion (RunQuery returned without error); the
// sealed template must not be executed through a session that is still
// building.
//
// Sealing is also where placement sees the truth: the run that just
// finished placed each fragment from statistics and estimates, and now knows
// every intermediate's size, so the placement pass runs once more with those
// (placeObserved). The IR is still private to this session, which is what
// makes stamping the pins race-free; every replay then runs the pins, the
// dependency edges and the lanes it finds.
func (s *Session) Template() *Template {
	t := s.tpl
	if t.sealed {
		return t
	}
	if s.passes.Placement {
		t.sealErr = s.placeObserved()
	}
	t.nSlots = len(s.slots)
	t.refsByName = map[string][]boundRef{}
	for _, frag := range t.frags {
		for _, in := range frag.instrs {
			for _, ref := range in.Params {
				t.refsByName[ref.Name] = append(t.refsByName[ref.Name], boundRef{in: in, field: ref.Field})
			}
		}
	}
	// Collect the base tables the plan reads from the raw IR (conservative:
	// includes reads the rewriter later eliminated) — the tables whose
	// versions the plan cache checks.
	seenTab := map[string]bool{}
	noteTab := func(b *bat.BAT) {
		if b == nil || t.isPH[b] || b.TableName == "" || seenTab[b.TableName] {
			return
		}
		seenTab[b.TableName] = true
		t.tables = append(t.tables, b.TableName)
	}
	for _, in := range s.raw {
		for _, a := range in.Args {
			noteTab(a)
		}
	}
	for _, c := range t.cols {
		noteTab(c)
	}
	t.sealed = true
	// A verifying build already checked every fragment after every pass, so
	// the sealed template is pre-verified; otherwise the first verified
	// replay proves it once.
	t.vdone = s.verify
	return t
}

// placeObserved re-runs the placement pass over the whole finished plan with
// every produced value priced at its observed length: the session's
// environment still holds each result's descriptor, and a descriptor keeps
// its length after Release. Fragments whose pins moved get their graph
// derived again and are proved against the verifier's pin and lane rules —
// unconditionally, not gated on the session's verify flag: this is a rewrite
// of a plan that already ran.
func (s *Session) placeObserved() error {
	t := s.tpl
	moved := map[*PInstr]bool{}
	// The plan ran to completion, so what was executed (s.done) is every
	// fragment's instructions, in order.
	s.place(s.done, syncArgs(s.done), func(in *PInstr, label string) {
		if in.Device != label {
			in.Device = label
			moved[in] = true
		}
	})
	if len(moved) == 0 {
		return nil
	}
	for fi, f := range t.frags {
		if !slices.ContainsFunc(f.instrs, func(in *PInstr) bool { return moved[in] }) {
			continue
		}
		t.frags[fi] = s.planGraph(f.instrs)
		if err := s.checkFragment("seal", t.frags[fi], syncArgs(f.instrs), vPin|vLane, false); err != nil {
			err.Frag = fi
			return err
		}
	}
	return nil
}

// checkParams rejects parameter names the plan never declared: a typo'd
// binding would otherwise silently execute with capture-time constants.
func (t *Template) checkParams(params Params) error {
	for name := range params {
		if _, ok := t.floatDefs[name]; ok {
			continue
		}
		known := false
		for _, ip := range t.intSlots {
			if ip.Name == name {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("mal: plan declares no parameter %q", name)
		}
	}
	return nil
}

// Tables returns the named base tables the plan reads, in first-read order
// (the tables whose catalog versions the plan cache checks).
func (t *Template) Tables() []string { return append([]string(nil), t.tables...) }

// Fragments returns the number of flush fragments the template holds.
func (t *Template) Fragments() int { return len(t.frags) }

// Instructions returns the total rewritten instruction count (tests/tools).
func (t *Template) Instructions() int {
	n := 0
	for _, f := range t.frags {
		n += len(f.instrs)
	}
	return n
}

// scalarPatch overrides an instruction's scalar fields with re-bound
// parameter values for one execution.
type scalarPatch struct {
	lo, hi, c          float64
	hasLo, hasHi, hasC bool
}

// newExec creates the per-execution session that replays the template on o.
func (t *Template) newExec(o ops.Operators, params Params) (*Session, error) {
	if !t.sealed {
		return nil, fmt.Errorf("mal: executing an unsealed template")
	}
	if t.sealErr != nil {
		return nil, t.sealErr
	}
	if o.Module() != t.module {
		return nil, fmt.Errorf("mal: template bound to module %q, engine provides %q", t.module, o.Module())
	}
	if err := t.checkParams(params); err != nil {
		return nil, err
	}
	s := &Session{
		o:        o,
		module:   t.module,
		passes:   t.passes,
		tpl:      t,
		replay:   true,
		parallel: true,
		env:      map[*bat.BAT]*bat.BAT{},
		released: map[*bat.BAT]bool{},
		slots:    make([]int, t.nSlots),
		verify:   DefaultVerify(),
	}
	for i := range s.slots {
		s.slots[i] = -1
	}
	for _, ip := range t.intSlots {
		v := ip.Def
		if pv, ok := params[ip.Name]; ok {
			v = int(pv)
		}
		s.slots[ip.Slot] = v
	}
	for name, pv := range params {
		for _, ref := range t.refsByName[name] {
			if s.over == nil {
				s.over = map[*PInstr]scalarPatch{}
			}
			p := s.over[ref.in]
			switch ref.field {
			case FieldLo:
				p.lo, p.hasLo = pv, true
			case FieldHi:
				p.hi, p.hasHi = pv, true
			case FieldC:
				p.c, p.hasC = pv, true
			}
			s.over[ref.in] = p
		}
	}
	return s, nil
}

// Run executes the template on o with the given parameter bindings,
// skipping plan build and every rewriter pass: the stored fragments are
// interpreted directly. It is safe to call concurrently — each call gets
// its own execution state; the shared IR is read-only.
func (t *Template) Run(o ops.Operators, params Params) (res *Result, err error) {
	s, err := t.newExec(o, params)
	if err != nil {
		return nil, err
	}
	return s.runTemplate()
}

// RunOn is Run returning the execution session too (tests and EXPLAIN of a
// replayed plan).
func (t *Template) RunOn(o ops.Operators, params Params) (*Result, *Session, error) {
	s, err := t.newExec(o, params)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.runTemplate()
	return res, s, err
}

// runTemplate interprets the sealed fragments and rebuilds the result set,
// recovering plan aborts into errors exactly like RunQuery.
func (s *Session) runTemplate() (res *Result, err error) {
	t := s.tpl
	if s.verify {
		if verr := t.verifyOnce(s); verr != nil {
			return nil, verr
		}
	}
	defer s.Close()
	defer func() {
		if v := recover(); v != nil {
			if a, ok := v.(abort); ok {
				err = a.err
				return
			}
			panic(v)
		}
	}()
	for _, frag := range t.frags {
		s.execute(frag)
	}
	if err := Finish(s.o); err != nil {
		s.fail("finish", err)
	}
	if !s.firstExec.IsZero() {
		s.lastExec = time.Now()
	}
	cols := make([]*bat.BAT, len(t.cols))
	for i, c := range t.cols {
		cols[i] = s.resultCol(c)
	}
	return &Result{Names: append([]string(nil), t.names...), Cols: cols}, nil
}

// resultCol maps a template result value to this execution's concrete BAT.
func (s *Session) resultCol(c *bat.BAT) *bat.BAT {
	conc := s.resolve(c)
	s.checkResultCol(conc)
	return conc
}

// PlanCache stores sealed templates keyed by query name, configuration and
// pass set, bounded by an LRU capacity: templates pin rewritten plan
// fragments (and through them base-BAT references) for the cache's lifetime,
// so an unbounded cache under a many-query workload grows without limit.
// One cache must serve exactly one database and one engine (or engines of
// the same configuration over the same data): templates capture base-BAT
// identities and mid-plan host constants.
//
// Whether a resident template is still current is the catalog's to say
// (catalog.go): each slot records the version its build registered at, and
// stays valid while no table its template reads has changed since. The first
// lookup after a new version sweeps every slot that is no longer current, so
// a key that is never presented again (a plan the sharded server retired)
// still lets go of its template and the column snapshots the template pins.
type PlanCache struct {
	mu       sync.Mutex
	vers     *Catalog
	m        map[string]*list.Element
	lru      *list.List // front = most recently used
	capacity int
	// swept is the catalog version the last sweep ran at.
	swept   *CatalogVersion
	hits    int64
	misses  int64
	evicted int64
	// building single-flights template builds: the first miss for a key
	// registers a buildCall here and builds; concurrent misses for the same
	// key wait on it and replay the built template instead of each running
	// the plan function and the whole rewriter pipeline (the miss-storm a
	// cold popular query used to pay N times).
	building map[string]*buildCall
	// coalesced counts Run calls that waited on another call's in-flight
	// build instead of building themselves.
	coalesced int64
}

// buildCall is one in-flight template build, registered at catalog version
// ver. done is closed when the build finishes; tpl is set (before the close)
// only if the build succeeded and the template was cached.
type buildCall struct {
	done chan struct{}
	ver  *CatalogVersion
	tpl  *Template
}

// cacheSlot is one resident template plus its key (for map removal on
// eviction) and the catalog version its build registered at.
type cacheSlot struct {
	key string
	tpl *Template
	ver *CatalogVersion
}

// DefaultPlanCacheCapacity bounds a cache created by NewPlanCache. Each
// template is a rewritten plan (tens of instructions), so the default keeps
// far more distinct (query, configuration) pairs resident than any shipped
// workload uses while still bounding growth.
const DefaultPlanCacheCapacity = 256

// NewPlanCache creates an empty cache with the default capacity, over data
// that never changes.
func NewPlanCache() *PlanCache { return NewPlanCacheFor(&Catalog{}) }

// NewPlanCacheFor creates an empty cache with the default capacity whose
// templates go stale as vers publishes changes to the tables they read.
func NewPlanCacheFor(vers *Catalog) *PlanCache {
	return &PlanCache{
		vers:     vers,
		m:        map[string]*list.Element{},
		lru:      list.New(),
		capacity: DefaultPlanCacheCapacity,
		building: map[string]*buildCall{},
	}
}

// NewPlanCacheCap creates an empty cache holding at most capacity templates
// (<=0 means unbounded).
func NewPlanCacheCap(capacity int) *PlanCache {
	c := NewPlanCache()
	c.capacity = capacity
	return c
}

// removeLocked drops one resident slot.
func (c *PlanCache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.m, el.Value.(*cacheSlot).key)
}

// evictLocked drops least-recently-used templates until the cache fits its
// capacity.
func (c *PlanCache) evictLocked() {
	if c.capacity <= 0 {
		return
	}
	for len(c.m) > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evicted++
	}
}

// currentLocked returns the catalog's current version, first sweeping out
// every slot that is stale at it when the version moved since the last
// sweep.
func (c *PlanCache) currentLocked() *CatalogVersion {
	cur := c.vers.Current()
	if cur == c.swept {
		return cur
	}
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if slot := el.Value.(*cacheSlot); !cur.Same(slot.ver, slot.tpl.tables) {
			c.removeLocked(el)
		}
		el = next
	}
	c.swept = cur
	return cur
}

// lookupLocked returns the resident template for key, marking it most
// recently used, if it is current at cur. A stale one is dropped and the
// lookup misses: a build that registered before cur was published may have
// landed after the sweep.
func (c *PlanCache) lookupLocked(key string, cur *CatalogVersion) *Template {
	el := c.m[key]
	if el == nil {
		return nil
	}
	slot := el.Value.(*cacheSlot)
	if !cur.Same(slot.ver, slot.tpl.tables) {
		c.removeLocked(el)
		return nil
	}
	c.lru.MoveToFront(el)
	return slot.tpl
}

// putLocked stores (or refreshes) a template under key, built at catalog
// version ver, and applies the capacity bound.
func (c *PlanCache) putLocked(key string, t *Template, ver *CatalogVersion) {
	if el := c.m[key]; el != nil {
		slot := el.Value.(*cacheSlot)
		slot.tpl, slot.ver = t, ver
		c.lru.MoveToFront(el)
		return
	}
	c.m[key] = c.lru.PushFront(&cacheSlot{key: key, tpl: t, ver: ver})
	c.evictLocked()
}

// cacheKey renders the key of (name, configuration, passes).
func cacheKey(name string, o ops.Operators, passes Passes) string {
	return fmt.Sprintf("%s|%s|%s|%s", name, o.Name(), o.Module(), passes.key())
}

// Lookup returns the cached template for (name, configuration, passes) if it
// is current, refreshing its recency.
func (c *PlanCache) Lookup(name string, o ops.Operators, passes Passes) *Template {
	key := cacheKey(name, o, passes)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(key, c.currentLocked())
}

// Stats returns cache hits, misses and resident templates.
func (c *PlanCache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.m)
}

// Evictions returns how many templates the capacity bound has dropped.
func (c *PlanCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Coalesced returns how many Run calls were deduplicated onto another
// call's in-flight template build.
func (c *PlanCache) Coalesced() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}

// Run executes the named query on o: on a hit the cached template is
// replayed with params re-bound; on a miss the plan function builds,
// rewrites and executes the plan, and the resulting template is cached for
// the next call. hit reports which path ran. Parameter names the plan never
// declared are rejected (on both paths) instead of silently executing with
// capture-time constants.
//
// Concurrent misses for the same key single-flight: the first registers an
// in-flight build and runs the plan function; the rest wait and replay the
// built template with their own parameters (counted as hits — they never
// ran the pipeline). A waiter retries from the top, and one waiter becomes
// the next builder, if the build failed or if a table the template reads
// changed between the build's registration and the waiter's arrival: a call
// that starts after a publish never replays a plan built over the data
// before it.
func (c *PlanCache) Run(o ops.Operators, name string, params Params, passes Passes, plan func(*Session) *Result) (res *Result, hit bool, err error) {
	key := cacheKey(name, o, passes)
	for {
		c.mu.Lock()
		cur := c.currentLocked()
		if t := c.lookupLocked(key, cur); t != nil {
			c.hits++
			c.mu.Unlock()
			res, err = t.Run(o, params)
			return res, true, err
		}
		if bc := c.building[key]; bc != nil {
			c.coalesced++
			c.mu.Unlock()
			<-bc.done
			if bc.tpl != nil && cur.Same(bc.ver, bc.tpl.tables) {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				res, err = bc.tpl.Run(o, params)
				return res, true, err
			}
			continue
		}
		c.misses++
		bc := &buildCall{done: make(chan struct{}), ver: cur}
		c.building[key] = bc
		c.mu.Unlock()
		return c.build(o, key, params, passes, plan, bc)
	}
}

// build runs the miss path of Run as the registered builder for key. The
// buildCall is always resolved — entry removed, done closed — even on a
// plan panic, so waiters can never be stranded.
func (c *PlanCache) build(o ops.Operators, key string, params Params, passes Passes, plan func(*Session) *Result, bc *buildCall) (res *Result, hit bool, err error) {
	defer func() {
		c.mu.Lock()
		delete(c.building, key)
		c.mu.Unlock()
		close(bc.done)
	}()
	s := NewSession(o)
	s.SetPasses(passes)
	s.SetParams(params)
	res, err = RunQuery(s, plan)
	if err == nil && res != nil {
		tpl := s.Template()
		c.mu.Lock()
		c.putLocked(key, tpl, bc.ver)
		c.mu.Unlock()
		bc.tpl = tpl
		// The built template is valid and cached either way, but a binding
		// the plan never declared is the caller's bug — surface it now, the
		// same way a replay would.
		if perr := tpl.checkParams(params); perr != nil {
			return nil, false, perr
		}
	}
	return res, false, err
}
