// Sharded scale-out compilation: derive, from a plan that just ran against
// the unsharded (coordinator) catalog, the per-shard plan fragments and the
// merge fragment that together answer the same query over a hash-partitioned
// database — byte-identically.
//
// The approach mirrors MonetDB's mitosis/mergetable rewriters: the plan IR
// is classified per value into work that is *decomposable* (runs on every
// shard over its slice of the fact tables), work that is *dimension-pure*
// (replicated tables only — identical on every shard, re-issued wherever it
// is needed), and work that must run on the *merge* side (grouping,
// aggregation, sorting, joins — anything whose result depends on seeing all
// rows). Where a merge-side instruction consumes a decomposable value, that
// value becomes part of the gather frontier: every shard ships its slice, and
// the coordinator interleaves the slices into exact global row order (shards
// record an ascending local→global row map), rewriting shard-local row ids
// and positions on the way. The merged frontier values are byte-identical to
// the intermediates of the unsharded run, and the merge fragment is the same
// instruction subgraph over identical inputs, so — given the engines'
// order-stable operators — the final result is byte-identical too.
//
// Compilation is conservative: any value or instruction the classifier
// cannot prove decomposable is demoted to the merge side, and any condition
// outside the supported envelope degenerates the whole plan (the coordinator
// then just runs it unsharded — always correct, never wrong). Scalar
// constants read mid-plan are baked into the fragments exactly as the plan
// cache bakes them into templates (cache.go's contract), so sharded replays
// and cached replays agree by construction.
package mal

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/ops"
)

// ShardCatalog describes one logical database partitioned across shards:
// the sharded (fact) tables with their global and per-shard *bat.Table
// views. Tables absent from the catalog are replicated — every shard reads
// the coordinator's copy by pointer.
type ShardCatalog struct {
	NShards int
	Tables  map[string]*ShardedTable
}

// ShardedTable is one hash-partitioned table: the unsharded original plus
// its per-shard slices (each carrying an ascending GlobalRows map).
type ShardedTable struct {
	Global *bat.Table
	Shards []*bat.Table
}

// class partitions plan values and instructions by where they may execute.
type class int

const (
	// clsBase marks base-column values of a sharded table (never computed,
	// never gathered: shards read their slice, the merge side reads the
	// global column).
	clsBase class = iota
	// clsDim marks dimension-pure values/instructions: inputs are replicated
	// tables only, so the computation is identical on every shard and on the
	// coordinator; it is re-issued on whichever side needs it.
	clsDim
	// clsShard marks decomposable instructions: running them per shard over
	// the shard's rows and concatenating (in global row order) yields exactly
	// the unsharded intermediate.
	clsShard
	// clsMerge marks instructions that must see all rows (grouping,
	// aggregation, joins, sorts) or that consume a merged value.
	clsMerge
)

// vkind describes what a value's cells *are*, which decides how the gather
// layer translates them between shard-local and global contexts.
type vkind int

const (
	// kData cells are plain data (or globally-stable positions into a
	// replicated table): copied verbatim.
	kData vkind = iota
	// kRow cells are row ids of a sharded table: local on a shard, global on
	// the coordinator; translated through the shard's GlobalRows map.
	kRow
	// kPos cells are positions into another plan value's rows (the chain);
	// translated through the chain's merge ranks.
	kPos
)

// space identifies the row alignment of a value: which domain its i-th cell
// corresponds to. Row-wise operations require equal spaces; candidates must
// have the domain of the column they select from.
type space struct {
	// tab: aligned with the full rows of this named table…
	tab string
	// …or anch: aligned with the rows of this (canonical) plan value.
	anch *bat.BAT
}

// vinfo is the classifier's per-value annotation.
type vinfo struct {
	cls   class
	kind  vkind
	tab   string   // kRow: the sharded table whose rows the cells name
	chain *bat.BAT // kPos: canonical value whose rows the cells index
	sp    space
}

// gatherItem is one frontier value every shard ships and the coordinator
// merges into global row order.
type gatherItem struct {
	old      *bat.BAT // canonical plan value in the compiled session
	kind     vkind
	tab      string // kRow: table for the local→global translation
	chainIdx int    // kPos: items index of the chain (-1 otherwise)
	spTable  string // aligned with the full rows of this sharded table…
	spAnchor int    // …or with the rows of items[spAnchor] (may be self)
	needRank bool   // some kPos item indexes this item's rows
	typ      bat.Type
	props    bat.Properties // the unsharded intermediate's properties: the
	// merged value is byte-identical to it, so claiming the same properties
	// keeps downstream property-dependent algorithm choices identical too.
}

// ShardPlan is a compiled scatter-gather execution: per-shard plan closures,
// the gather specification, and the merge fragment. It snapshots the
// catalog's column BATs and GlobalRows maps at compile time, so in-flight
// executions keep reading one consistent generation across concurrent
// appends (ingest is copy-on-append; see bat.AppendDelta).
type ShardPlan struct {
	name    string
	nshards int
	passes  Passes

	degenerate bool
	reason     string

	items     []*gatherItem
	shardProg []*PInstr
	mergeProg []*PInstr

	names []string
	cols  []*bat.BAT

	floatDefs map[string]float64
	intSlots  map[int]intParamSlot
	alias     map[*bat.BAT]*bat.BAT
	slotAlias map[int]int

	baseMaps   []map[*bat.BAT]*bat.BAT
	globalRows map[string][][]uint32

	tables []string
}

// Degenerate reports whether the compiler demoted the whole plan: no shard
// stage exists and the query should simply run unsharded on the coordinator.
func (sp *ShardPlan) Degenerate() bool { return sp.degenerate }

// Reason explains a degenerate compilation (diagnostics and tests).
func (sp *ShardPlan) Reason() string { return sp.reason }

// NShards returns the compiled shard count.
func (sp *ShardPlan) NShards() int { return sp.nshards }

// Passes returns the pass configuration the fragments were compiled for
// (the compile session's passes with fusion forced off); shard and merge
// executions must run under it to stay byte-identical to the compile run.
func (sp *ShardPlan) Passes() Passes { return sp.passes }

// Tables lists the base tables the plan reads (sharded and replicated) —
// the tables whose catalog versions decide whether the plan is current.
func (sp *ShardPlan) Tables() []string { return append([]string(nil), sp.tables...) }

// GatherWidth returns how many frontier values every shard ships.
func (sp *ShardPlan) GatherWidth() int { return len(sp.items) }

// ShardInstructions and MergeInstructions report the fragment sizes
// (observability: tests assert shard work actually exists for decomposable
// queries).
func (sp *ShardPlan) ShardInstructions() int { return len(sp.shardProg) }
func (sp *ShardPlan) MergeInstructions() int { return len(sp.mergeProg) }

// compileFail aborts compilation into a degenerate plan.
type compileFail struct{ reason string }

// shardCompiler is the per-compilation state.
type shardCompiler struct {
	s    *Session
	cat  *ShardCatalog
	sp   *ShardPlan
	live map[*PInstr]bool
	vals map[*bat.BAT]vinfo
	icls map[*PInstr]class
	scls map[int]class // canonical slot → producing Group's class
	idx  map[*bat.BAT]int
}

func (sc *shardCompiler) failf(format string, args ...any) {
	panic(compileFail{reason: fmt.Sprintf(format, args...)})
}

// CompileSharded derives a ShardPlan from a session that just built and ran
// its plan against the *global* catalog (the coordinator's cold run). The
// caller must guarantee the catalog is not mutated between the cold run and
// this call (the serve layer holds its ingest lock across both): the plan
// snapshots shard columns and GlobalRows maps here.
//
// CompileSharded never fails: anything outside the supported envelope yields
// a degenerate plan, which the caller executes unsharded.
func CompileSharded(name string, s *Session, cat *ShardCatalog) (plan *ShardPlan) {
	// The sharded path always runs unfused: the compile run needs every
	// member intermediate's concrete type and properties (a fused region
	// leaves none behind), and fused float aggregation is only equal to the
	// unfused chain within tolerance — byte-identity across shard counts
	// requires one fixed execution shape. The caller's compile session must
	// have fusion off too (frontier capture degenerates otherwise).
	passes := s.passes
	passes.Fusion = false
	sp := &ShardPlan{
		name:      name,
		passes:    passes,
		floatDefs: map[string]float64{},
		intSlots:  map[int]intParamSlot{},
		alias:     s.tpl.alias,
		slotAlias: s.tpl.slotAlias,
	}
	for k, v := range s.tpl.floatDefs {
		sp.floatDefs[k] = v
	}
	for _, ip := range s.tpl.intSlots {
		sp.intSlots[s.canonSlot(ip.Slot)] = ip
	}
	sp.names = append([]string(nil), s.tpl.names...)
	sp.cols = append([]*bat.BAT(nil), s.tpl.cols...)
	plan = sp

	sc := &shardCompiler{
		s:    s,
		cat:  cat,
		sp:   sp,
		live: map[*PInstr]bool{},
		vals: map[*bat.BAT]vinfo{},
		icls: map[*PInstr]class{},
		scls: map[int]class{},
		idx:  map[*bat.BAT]int{},
	}
	defer func() {
		if v := recover(); v != nil {
			cf, ok := v.(compileFail)
			if !ok {
				panic(v)
			}
			sp.degenerate = true
			sp.reason = cf.reason
			sp.items = nil
			sp.shardProg, sp.mergeProg = nil, nil
		}
	}()

	sc.liveness()
	sc.collectTables()
	if cat == nil || cat.NShards < 1 || len(cat.Tables) == 0 {
		sc.failf("no shard catalog")
	}
	sp.nshards = cat.NShards
	sc.snapshot()
	sc.classify()
	sc.frontier()
	if len(sp.items) == 0 {
		sc.failf("no decomposable work reaches the result (dimension-only or merge-only plan)")
	}
	sc.emit()
	return sp
}

// liveness marks the raw instructions that can reach the result columns —
// through value edges and group-count slot edges. Dead instructions (e.g. an
// aggregate whose only consumer was a mid-plan host scalar read, now baked
// as a literal) are compiled into neither fragment and never gathered.
func (sc *shardCompiler) liveness() {
	s := sc.s
	neededV := map[*bat.BAT]bool{}
	neededS := map[int]bool{}
	for _, c := range s.tpl.cols {
		if c != nil {
			neededV[s.canon(c)] = true
		}
	}
	for i := len(s.raw) - 1; i >= 0; i-- {
		in := s.raw[i]
		isLive := false
		for _, r := range in.Rets {
			if neededV[s.canon(r)] {
				isLive = true
			}
		}
		if in.NSlot >= 0 && neededS[s.canonSlot(in.NSlot)] {
			isLive = true
		}
		if !isLive {
			continue
		}
		sc.live[in] = true
		for _, a := range in.Args {
			if a != nil {
				neededV[s.canon(a)] = true
			}
		}
		if in.NgrpRef >= 0 {
			neededS[s.canonSlot(in.NgrpRef)] = true
		}
	}
}

// collectTables records every named base table the live plan reads.
func (sc *shardCompiler) collectTables() {
	seen := map[string]bool{}
	note := func(b *bat.BAT) {
		if b == nil || sc.s.tpl.isPH[b] || b.TableName == "" || seen[b.TableName] {
			return
		}
		seen[b.TableName] = true
		sc.sp.tables = append(sc.sp.tables, b.TableName)
	}
	for _, in := range sc.s.raw {
		if !sc.live[in] {
			continue
		}
		for _, a := range in.Args {
			note(a)
		}
	}
	for _, c := range sc.s.tpl.cols {
		note(c)
	}
}

// snapshot captures per-shard column pointers and GlobalRows maps for every
// sharded table, and builds the per-shard base-column substitution maps.
func (sc *shardCompiler) snapshot() {
	sp := sc.sp
	sp.globalRows = map[string][][]uint32{}
	sp.baseMaps = make([]map[*bat.BAT]*bat.BAT, sp.nshards)
	for i := range sp.baseMaps {
		sp.baseMaps[i] = map[*bat.BAT]*bat.BAT{}
	}
	// Reverse-index the global columns so a raw base-arg pointer maps to its
	// (table, column) identity without trusting BAT names.
	type colID struct{ tab, col string }
	index := map[*bat.BAT]colID{}
	views := map[string][]*bat.TableView{}
	for tab, st := range sc.cat.Tables {
		if st == nil || st.Global == nil || len(st.Shards) != sp.nshards {
			sc.failf("catalog entry for %q malformed", tab)
		}
		gv := st.Global.View()
		for name, b := range gv.Cols {
			index[b] = colID{tab: tab, col: name}
		}
		vs := make([]*bat.TableView, sp.nshards)
		rows := make([][]uint32, sp.nshards)
		for i, sh := range st.Shards {
			vs[i] = sh.View()
			rows[i] = sh.GlobalRowsSnapshot()
			if vs[i].Rows != len(rows[i]) {
				sc.failf("shard %d of %q: %d rows but %d global row ids", i, tab, vs[i].Rows, len(rows[i]))
			}
		}
		views[tab] = vs
		sp.globalRows[tab] = rows
	}
	bind := func(b *bat.BAT) {
		if b == nil || sc.s.tpl.isPH[b] || b.TableName == "" {
			return
		}
		st := sc.cat.Tables[b.TableName]
		if st == nil {
			return // replicated: every side reads the same pointer
		}
		id, ok := index[b]
		if !ok {
			sc.failf("base column %q of sharded table %q is not the catalog's current generation", b.Name, b.TableName)
		}
		for i := range sp.baseMaps {
			shardCol, ok := views[id.tab][i].Cols[id.col]
			if !ok {
				sc.failf("shard %d of %q misses column %q", i, id.tab, id.col)
			}
			sp.baseMaps[i][b] = shardCol
		}
	}
	for _, in := range sc.s.raw {
		if !sc.live[in] {
			continue
		}
		for _, a := range in.Args {
			bind(a)
		}
	}
	for _, c := range sc.s.tpl.cols {
		bind(c)
	}
}

func (sc *shardCompiler) sharded(tab string) bool {
	return tab != "" && sc.cat.Tables[tab] != nil
}

// info returns (computing for base values on demand) a value's annotation.
func (sc *shardCompiler) info(v *bat.BAT) vinfo {
	v = sc.s.canon(v)
	if vi, ok := sc.vals[v]; ok {
		return vi
	}
	var vi vinfo
	if sc.s.tpl.isPH[v] {
		// A placeholder no classified instruction produced: demote whatever
		// consumes it.
		vi = vinfo{cls: clsMerge}
	} else {
		kind, tab := kData, ""
		if sc.sharded(v.PosInto) {
			kind, tab = kRow, v.PosInto
		}
		switch {
		case sc.sharded(v.TableName):
			vi = vinfo{cls: clsBase, kind: kind, tab: tab, sp: space{tab: v.TableName}}
		case v.TableName != "":
			vi = vinfo{cls: clsDim, kind: kind, tab: tab, sp: space{tab: v.TableName}}
		default:
			// Free-standing host BAT: replicated by definition (all engines
			// share host memory), aligned only with itself.
			vi = vinfo{cls: clsDim, kind: kind, tab: tab, sp: space{anch: v}}
		}
	}
	sc.vals[v] = vi
	return vi
}

// domainOf returns the space a value's cells index, when they index one.
func domainOf(vi vinfo) (space, bool) {
	switch vi.kind {
	case kRow:
		return space{tab: vi.tab}, true
	case kPos:
		return space{anch: vi.chain}, true
	}
	return space{}, false
}

// candKind builds the annotation of a candidate-style output (Select,
// SemiJoin, …): cells are positions into the rows of dom, the output is
// aligned with itself.
func (sc *shardCompiler) candKind(dom space, self *bat.BAT) vinfo {
	vi := vinfo{cls: clsShard, sp: space{anch: sc.s.canon(self)}}
	switch {
	case sc.sharded(dom.tab):
		vi.kind, vi.tab = kRow, dom.tab
	case dom.tab != "":
		vi.kind = kData // positions into a replicated table: globally stable
	default:
		vi.kind, vi.chain = kPos, dom.anch
	}
	return vi
}

// classify walks the live raw instructions forward, assigning a class to
// each instruction and an annotation to each produced value.
func (sc *shardCompiler) classify() {
	for _, in := range sc.s.raw {
		if !sc.live[in] {
			continue
		}
		cls := sc.combine(in)
		if cls == clsShard {
			vi, ok := sc.shardRule(in)
			if !ok {
				cls = clsMerge
			} else {
				sc.vals[sc.s.canon(in.Rets[0])] = vi
			}
		}
		sc.icls[in] = cls
		if cls != clsShard {
			for _, r := range in.Rets {
				sc.vals[sc.s.canon(r)] = vinfo{cls: cls}
			}
		}
		if in.Kind == OpGroup && in.NSlot >= 0 {
			sc.scls[sc.s.canonSlot(in.NSlot)] = cls
		}
	}
}

// combine folds argument (and group-count slot) classes: any merge-side
// input forces merge; all-replicated inputs make the instruction
// dimension-pure; a mix is a shard candidate — unless the operator kind can
// never decompose.
func (sc *shardCompiler) combine(in *PInstr) class {
	anyShard, merged := false, false
	for _, a := range in.Args {
		if a == nil {
			continue
		}
		switch sc.info(a).cls {
		case clsMerge:
			merged = true
		case clsShard, clsBase:
			anyShard = true
		}
	}
	if in.NgrpRef >= 0 {
		slot := sc.s.canonSlot(in.NgrpRef)
		if c, ok := sc.scls[slot]; ok {
			if c == clsMerge {
				merged = true
			}
		} else if _, isParam := sc.sp.intSlots[slot]; !isParam {
			merged = true // slot from an unclassified (dead?) producer
		}
	}
	if merged {
		return clsMerge
	}
	if !anyShard {
		return clsDim
	}
	switch in.Kind {
	case OpGroup, OpAggr, OpSort, OpJoin, OpThetaJoin:
		// Must see all rows (grouping, ordering, value joins across
		// arbitrary rows): never decomposable.
		return clsMerge
	}
	return clsShard
}

// shardRule checks the per-operator decomposability conditions for an
// instruction with mixed (sharded + replicated) inputs and derives the
// output annotation. Failure demotes the instruction to the merge side.
func (sc *shardCompiler) shardRule(in *PInstr) (vinfo, bool) {
	self := in.Rets[0]
	arg := func(i int) vinfo { return sc.info(in.Args[i]) }
	switch in.Kind {
	case OpSelect:
		ci := arg(0)
		if ci.kind != kData { // a predicate over row ids is local nonsense
			return vinfo{}, false
		}
		if in.Args[1] != nil {
			dom, ok := domainOf(arg(1))
			if !ok || dom != ci.sp {
				return vinfo{}, false
			}
		}
		return sc.candKind(ci.sp, self), true
	case OpSelectCmp:
		ai, bi := arg(0), arg(1)
		if ai.kind != kData || bi.kind != kData || ai.sp != bi.sp {
			return vinfo{}, false
		}
		if in.Args[2] != nil {
			dom, ok := domainOf(arg(2))
			if !ok || dom != ai.sp {
				return vinfo{}, false
			}
		}
		return sc.candKind(ai.sp, self), true
	case OpProject:
		cdi, coli := arg(0), arg(1)
		if coli.cls == clsDim {
			// Global lookup: cells of the candidate must be globally-stable
			// positions (kData); shard-local rows would index the replicated
			// column wrongly.
			if cdi.kind != kData {
				return vinfo{}, false
			}
		} else {
			dom, ok := domainOf(cdi)
			if !ok || dom != coli.sp {
				return vinfo{}, false
			}
		}
		return vinfo{cls: clsShard, kind: coli.kind, tab: coli.tab, chain: coli.chain, sp: cdi.sp}, true
	case OpSemiJoin, OpAntiJoin:
		li, ri := arg(0), arg(1)
		// Legal when the right side is a globally-identical value set
		// (dimension-pure) compared against globally-stable cells, or when
		// both sides hold rows of the *same* sharded table — co-partitioning
		// makes local membership equal global membership.
		ok := (li.kind == kData && ri.cls == clsDim && ri.kind == kData) ||
			(li.kind == kRow && ri.kind == kRow && li.tab == ri.tab)
		if !ok {
			return vinfo{}, false
		}
		return sc.candKind(li.sp, self), true
	case OpUnion:
		ai, bi := arg(0), arg(1)
		ok := (ai.kind == kRow && bi.kind == kRow && ai.tab == bi.tab) ||
			(ai.kind == kPos && bi.kind == kPos && ai.chain == bi.chain)
		if !ok {
			return vinfo{}, false
		}
		return vinfo{cls: clsShard, kind: ai.kind, tab: ai.tab, chain: ai.chain,
			sp: space{anch: sc.s.canon(self)}}, true
	case OpBinop:
		ai, bi := arg(0), arg(1)
		if ai.kind != kData || bi.kind != kData || ai.sp != bi.sp {
			return vinfo{}, false
		}
		return vinfo{cls: clsShard, kind: kData, sp: ai.sp}, true
	case OpBinopConst:
		ai := arg(0)
		if ai.kind != kData {
			return vinfo{}, false
		}
		return vinfo{cls: clsShard, kind: kData, sp: ai.sp}, true
	}
	return vinfo{}, false
}

// frontier collects the gather set: every decomposable value a merge-side
// instruction (or the result set) consumes, plus — recursively — the
// alignment anchors and position chains the gather layer needs to put those
// values into global row order.
func (sc *shardCompiler) frontier() {
	consider := func(v *bat.BAT) {
		if v == nil {
			return
		}
		if sc.info(v).cls == clsShard {
			sc.addItem(v)
		}
	}
	for _, in := range sc.s.raw {
		if !sc.live[in] || sc.icls[in] != clsMerge {
			continue
		}
		for _, a := range in.Args {
			consider(a)
		}
	}
	for _, c := range sc.s.tpl.cols {
		consider(c)
	}
}

// addItem registers a frontier value (idempotently) and returns its index.
func (sc *shardCompiler) addItem(v *bat.BAT) int {
	v = sc.s.canon(v)
	if i, ok := sc.idx[v]; ok {
		return i
	}
	vi := sc.vals[v]
	it := &gatherItem{old: v, kind: vi.kind, tab: vi.tab, chainIdx: -1, spAnchor: -1}
	i := len(sc.sp.items)
	sc.idx[v] = i
	sc.sp.items = append(sc.sp.items, it)

	conc, ok := sc.s.env[v]
	if !ok {
		sc.failf("frontier value %q has no cold-run concrete (dead fragment?)", v.Name)
	}
	if conc.T == bat.Void {
		// A dense intermediate cannot be reassembled as dense from shard
		// slices without changing its representation; stay unsharded.
		sc.failf("frontier value %q is dense (void)", v.Name)
	}
	it.typ, it.props = conc.T, conc.Props

	switch {
	case vi.sp.tab != "":
		if !sc.sharded(vi.sp.tab) {
			sc.failf("frontier value %q is aligned with replicated table %q", v.Name, vi.sp.tab)
		}
		it.spTable = vi.sp.tab
	case vi.sp.anch == v:
		if vi.kind == kData {
			// A self-anchored value set has no row identity the gather layer
			// could interleave by.
			sc.failf("frontier value %q is a value set with no row identity", v.Name)
		}
		it.spAnchor = i
	case vi.sp.anch != nil:
		it.spAnchor = sc.addItem(vi.sp.anch)
	default:
		sc.failf("frontier value %q has no row alignment", v.Name)
	}
	if vi.kind == kPos {
		it.chainIdx = sc.addItem(vi.chain)
		sc.sp.items[it.chainIdx].needRank = true
	}
	return i
}

// emit splits the live raw instructions into the two fragments: shards run
// the decomposable and dimension-pure work (dead code is pruned by the
// shard sessions' own DCE against the gather outputs), the merge side runs
// the merge and dimension-pure work over merged frontier values and global
// base columns.
func (sc *shardCompiler) emit() {
	for _, in := range sc.s.raw {
		if !sc.live[in] {
			continue
		}
		switch sc.icls[in] {
		case clsShard:
			sc.sp.shardProg = append(sc.sp.shardProg, in)
		case clsDim:
			sc.sp.shardProg = append(sc.sp.shardProg, in)
			sc.sp.mergeProg = append(sc.sp.mergeProg, in)
		case clsMerge:
			sc.sp.mergeProg = append(sc.sp.mergeProg, in)
		}
	}
}

// --- re-issue: turning fragments back into fluent plans ---

// reissuer replays a fragment's instructions through a fresh session's
// fluent API — so the re-issued plan goes through the full rewriter pass
// pipeline and verifier exactly like a hand-written plan.
type reissuer struct {
	ns       *Session
	sp       *ShardPlan
	baseMap  map[*bat.BAT]*bat.BAT // shard side: global base col → shard col
	gathered map[*bat.BAT]*bat.BAT // merge side: frontier value → merged BAT
	vals     map[*bat.BAT]*bat.BAT
	handles  map[int]int
}

func newReissuer(ns *Session, sp *ShardPlan, baseMap, gathered map[*bat.BAT]*bat.BAT) *reissuer {
	return &reissuer{ns: ns, sp: sp, baseMap: baseMap, gathered: gathered,
		vals: map[*bat.BAT]*bat.BAT{}, handles: map[int]int{}}
}

func (r *reissuer) canon(b *bat.BAT) *bat.BAT {
	if a, ok := r.sp.alias[b]; ok {
		return a
	}
	return b
}

func (r *reissuer) canonSlot(slot int) int {
	if a, ok := r.sp.slotAlias[slot]; ok {
		return a
	}
	return slot
}

// resolve maps a compiled-plan value to this re-issue's value: an emitted
// placeholder, a merged frontier BAT, a shard's base column, or (for
// replicated and merge-side base columns) the original pointer.
func (r *reissuer) resolve(a *bat.BAT) *bat.BAT {
	if a == nil {
		return nil
	}
	c := r.canon(a)
	if v, ok := r.vals[c]; ok {
		return v
	}
	if v, ok := r.gathered[c]; ok {
		return v
	}
	if v, ok := r.baseMap[c]; ok {
		return v
	}
	return c
}

// ngrp resolves an instruction's group count for the re-issued plan: a
// literal, a handle produced by a re-issued Group, or a re-declared integer
// parameter.
func (r *reissuer) ngrp(in *PInstr) int {
	if in.NgrpRef < 0 {
		return in.NgrpLit
	}
	slot := r.canonSlot(in.NgrpRef)
	if h, ok := r.handles[slot]; ok {
		return h
	}
	ip, ok := r.sp.intSlots[slot]
	if !ok {
		r.ns.fail("shard", fmt.Errorf("group-count slot %d has no producer in this fragment", slot))
	}
	h := r.ns.ParamI(ip.Name, ip.Def)
	r.handles[slot] = h
	return h
}

// emit re-issues one instruction, re-declaring named float parameters so the
// new fragment re-binds them per execution exactly like the original plan.
func (r *reissuer) emit(in *PInstr) {
	lo, hi, cc := in.Lo, in.Hi, in.C
	for _, pr := range in.Params {
		v := r.ns.Param(pr.Name, r.sp.floatDefs[pr.Name])
		switch pr.Field {
		case FieldLo:
			lo = v
		case FieldHi:
			hi = v
		case FieldC:
			cc = v
		}
	}
	a := func(i int) *bat.BAT { return r.resolve(in.Args[i]) }
	var rets []*bat.BAT
	switch in.Kind {
	case OpSelect:
		rets = []*bat.BAT{r.ns.Select(a(0), a(1), lo, hi, in.LoIncl, in.HiIncl)}
	case OpSelectCmp:
		rets = []*bat.BAT{r.ns.SelectCmp(a(0), a(1), in.Cmp, a(2))}
	case OpProject:
		rets = []*bat.BAT{r.ns.Project(a(0), a(1))}
	case OpJoin:
		l, rr := r.ns.Join(a(0), a(1))
		rets = []*bat.BAT{l, rr}
	case OpThetaJoin:
		l, rr := r.ns.ThetaJoin(a(0), a(1), in.Cmp)
		rets = []*bat.BAT{l, rr}
	case OpSemiJoin:
		rets = []*bat.BAT{r.ns.SemiJoin(a(0), a(1))}
	case OpAntiJoin:
		rets = []*bat.BAT{r.ns.AntiJoin(a(0), a(1))}
	case OpGroup:
		g, h := r.ns.Group(a(0), a(1), r.ngrp(in))
		r.handles[r.canonSlot(in.NSlot)] = h
		rets = []*bat.BAT{g}
	case OpAggr:
		rets = []*bat.BAT{r.ns.Aggr(in.Agg, a(0), a(1), r.ngrp(in))}
	case OpSort:
		v, o := r.ns.Sort(a(0))
		rets = []*bat.BAT{v, o}
	case OpBinop:
		rets = []*bat.BAT{r.ns.Binop(in.Bin, a(0), a(1))}
	case OpBinopConst:
		rets = []*bat.BAT{r.ns.BinopConst(in.Bin, a(0), cc, in.ConstFirst)}
	case OpUnion:
		rets = []*bat.BAT{r.ns.Union(a(0), a(1))}
	default:
		r.ns.fail("shard", fmt.Errorf("cannot re-issue %s", in.OpName()))
	}
	for i, ret := range in.Rets {
		if i < len(rets) {
			r.vals[r.canon(ret)] = rets[i]
		}
	}
}

// PlanFor returns the plan closure shard `shard` executes: the decomposable
// fragment over the shard's base columns, returning the gather frontier as
// the result set. The closure is deterministic given the compile-time
// snapshot, so serving layers may cache and replay it as a template.
func (sp *ShardPlan) PlanFor(shard int) func(*Session) *Result {
	baseMap := sp.baseMaps[shard]
	return func(ns *Session) *Result {
		r := newReissuer(ns, sp, baseMap, nil)
		for _, in := range sp.shardProg {
			r.emit(in)
		}
		names := make([]string, len(sp.items))
		cols := make([]*bat.BAT, len(sp.items))
		for i, it := range sp.items {
			names[i] = fmt.Sprintf("g%d", i)
			cols[i] = r.resolve(it.old)
		}
		return ns.Result(names, cols...)
	}
}

// gatherState is the per-execution memoised gather computation.
type gatherState struct {
	sp      *ShardPlan
	vals    [][][]uint32 // [item][shard] cells as uint32 (kRow/kPos items)
	raw     [][]*bat.BAT // [item][shard] result column
	rowl    [][][]uint32 // memo: rowlist(item, shard) = global ids of its rows
	ranks   [][][]uint32 // memo: merge ranks per item (chains only)
	merged  []*bat.BAT
	mergedD []bool
}

// Gather interleaves the shards' frontier slices into global row order,
// translating shard-local rows and positions, and returns the merged value
// per frontier item keyed by the compiled plan value. Every merged value is
// byte-identical to the unsharded run's intermediate.
func (sp *ShardPlan) Gather(results []*Result) (map[*bat.BAT]*bat.BAT, error) {
	if len(results) != sp.nshards {
		return nil, fmt.Errorf("mal: gather got %d shard results, want %d", len(results), sp.nshards)
	}
	g := &gatherState{
		sp:      sp,
		vals:    make([][][]uint32, len(sp.items)),
		raw:     make([][]*bat.BAT, len(sp.items)),
		rowl:    make([][][]uint32, len(sp.items)),
		ranks:   make([][][]uint32, len(sp.items)),
		merged:  make([]*bat.BAT, len(sp.items)),
		mergedD: make([]bool, len(sp.items)),
	}
	for s, res := range results {
		if res == nil || len(res.Cols) != len(sp.items) {
			return nil, fmt.Errorf("mal: shard %d returned a malformed frontier", s)
		}
	}
	for i := range sp.items {
		g.vals[i] = make([][]uint32, sp.nshards)
		g.raw[i] = make([]*bat.BAT, sp.nshards)
		g.rowl[i] = make([][]uint32, sp.nshards)
		for s, res := range results {
			g.raw[i][s] = res.Cols[i]
		}
	}
	out := map[*bat.BAT]*bat.BAT{}
	for i, it := range sp.items {
		b, err := g.merge(i)
		if err != nil {
			return nil, err
		}
		out[it.old] = b
	}
	return out, nil
}

// cells returns item i's shard-s column as uint32 positions/rows.
func (g *gatherState) cells(i, s int) ([]uint32, error) {
	if g.vals[i][s] != nil {
		return g.vals[i][s], nil
	}
	b := g.raw[i][s]
	switch b.T {
	case bat.OID:
		g.vals[i][s] = b.OIDs()
	case bat.Void:
		g.vals[i][s] = b.MaterializeOIDs()
	default:
		return nil, fmt.Errorf("mal: gather item %d is %v, not positional", i, b.T)
	}
	return g.vals[i][s], nil
}

// rowlist returns the global row ids of item i's rows on shard s.
func (g *gatherState) rowlist(i, s int) ([]uint32, error) {
	if g.rowl[i][s] != nil {
		return g.rowl[i][s], nil
	}
	it := g.sp.items[i]
	var rl []uint32
	var err error
	if it.spTable != "" {
		rl = g.sp.globalRows[it.spTable][s]
		if g.raw[i][s].Len() != len(rl) {
			return nil, fmt.Errorf("mal: gather item %d on shard %d has %d rows, table snapshot has %d",
				i, s, g.raw[i][s].Len(), len(rl))
		}
	} else {
		rl, err = g.gvals(it.spAnchor, s)
		if err != nil {
			return nil, err
		}
		if g.raw[i][s].Len() != len(rl) {
			return nil, fmt.Errorf("mal: gather item %d on shard %d misaligned with its anchor", i, s)
		}
	}
	g.rowl[i][s] = rl
	return rl, nil
}

// gvals translates item i's cells on shard s into global row ids.
func (g *gatherState) gvals(i, s int) ([]uint32, error) {
	it := g.sp.items[i]
	cells, err := g.cells(i, s)
	if err != nil {
		return nil, err
	}
	switch it.kind {
	case kRow:
		return ops.GatherU32(g.sp.globalRows[it.tab][s], cells)
	case kPos:
		rl, err := g.rowlist(it.chainIdx, s)
		if err != nil {
			return nil, err
		}
		return ops.GatherU32(rl, cells)
	}
	return nil, fmt.Errorf("mal: gather item %d has non-positional cells but anchors another item", i)
}

// merge builds item i's merged value (memoised; chains merge before their
// dependents so position cells can be rewritten through the chain's ranks).
func (g *gatherState) merge(i int) (*bat.BAT, error) {
	if g.mergedD[i] {
		return g.merged[i], nil
	}
	it := g.sp.items[i]
	var chainRanks [][]uint32
	if it.kind == kPos {
		if _, err := g.merge(it.chainIdx); err != nil {
			return nil, err
		}
		chainRanks = g.ranks[it.chainIdx]
	}
	lists := make([][]uint32, g.sp.nshards)
	for s := 0; s < g.sp.nshards; s++ {
		rl, err := g.rowlist(i, s)
		if err != nil {
			return nil, err
		}
		lists[s] = rl
	}
	_, ranks, err := ops.MergeAscending(lists)
	if err != nil {
		return nil, fmt.Errorf("mal: gather item %d: %w", i, err)
	}
	if it.needRank {
		g.ranks[i] = ranks
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	b := bat.New(g.raw[i][0].Name, it.typ, total)
	heap := b.Bytes()
	for s := 0; s < g.sp.nshards; s++ {
		switch it.kind {
		case kData:
			col := g.raw[i][s]
			if col.T == bat.Void {
				// A shard's engine kept the value dense; the compiled plan's
				// type (never Void — compilation degenerates on dense
				// frontiers) says the unsharded run materialised it.
				if it.typ != bat.OID {
					return nil, fmt.Errorf("mal: gather item %d is dense on shard %d but %v overall", i, s, it.typ)
				}
				cells := col.MaterializeOIDs()
				for j, pos := range ranks[s] {
					putCellU32(heap, int(pos), cells[j])
				}
				continue
			}
			if col.T != it.typ {
				return nil, fmt.Errorf("mal: gather item %d is %v on shard %d, want %v", i, col.T, s, it.typ)
			}
			src := col.Bytes()
			for j, pos := range ranks[s] {
				copy(heap[int(pos)*4:int(pos)*4+4], src[j*4:j*4+4])
			}
		case kRow, kPos:
			cells, err := g.cells(i, s)
			if err != nil {
				return nil, err
			}
			gr := g.sp.globalRows[it.tab]
			for j, pos := range ranks[s] {
				var v uint32
				if it.kind == kRow {
					if int(cells[j]) >= len(gr[s]) {
						return nil, fmt.Errorf("mal: gather item %d row id out of range", i)
					}
					v = gr[s][cells[j]]
				} else {
					if int(cells[j]) >= len(chainRanks[s]) {
						return nil, fmt.Errorf("mal: gather item %d position out of range", i)
					}
					v = chainRanks[s][cells[j]]
				}
				putCellU32(heap, int(pos), v)
			}
		}
	}
	b.Props = it.props
	g.merged[i] = b
	g.mergedD[i] = true
	return b, nil
}

func putCellU32(heap []byte, idx int, v uint32) {
	heap[idx*4+0] = byte(v)
	heap[idx*4+1] = byte(v >> 8)
	heap[idx*4+2] = byte(v >> 16)
	heap[idx*4+3] = byte(v >> 24)
}

// Merge runs the merge fragment on the coordinator engine over the gathered
// frontier values and the global base columns, returning the final result.
// The fragment is rebuilt per execution — plan build cost is microseconds
// against kernel time, and merged inputs differ every execution, so caching
// merge templates would never hit.
func (sp *ShardPlan) Merge(o ops.Operators, params Params, gathered map[*bat.BAT]*bat.BAT) (*Result, error) {
	ns := NewSession(o)
	ns.SetPasses(sp.passes)
	ns.SetParams(params)
	return RunQuery(ns, func(ns *Session) *Result {
		r := newReissuer(ns, sp, nil, gathered)
		for _, in := range sp.mergeProg {
			r.emit(in)
		}
		cols := make([]*bat.BAT, len(sp.cols))
		for i, c := range sp.cols {
			cols[i] = r.resolve(c)
		}
		return ns.Result(append([]string(nil), sp.names...), cols...)
	})
}
