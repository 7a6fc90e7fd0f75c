// Package ops defines the engine-neutral operator contract shared by the
// hand-tuned MonetDB baselines (internal/monet) and the hardware-oblivious
// Ocelot engine (internal/core). It is the Go rendering of the paper's
// drop-in-replacement design (§3.1): the MAL execution layer binds a query
// plan to one Operators implementation, and the Ocelot query rewriter simply
// swaps which implementation the plan's calls route to.
//
// The operator set covers what the paper's prototype supports (§3.1):
// selection, projection, join, grouping and aggregation over four-byte
// integer and floating-point columns, plus sorting and the arithmetic map
// operations the TPC-H workload needs.
package ops

import (
	"errors"
	"fmt"

	"repro/internal/bat"
)

// Agg enumerates aggregate functions.
type Agg int

const (
	Sum Agg = iota
	Count
	Min
	Max
	Avg
)

// String returns the SQL name of the aggregate.
func (a Agg) String() string {
	switch a {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Bin enumerates binary arithmetic map operations.
type Bin int

const (
	Add Bin = iota
	SubOp
	Mul
	Div
)

// String returns the operator symbol.
func (b Bin) String() string {
	switch b {
	case Add:
		return "+"
	case SubOp:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	default:
		return fmt.Sprintf("Bin(%d)", int(b))
	}
}

// Cmp enumerates comparison operators for column-vs-column selections.
type Cmp int

const (
	Lt Cmp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String returns the operator symbol.
func (c Cmp) String() string {
	switch c {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Cmp(%d)", int(c))
	}
}

// HashTable is an opaque handle to a built hash lookup table. The Ocelot
// Memory Manager caches hash tables of base columns (§5.2.6: "we maintain a
// cache of all built hash tables of base tables").
type HashTable interface {
	// BuildRows returns the number of rows the table was built over.
	BuildRows() int
	// Release drops the table's resources.
	Release()
}

// Operators is the operator set one engine configuration provides. All
// column arguments are BATs; "cand" arguments are candidate lists (OID or
// Void BATs) restricting which rows of col participate — nil means all rows.
// Selections return candidate lists; projections return value columns
// aligned with their candidate input.
//
// Engines with deferred (lazy) execution return BATs whose heaps may not yet
// be host-visible; Sync must be called before host code reads them (§3.4's
// ownership rule). The MonetDB baselines execute eagerly and Sync is a no-op.
type Operators interface {
	// Name identifies the configuration ("MonetDB sequential", "Ocelot[GPU]").
	Name() string

	// Module is the MAL module label the query rewriter binds this
	// implementation's calls to ("algebra", "batmat", "ocelot"). The plan
	// rewriter stamps it on every bound instruction.
	Module() string

	// Select returns the oids of rows in cand where lo ⋞ col[oid] ⋞ hi,
	// with bound inclusivity given by loIncl/hiIncl. Bounds are passed as
	// float64 and converted to the column type (both Ocelot types fit).
	// Use -inf/+inf bounds for half-open ranges.
	Select(col, cand *bat.BAT, lo, hi float64, loIncl, hiIncl bool) (*bat.BAT, error)

	// SelectCmp returns the oids in cand where a[oid] ⟨cmp⟩ b[oid] holds;
	// a and b must be aligned columns of the same length.
	SelectCmp(a, b *bat.BAT, cmp Cmp, cand *bat.BAT) (*bat.BAT, error)

	// Project fetches col values at the positions in cand (MonetDB's
	// leftfetchjoin, §5.2.2). A Void cand makes it a slice/copy.
	Project(cand, col *bat.BAT) (*bat.BAT, error)

	// Join equi-joins the values of l and r and returns aligned candidate
	// lists (positions into l, positions into r) for every match pair.
	Join(l, r *bat.BAT) (lres, rres *bat.BAT, err error)

	// ThetaJoin joins l and r under an inequality predicate
	// (l[i] ⟨cmp⟩ r[j]) via nested loops — the paper's fallback for
	// non-equi joins (§4.1.5). Quadratic; intended for small inputs.
	ThetaJoin(l, r *bat.BAT, cmp Cmp) (lres, rres *bat.BAT, err error)

	// SemiJoin returns the positions of l whose value has at least one
	// match in r (EXISTS).
	SemiJoin(l, r *bat.BAT) (*bat.BAT, error)

	// AntiJoin returns the positions of l whose value has no match in r
	// (NOT EXISTS).
	AntiJoin(l, r *bat.BAT) (*bat.BAT, error)

	// BuildHash builds a hash lookup table over col's values (Fig. 5e/f).
	BuildHash(col *bat.BAT) (HashTable, error)

	// HashProbe probes ht with probe's values and returns aligned candidate
	// lists (positions into probe, positions into the build column). This
	// is the probe phase measured in Fig. 5i (build time excluded).
	HashProbe(probe *bat.BAT, ht HashTable) (pres, bres *bat.BAT, err error)

	// Group assigns dense group ids to col's values, refining a previous
	// grouping (grp, ngrp) when grp is non-nil — the paper's recursive
	// multi-column grouping (§4.1.6). Returns the id column and the number
	// of groups.
	Group(col, grp *bat.BAT, ngrp int) (*bat.BAT, int, error)

	// Aggr computes the aggregate of vals per group (groups/ngroups), or a
	// single scalar (1-row BAT) when groups is nil. vals may be nil for
	// Count.
	Aggr(kind Agg, vals, groups *bat.BAT, ngroups int) (*bat.BAT, error)

	// Sort orders col ascending and returns the sorted column plus the
	// order (a candidate list that maps output position → input position,
	// usable with Project to align other columns).
	Sort(col *bat.BAT) (sorted, order *bat.BAT, err error)

	// Binop computes a ⟨op⟩ b element-wise; mixed I32/F32 inputs promote to
	// F32.
	Binop(op Bin, a, b *bat.BAT) (*bat.BAT, error)

	// BinopConst computes a ⟨op⟩ c (or c ⟨op⟩ a when constFirst) per element.
	BinopConst(op Bin, a *bat.BAT, c float64, constFirst bool) (*bat.BAT, error)

	// OIDUnion merges two sorted candidate lists, deduplicating — the ∨
	// combine of disjunctive predicates (Figure 3's union).
	OIDUnion(a, b *bat.BAT) (*bat.BAT, error)

	// Sync makes b host-visible and hands ownership back to MonetDB
	// (§3.4). No-op for eager engines.
	Sync(b *bat.BAT) error

	// Release hints that an intermediate BAT is dead, letting the engine
	// free device resources early.
	Release(b *bat.BAT)
}

// --- Operator fusion ---
//
// A FusedOp describes a region of a query plan that a fusion-capable engine
// executes as one short kernel chain instead of one kernel and one
// intermediate column per member operator: either a single-exit region — a
// conjunction of selections over one base domain, an expression tree over
// columns projected through that selection, and optionally a terminal scalar
// aggregate, evaluated per element in registers — or a grouped region, a
// chain of groupings and the aggregates over its ids, folded by key code.

// ErrFusedUnsupported is returned by FusedOperators.Fused when the engine
// cannot run this particular region as a fused kernel (for example the
// incoming candidate resolved to a materialised oid list, or operand shapes
// do not line up). The sentinel must be returned before any device work was
// enqueued; the caller then falls back to executing the region's member
// operators unfused.
var ErrFusedUnsupported = errors.New("ops: fused region not supported; execute the member operators instead")

// FusedNodeKind enumerates fused-expression node kinds.
type FusedNodeKind int

const (
	// FusedCol is a column leaf.
	FusedCol FusedNodeKind = iota
	// FusedConst is a scalar constant leaf.
	FusedConst
	// FusedBin is a binary arithmetic node over two child nodes.
	FusedBin
)

// FusedNode is one node of a fused expression tree, stored in a flat slice
// in topological order: children precede their parent, and the last node is
// the root whose value the region produces.
type FusedNode struct {
	Kind FusedNodeKind
	// Col is the source column of a FusedCol leaf. With Aligned false the
	// leaf reads Col at the *domain row* driving the output position — the
	// fused equivalent of projecting Col through the region's candidate.
	// With Aligned true it reads Col at the output position directly: an
	// input column that is already aligned with the region's candidate
	// (only meaningful when the region carries no filters).
	Col     *bat.BAT
	Aligned bool
	// C is the constant of a FusedConst leaf. Its type follows the unfused
	// BinopConst promotion rule: integral constants stay integer next to an
	// integer operand, everything else promotes the node to float.
	C float64
	// Bin combines Nodes[L] ⟨Bin⟩ Nodes[R] for a FusedBin node.
	Bin  Bin
	L, R int
}

// FusedFilter is one conjunct of a fused selection. All filter columns of a
// region span the same base domain; the conjunction is evaluated in a single
// pass with the same bound conventions as Select / SelectCmp.
type FusedFilter struct {
	Col *bat.BAT
	// Range predicate (IsCmp false): Lo ⋞ Col[r] ⋞ Hi.
	Lo, Hi         float64
	LoIncl, HiIncl bool
	// Column comparison (IsCmp true): Col[r] ⟨Cmp⟩ Other[r].
	IsCmp bool
	Other *bat.BAT
	Cmp   Cmp
}

// FusedOp is the engine-neutral descriptor of one fusible region. What
// escapes the region depends on its shape:
//
//   - Filters only (no Nodes): a candidate list — the one-kernel conjunction
//     of the member selections;
//   - Nodes, no aggregate: a value column aligned with the region's
//     candidate (the member projections and arithmetic, fused);
//   - HasAgg: a 1-row scalar aggregate (Sum or Count) of the expression;
//   - Keys (a grouped region): one column per entry of Aggs — what
//     Group(Keys[0], nil, 0), then Group(Keys[j], ids, ngroups) for each
//     later key, then Aggr over the last ids would return. The ids and group
//     counts never escape.
type FusedOp struct {
	// Cand restricts the domain exactly like a candidate-list argument:
	// nil means all rows. With Filters present it is ANDed into the fused
	// selection; without Filters it drives which rows feed the expression.
	Cand    *bat.BAT
	Filters []FusedFilter
	Nodes   []FusedNode
	// HasAgg marks a terminal scalar aggregation; Agg is Sum or Count.
	HasAgg bool
	Agg    Agg
	// Keys are a grouped region's key columns, the first link of its chain
	// of groupings first; Aggs are the aggregates over the chain's ids, in
	// plan order.
	Keys []*bat.BAT
	Aggs []FusedAgg
}

// FusedAgg is one aggregate of a grouped region: Kind over Vals, which is
// nil for Count.
type FusedAgg struct {
	Kind Agg
	Vals *bat.BAT
}

// Inputs returns every column BAT the region reads (deduplicated, nil-free)
// — what a placement layer must make resident before running the region.
func (f *FusedOp) Inputs() []*bat.BAT {
	seen := map[*bat.BAT]bool{}
	var out []*bat.BAT
	add := func(b *bat.BAT) {
		if b != nil && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	add(f.Cand)
	for _, fl := range f.Filters {
		add(fl.Col)
		add(fl.Other)
	}
	for _, n := range f.Nodes {
		if n.Kind == FusedCol {
			add(n.Col)
		}
	}
	for _, k := range f.Keys {
		add(k)
	}
	for _, a := range f.Aggs {
		add(a.Vals)
	}
	return out
}

// FusedOperators is implemented by engines that can collapse a fused region
// into a single generated kernel chain. The MonetDB baselines do not
// implement it: plans bound to them keep the unfused member operators, which
// is the fall-back contract — a rewriter only fuses when the bound engine
// advertises support, and an engine returning ErrFusedUnsupported at run
// time sends the executor back to the members.
type FusedOperators interface {
	Operators

	// Fused executes the region and returns its escaping values (see
	// FusedOp): one, or one per aggregate of a grouped region. Engines must
	// produce results bit-identical to running the member operators unfused.
	Fused(op *FusedOp) ([]*bat.BAT, error)
}

// EmptyAggr is the zero-group aggregate result: a grouped aggregate over an
// empty input (every row filtered out upstream — routine on skewed data)
// has no groups and therefore an empty, correctly-typed output. Engines
// call this instead of erroring when ngroups == 0 and the input is empty;
// ngroups == 0 with surviving rows remains a plan bug and must still fail.
func EmptyAggr(kind Agg, vals *bat.BAT) *bat.BAT {
	t := bat.I32
	switch {
	case kind == Count:
		t = bat.I32
	case kind == Avg:
		t = bat.F32
	case vals != nil:
		t = vals.T
	}
	return bat.New(kind.String(), t, 0)
}
