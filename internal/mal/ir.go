// Plan IR: the MAL layer's explicit query-plan representation.
//
// A Session no longer dispatches operator calls eagerly. Each fluent call
// (Select, Project, Join, ...) appends a PInstr node to the session's
// pending plan and returns a *placeholder* BAT — a symbolic SSA value that
// later calls reference by pointer identity. The pending DAG is rewritten
// by the pass pipeline (passes.go) and interpreted by the plan executor
// (exec.go) when a value crosses the plan boundary: an explicit Sync, a
// scalar extraction, or the final Result. This mirrors MonetDB's
// architecture, where Ocelot is a *plan rewriter* (§3.1): the same MAL plan
// is built once, then bound to a module and instrumented with sync and
// release instructions before it runs (§3.4).
package mal

import (
	"fmt"
	"strings"

	"repro/internal/bat"
	"repro/internal/ops"
)

// OpKind enumerates plan instruction kinds.
type OpKind int

const (
	OpSelect OpKind = iota
	OpSelectCmp
	OpProject
	OpJoin
	OpThetaJoin
	OpSemiJoin
	OpAntiJoin
	OpGroup
	OpAggr
	OpSort
	OpBinop
	OpBinopConst
	OpUnion
	// OpFused is produced by the fusion pass (fuse.go), never by plan code:
	// a single-exit select→project→binop(→sum/count) region collapsed into
	// one instruction. Fuse describes the region for fusion-capable engines;
	// Sub keeps the member instructions for EXPLAIN and for the unfused
	// fall-back.
	OpFused
	// OpSync and OpRelease are inserted by the rewriter passes, never by
	// plan code: syncs at plan outputs (§3.4), releases at last use.
	OpSync
	OpRelease
)

// PInstr is one plan instruction: an operator application over symbolic
// values (placeholder BATs and base-table BATs), plus the scalar parameters
// of the operator. The rewriter passes stamp Module and (for the hybrid
// configuration) Device onto it; the executor records Took.
type PInstr struct {
	ID   int
	Kind OpKind
	// Module is the MAL module the instruction was bound to by the
	// module-binding pass ("algebra", "batmat", "ocelot").
	Module string
	// Device is the plan-level placement pin for the hybrid configuration —
	// the device label "CPU" or "GPU"; empty for single-device
	// configurations.
	Device string
	// Args are the BAT operands (nil entries allowed, e.g. a nil candidate
	// list). Rets are the placeholder BATs standing for the results.
	Args []*bat.BAT
	Rets []*bat.BAT

	// Operator parameters (used per kind).
	Lo, Hi         float64
	LoIncl, HiIncl bool
	Cmp            ops.Cmp
	Agg            ops.Agg
	Bin            ops.Bin
	C              float64
	ConstFirst     bool

	// Group/Aggr group-count plumbing. Group counts are host integers that
	// only exist after execution, so the session hands plans an opaque
	// negative handle (see encodeSlot) and the instruction records either a
	// literal count (NgrpRef < 0) or the slot the count will come from.
	NgrpLit int
	NgrpRef int
	// NSlot is the slot a Group instruction writes its produced count to
	// (-1 for every other kind).
	NSlot int

	// Params records which scalar fields were bound through Session.Param,
	// so a cached template can re-bind them per execution (cache.go).
	Params []ParamRef

	// Fuse describes an OpFused region over *plan values* (the executor
	// resolves them per execution); Sub are the region's member
	// instructions in plan order, interpreted unfused when the engine
	// cannot run the region as one kernel. Nil for every other kind.
	Fuse *ops.FusedOp
	Sub  []*PInstr
}

// ScalarField names a scalar operand of an instruction that a parameter can
// re-bind.
type ScalarField int

const (
	// FieldLo is Select's lower bound.
	FieldLo ScalarField = iota
	// FieldHi is Select's upper bound.
	FieldHi
	// FieldC is BinopConst's constant.
	FieldC
)

// ParamRef binds one scalar field of an instruction to a named parameter.
type ParamRef struct {
	Field ScalarField
	Name  string
}

// OpName returns the MAL operator label used in traces and EXPLAIN output.
func (in *PInstr) OpName() string {
	switch in.Kind {
	case OpSelect:
		return "select"
	case OpSelectCmp:
		return "selectcmp"
	case OpProject:
		return "leftfetchjoin"
	case OpJoin:
		return "join"
	case OpThetaJoin:
		return "thetajoin"
	case OpSemiJoin:
		return "semijoin"
	case OpAntiJoin:
		return "antijoin"
	case OpGroup:
		return "group"
	case OpAggr:
		return in.Agg.String()
	case OpSort:
		return "sort"
	case OpBinop:
		return "binop" + in.Bin.String()
	case OpBinopConst:
		return "binopconst" + in.Bin.String()
	case OpUnion:
		return "union"
	case OpFused:
		// EXPLAIN prints the fused region with its member operators.
		names := make([]string, len(in.Sub))
		for i, m := range in.Sub {
			names[i] = m.OpName()
		}
		return "fused{" + strings.Join(names, ";") + "}"
	case OpSync:
		return "sync"
	case OpRelease:
		return "release"
	default:
		return fmt.Sprintf("op(%d)", int(in.Kind))
	}
}

// PlaceKey returns the operator key the hybrid engine's placement counters
// use (hybrid.Engine.note), so plan-level pins can be cross-checked against
// the recorded placements (exported for cross-package accounting tests and
// tools).
func (in *PInstr) PlaceKey() string { return in.placeKey() }

func (in *PInstr) placeKey() string {
	switch in.Kind {
	case OpBinop:
		return "binop"
	case OpBinopConst:
		return "binopconst"
	case OpFused:
		return "fused"
	default:
		return in.OpName()
	}
}

// computes reports whether the instruction runs an operator kernel (as
// opposed to the sync/release bookkeeping the rewriter inserted).
func (in *PInstr) computes() bool {
	return in.Kind != OpSync && in.Kind != OpRelease
}

// paramsKey renders the scalar parameters for common-subexpression keying.
func (in *PInstr) paramsKey() string {
	switch in.Kind {
	case OpSelect:
		return fmt.Sprintf("%v|%v|%v|%v", in.Lo, in.Hi, in.LoIncl, in.HiIncl)
	case OpSelectCmp, OpThetaJoin:
		return fmt.Sprint(int(in.Cmp))
	case OpAggr:
		return fmt.Sprint(int(in.Agg))
	case OpBinop:
		return fmt.Sprint(int(in.Bin))
	case OpBinopConst:
		return fmt.Sprintf("%d|%v|%v", int(in.Bin), in.C, in.ConstFirst)
	default:
		return ""
	}
}

// encodeSlot wraps a group-count slot index into the opaque negative handle
// Group returns to plan code. Handles are always <= -2, so they can never
// collide with a literal group count (which is >= 0); plans must thread the
// handle through to Group/Aggr unchanged rather than doing arithmetic on it.
func encodeSlot(slot int) int { return -(slot + 2) }

// decodeSlot recovers the slot index, or -1 when n is a literal count.
func decodeSlot(n int) int {
	if n <= -2 {
		return -n - 2
	}
	return -1
}
