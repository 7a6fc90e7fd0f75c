// EXPLAIN rendering: the before-rewriting plan (as built by the fluent
// API), the after-rewriting plan (module-bound, CSE/DCE-reduced, gather
// chains moved under their candidate lists, with the inserted sync and
// release instructions and hybrid placement pins), and the honest timing
// summary.
package mal

import (
	"fmt"
	"strings"
	"time"
)

// TimingLabel names what the per-instruction Took column actually measures
// for the bound engine: lazy engines (those exposing Finish) return from an
// operator call once the work is *enqueued*, eager engines once it has
// *executed*. EXPLAIN output labels the column accordingly instead of
// presenting enqueue latencies as execution times.
func (e *Execution) TimingLabel() string {
	if _, lazy := e.o.(interface{ Finish() error }); lazy {
		return "t_enqueue"
	}
	return "t_exec"
}

// PlanWall returns the wall-clock span of the whole plan, from the first
// interpreted instruction to the end of the final flush (which drains the
// engine) — the end-to-end number that is comparable across lazy and eager
// engines, unlike the per-instruction column.
func (e *Execution) PlanWall() time.Duration {
	if e.firstExec.IsZero() {
		return 0
	}
	return e.lastExec.Sub(e.firstExec)
}

// rawName renders a plan value symbolically (placeholders keep their tN
// names; base BATs their column names).
func rawName(in *PInstr, i int) string {
	if i >= len(in.Args) || in.Args[i] == nil {
		return "nil"
	}
	return in.Args[i].Name
}

// rawInstr renders one as-built instruction with the neutral pre-rewrite
// module label ("algebra" — the module MonetDB's plans carry before
// Ocelot's rewriter rebinds them).
func rawInstr(in *PInstr) string {
	args := make([]string, 0, len(in.Args)+1)
	switch in.Kind {
	case OpSelect:
		args = append(args, rawName(in, 0), rawName(in, 1), fmt.Sprintf("%v..%v", in.Lo, in.Hi))
	case OpSelectCmp, OpThetaJoin:
		args = append(args, rawName(in, 0), in.Cmp.String(), rawName(in, 1))
	case OpBinopConst:
		args = append(args, rawName(in, 0), fmt.Sprint(in.C))
	default:
		for i := range in.Args {
			args = append(args, rawName(in, i))
		}
	}
	rets := make([]string, len(in.Rets))
	for i, r := range in.Rets {
		rets[i] = r.Name
	}
	ret := strings.Join(rets, ", ")
	if ret == "" {
		ret = "_"
	}
	return fmt.Sprintf("%s := algebra.%s(%s)", ret, in.OpName(), strings.Join(args, ", "))
}

// ExplainBefore renders the plan exactly as the fluent API built it, before
// any rewriter pass ran: no module binding, no CSE/DCE, no sync or release
// instructions, no placement pins.
func (s *Session) ExplainBefore() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan before rewriting (%d instructions):\n", len(s.raw))
	for _, in := range s.raw {
		fmt.Fprintf(&sb, "    %s\n", rawInstr(in))
	}
	return sb.String()
}

// Explain renders the executed, rewritten plan with per-instruction
// latencies (honestly labelled), their sum — instructions run one at a
// time, so the sum is the schedule — and the end-to-end wall time.
func (e *Execution) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan after rewriting (%d instructions, %s per instruction):\n",
		len(e.trace), e.TimingLabel())
	for _, in := range e.trace {
		fmt.Fprintf(&sb, "    %-72s %12v\n", in.String(), in.Took.Round(time.Nanosecond))
	}
	fmt.Fprintf(&sb, "    dispatch: %v summed\n", e.OpTime().Round(time.Microsecond))
	fmt.Fprintf(&sb, "    plan wall time (through final sync/finish): %v\n",
		e.PlanWall().Round(time.Microsecond))
	return sb.String()
}
