package mal

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bat"
)

// Result is a query result set: named, equally long columns, synchronised
// to host memory (the rewriter inserts the sync before returning results,
// §3.4).
type Result struct {
	Names []string
	Cols  []*bat.BAT
}

// Result builds the plan's result set. It is the plan's final flush: the
// columns become the liveness roots of the rewriter's dead-instruction
// elimination and early-release passes, the sync-insertion pass emits one
// Sync per column (§3.4), and the rewritten plan runs through the executor.
// The run then ends the way every replay of its template ends
// (Execution.finish).
func (s *Session) Result(names []string, cols ...*bat.BAT) *Result {
	if len(names) != len(cols) {
		s.fail("result", fmt.Errorf("%d names for %d columns", len(names), len(cols)))
	}
	for _, c := range cols {
		s.markOutput(c)
	}
	s.flush(true)
	s.tpl.names = append([]string(nil), names...)
	s.tpl.cols = append([]*bat.BAT(nil), cols...)
	return s.finish()
}

// Rows returns the result's row count.
func (r *Result) Rows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// cell returns column c, row i as a comparable float64.
func (r *Result) cell(c, i int) float64 {
	b := r.Cols[c]
	switch b.T {
	case bat.I32:
		return float64(b.I32s()[i])
	case bat.F32:
		return float64(b.F32s()[i])
	case bat.OID:
		return float64(b.OIDs()[i])
	case bat.Void:
		return float64(b.OIDAt(i))
	default:
		// Unreachable through RunQuery and Template.Run: Execution.finish
		// validates column types inside the plan, where the failure becomes
		// an error.
		panic(fmt.Sprintf("mal: unknown result column type %v for %q", b.T, b.Name))
	}
}

// Canonical returns the result's rows sorted lexicographically — query
// results are compared across configurations order-insensitively, since the
// modified workload removed most sort clauses (Appendix A).
func (r *Result) Canonical() [][]float64 {
	n := r.Rows()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, len(r.Cols))
		for c := range r.Cols {
			row[c] = r.cell(c, i)
		}
		rows[i] = row
	}
	sort.Slice(rows, func(i, j int) bool {
		for c := range rows[i] {
			if rows[i][c] != rows[j][c] {
				return rows[i][c] < rows[j][c]
			}
		}
		return false
	})
	return rows
}

// EqualWithin compares two results after canonicalisation, tolerating rel
// relative error on float columns (the engines accumulate in different
// precisions — §3.1's four-byte restriction vs. the baselines' wide
// accumulators).
func (r *Result) EqualWithin(other *Result, rel float64) error {
	if r.Rows() != other.Rows() {
		return fmt.Errorf("row counts differ: %d vs %d", r.Rows(), other.Rows())
	}
	if len(r.Cols) != len(other.Cols) {
		return fmt.Errorf("column counts differ: %d vs %d", len(r.Cols), len(other.Cols))
	}
	a, b := r.Canonical(), other.Canonical()
	for i := range a {
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x == y {
				continue
			}
			if math.Abs(x-y)/(math.Max(math.Abs(x), math.Abs(y))+1e-9) > rel {
				return fmt.Errorf("row %d col %d (%s): %v vs %v", i, c, r.Names[c], x, y)
			}
		}
	}
	return nil
}

// String renders up to 10 rows for display.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", strings.Join(r.Names, "\t"))
	n := r.Rows()
	shown := n
	if shown > 10 {
		shown = 10
	}
	for i := 0; i < shown; i++ {
		cells := make([]string, len(r.Cols))
		for c := range r.Cols {
			if r.Cols[c].T == bat.F32 {
				cells[c] = fmt.Sprintf("%.4f", r.cell(c, i))
			} else {
				cells[c] = fmt.Sprintf("%.0f", r.cell(c, i))
			}
		}
		fmt.Fprintf(&sb, "%s\n", strings.Join(cells, "\t"))
	}
	if shown < n {
		fmt.Fprintf(&sb, "... (%d rows total)\n", n)
	}
	return sb.String()
}

// RunQuery executes a plan under the given session, translating plan aborts
// into errors and releasing intermediates. After the plan function returns,
// any instructions no boundary ever forced (a plan that built work but
// never synced it) are drained so their errors still surface.
func RunQuery(s *Session, plan func(*Session) *Result) (res *Result, err error) {
	err = s.run(func() {
		res = plan(s)
		s.drain()
	})
	return res, err
}
