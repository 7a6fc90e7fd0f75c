// Incremental ingest over Tables: appends arrive as column deltas and are
// made visible copy-on-append — every append builds fresh column BATs (old
// heap plus delta) and swaps the table's column set atomically under the
// table lock. Readers that resolved columns before the swap keep reading the
// old immutable BATs (a consistent snapshot — no torn reads), readers that
// re-resolve see the new columns. The old BATs are not freed here: in-flight
// plans may still hold them; they are reclaimed by GC once the last reader
// drops them. A table keeps no version of its own: whoever caches work
// derived from it learns of an append through the catalog version the
// ingest publishes (mal.Catalog), which retires templates baked against the
// old BATs.
package bat

import "fmt"

// TableView is a consistent snapshot of a table: the complete column set
// between two appends. Host code that reads several columns of a table that
// may be ingesting concurrently must take one View and read through it,
// rather than calling Col repeatedly across an append boundary.
type TableView struct {
	Name string
	Rows int
	Cols map[string]*BAT
}

// View returns a consistent snapshot of the table's columns.
func (t *Table) View() *TableView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := &TableView{Name: t.Name, Cols: make(map[string]*BAT, len(t.Cols))}
	for name, b := range t.Cols {
		v.Cols[name] = b
	}
	if len(t.Order) > 0 {
		v.Rows = t.Cols[t.Order[0]].Len()
	}
	return v
}

// Col returns a snapshot column, panicking on unknown names like Table.Col.
func (v *TableView) Col(name string) *BAT {
	b, ok := v.Cols[name]
	if !ok {
		panic(fmt.Sprintf("table %s (view): no column %q", v.Name, name))
	}
	return b
}

// AppendDelta appends delta's rows to the table. delta must carry exactly
// the table's columns with matching types. For a shard table (GlobalRows non-nil) globalRows supplies the
// logical row ids of the appended rows, in append order; unsharded tables
// pass nil. The append is copy-on-write: every column gets a fresh BAT whose
// heap is the old heap plus the delta, and the whole column set is swapped
// in one critical section, so concurrent readers see either the old column
// set or the new one, never a mix.
func (t *Table) AppendDelta(delta *Table, globalRows []uint32) {
	dv := delta.View()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(dv.Cols) != len(t.Cols) {
		panic(fmt.Sprintf("table %s: append delta has %d columns, want %d", t.Name, len(dv.Cols), len(t.Cols)))
	}
	if t.GlobalRows != nil && len(globalRows) != dv.Rows {
		panic(fmt.Sprintf("table %s: append of %d rows with %d global row ids", t.Name, dv.Rows, len(globalRows)))
	}
	newCols := make(map[string]*BAT, len(t.Cols))
	for name, old := range t.Cols {
		d, ok := dv.Cols[name]
		if !ok {
			panic(fmt.Sprintf("table %s: append delta missing column %q", t.Name, name))
		}
		if d.T != old.T {
			panic(fmt.Sprintf("table %s: append delta column %q is %v, want %v", t.Name, name, d.T, old.T))
		}
		newCols[name] = appendCol(old, d)
	}
	t.Cols = newCols
	if t.GlobalRows != nil {
		t.GlobalRows = append(t.GlobalRows[:len(t.GlobalRows):len(t.GlobalRows)], globalRows...)
	}
}

// appendCol builds the appended column: old's heap plus delta's, with
// conservatively recomputed properties. Sortedness survives when both runs
// are sorted and the boundary is ordered; uniqueness cannot be verified
// cheaply across the boundary and is dropped (under-claiming properties is
// always safe).
func appendCol(old, delta *BAT) *BAT {
	n := old.Len() + delta.Len()
	nb := New(old.Name, old.T, n)
	nb.Seq = old.Seq
	nb.TableName = old.TableName
	nb.PosInto = old.PosInto
	nb.Stats = old.Stats // load-time estimates; stale but only steers placement
	if old.T != Void {
		w := old.T.Width()
		copy(nb.heap, old.heap[:old.Len()*w])
		copy(nb.heap[old.Len()*w:], delta.heap[:delta.Len()*w])
	}
	switch old.T {
	case Void:
		// Dense stays dense: the appended run continues the sequence.
	default:
		sorted := false
		if old.Props.Sorted && delta.Props.Sorted {
			sorted = old.Len() == 0 || delta.Len() == 0 || boundaryOrdered(old, delta)
		}
		nb.Props = Properties{Sorted: sorted}
	}
	return nb
}

func boundaryOrdered(old, delta *BAT) bool {
	switch old.T {
	case I32:
		return old.I32s()[old.Len()-1] <= delta.I32s()[0]
	case F32:
		return old.F32s()[old.Len()-1] <= delta.F32s()[0]
	case OID:
		return old.OIDs()[old.Len()-1] <= delta.OIDs()[0]
	}
	return false
}

// LocalRowOf maps a logical (global) row id to this shard's local row index
// via binary search over the ascending GlobalRows map, or -1 when the row
// lives on another shard.
func (t *Table) LocalRowOf(global uint32) int {
	t.mu.RLock()
	g := t.GlobalRows
	t.mu.RUnlock()
	lo, hi := 0, len(g)
	for lo < hi {
		mid := (lo + hi) / 2
		if g[mid] < global {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g) && g[lo] == global {
		return lo
	}
	return -1
}

// GlobalRowsSnapshot returns the current global-row map (shared, read-only).
func (t *Table) GlobalRowsSnapshot() []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.GlobalRows
}
