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

import (
	"fmt"
	"maps"
)

// AppendDelta appends delta's rows to the table. delta must carry exactly
// the table's columns with matching types. The append is copy-on-write:
// every column gets a fresh BAT whose heap is the old heap plus the delta,
// and the whole column set is swapped in one critical section, so
// concurrent readers see either the old column set or the new one, never a
// mix.
func (t *Table) AppendDelta(delta *Table) {
	delta.mu.RLock()
	dcols := maps.Clone(delta.Cols)
	delta.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(dcols) != len(t.Cols) {
		panic(fmt.Sprintf("table %s: append delta has %d columns, want %d", t.Name, len(dcols), len(t.Cols)))
	}
	newCols := make(map[string]*BAT, len(t.Cols))
	for name, old := range t.Cols {
		d, ok := dcols[name]
		if !ok {
			panic(fmt.Sprintf("table %s: append delta missing column %q", t.Name, name))
		}
		if d.T != old.T {
			panic(fmt.Sprintf("table %s: append delta column %q is %v, want %v", t.Name, name, d.T, old.T))
		}
		newCols[name] = appendCol(old, d)
	}
	t.Cols = newCols
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
