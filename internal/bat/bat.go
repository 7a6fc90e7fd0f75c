// Package bat implements the MonetDB storage substrate Ocelot plugs into:
// Binary Association Tables (BATs), the two-column (head, tail) structures
// every MonetDB operator consumes and produces [Boncz et al., CACM 2008].
//
// As in modern MonetDB, the head column is always VOID (a dense sequence of
// object ids), so a BAT is effectively one typed tail column plus metadata.
// Ocelot restricts itself to four-byte tail types (§3.1 of the paper):
// 32-bit integers, 32-bit floats, and OIDs (row identifiers).
//
// Two details from the paper's MonetDB integration (§4.3) are first-class
// here: the descriptor carries an "owned by Ocelot" flag used to enforce the
// strict data-ownership rules of §3.4, and the storage layer notifies
// registered listeners when BATs are freed so the Ocelot Memory Manager can
// drop the corresponding device buffers from its cache. Heaps are 128-byte
// aligned (the Intel-SDK requirement the paper patched into MonetDB).
package bat

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// Type identifies the tail type of a BAT.
type Type int

const (
	// Void is a dense sequence: tail value at position i is Seq+i. It has
	// no heap. MonetDB uses it for head columns and for dense candidate
	// lists; fetch joins against Void inputs are free.
	Void Type = iota
	// OID is a materialised list of row identifiers (uint32).
	OID
	// I32 is a 32-bit signed integer column.
	I32
	// F32 is a 32-bit float column (the paper replaces all TPC-H DECIMALs
	// with REAL, Appendix A).
	F32
)

// Width returns the tail width in bytes (0 for Void).
func (t Type) Width() int {
	if t == Void {
		return 0
	}
	return 4
}

// String returns the MonetDB-style type name.
func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case OID:
		return "oid"
	case I32:
		return "int"
	case F32:
		return "flt"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Properties are the column facts MonetDB tracks on every BAT descriptor and
// that both engines exploit: sortedness enables the sorted group-by path,
// Key enables known-cardinality joins, Dense marks OID columns that are a
// contiguous run.
type Properties struct {
	// Sorted means tail values are non-decreasing.
	Sorted bool
	// RevSorted means tail values are non-increasing.
	RevSorted bool
	// Key means tail values are unique.
	Key bool
	// Dense means the OID tail is the contiguous run Seq, Seq+1, ... It
	// implies Sorted and Key.
	Dense bool
}

// BAT is a Binary Association Table descriptor plus its tail heap.
type BAT struct {
	// Name is a diagnostic label ("lineitem_extendedprice").
	Name string
	// T is the tail type.
	T Type
	// Seq is the first head oid, and for Void/Dense tails the first tail
	// value.
	Seq uint32
	// Props are the tracked column properties.
	Props Properties
	// OcelotOwned mirrors the descriptor flag the paper added to MonetDB
	// (§4.3): while set, the BAT is a descriptor only — it has a type and a
	// count but no tail heap; the values live in a device buffer the Ocelot
	// Memory Manager owns, and MonetDB code must not read the BAT until an
	// explicit sync hands a heap over (HandOver) and with it the ownership
	// (§3.4).
	OcelotOwned bool
	// TableName names the Table this BAT is a base column of (stamped by
	// Table.Add), or "" for plan intermediates and free-standing BATs. A
	// sealed template lists the tables its plan read by it, and those
	// tables' catalog versions decide whether the template is current.
	TableName string

	count int
	heap  []byte // aligned tail heap; nil for Void

	freed atomic.Bool
}

// registry of storage-event listeners (the paper's §4.3 callbacks: "we added
// callbacks to our Memory Manager when BATs are deleted or recycled").
var (
	listenerMu sync.RWMutex
	listeners  []func(*BAT)
)

// OnFree registers a callback invoked whenever a BAT is freed or recycled.
// The Ocelot Memory Manager uses it to drop device-cache entries eagerly.
func OnFree(fn func(*BAT)) {
	listenerMu.Lock()
	defer listenerMu.Unlock()
	listeners = append(listeners, fn)
}

// New allocates a BAT with an uninitialised (zeroed) tail heap of n values.
func New(name string, t Type, n int) *BAT {
	if n < 0 {
		panic("bat: negative count")
	}
	b := &BAT{Name: name, T: t, count: n}
	if t != Void {
		b.heap = mem.Alloc(n * t.Width())
	}
	if t == Void {
		b.Props = Properties{Sorted: true, Key: true, Dense: true}
	}
	return b
}

// NewOcelotOwned returns the descriptor of an n-value result held in a device
// buffer: OcelotOwned is set and there is no heap until HandOver supplies one.
func NewOcelotOwned(name string, t Type, n int) *BAT {
	if n < 0 {
		panic("bat: negative count")
	}
	return &BAT{Name: name, T: t, count: n, OcelotOwned: true}
}

// HandOver ends Ocelot's ownership of b: heap, holding b's values in its
// first Len()*Width bytes, becomes the tail heap. The engine's sync calls it
// once the values have landed; heap must be Align-aligned and is b's from
// here on.
func (b *BAT) HandOver(heap []byte) {
	n := b.count * b.T.Width()
	if len(heap) < n || !mem.Aligned(heap) {
		panic(fmt.Sprintf("bat %q: handed a %d-byte heap (aligned=%v) for %d values", b.Name, len(heap), mem.Aligned(heap), b.count))
	}
	b.heap = heap[:n:n]
	b.OcelotOwned = false
}

// NewVoid returns a dense BAT of n oids starting at seq — MonetDB's VOID
// column, used for head columns and dense candidate lists.
func NewVoid(name string, seq uint32, n int) *BAT {
	b := New(name, Void, n)
	b.Seq = seq
	return b
}

// NewI32 wraps an int32 slice as a BAT without copying. The slice should
// come from mem.AllocI32 for alignment; unaligned input is copied.
func NewI32(name string, vals []int32) *BAT {
	return wrap(name, I32, mem.BytesOfI32(vals))
}

// NewF32 wraps a float32 slice as a BAT without copying.
func NewF32(name string, vals []float32) *BAT {
	return wrap(name, F32, mem.BytesOfF32(vals))
}

// NewOID wraps a uint32 oid slice as a BAT without copying.
func NewOID(name string, vals []uint32) *BAT {
	return wrap(name, OID, mem.BytesOfU32(vals))
}

func wrap(name string, t Type, raw []byte) *BAT {
	if !mem.Aligned(raw) {
		cp := mem.Alloc(len(raw))
		copy(cp, raw)
		raw = cp
	}
	return &BAT{Name: name, T: t, count: len(raw) / t.Width(), heap: raw}
}

// Len returns the number of values in the BAT.
func (b *BAT) Len() int { return b.count }

// Bytes returns the raw tail heap (nil for Void).
func (b *BAT) Bytes() []byte { return b.heap }

// I32s views the tail as []int32. Panics if the tail type differs.
func (b *BAT) I32s() []int32 {
	b.mustBe(I32)
	return mem.I32(b.heap)[:b.count:b.count]
}

// F32s views the tail as []float32.
func (b *BAT) F32s() []float32 {
	b.mustBe(F32)
	return mem.F32(b.heap)[:b.count:b.count]
}

// OIDs views the tail as []uint32 row ids.
func (b *BAT) OIDs() []uint32 {
	b.mustBe(OID)
	return mem.U32(b.heap)[:b.count:b.count]
}

func (b *BAT) mustBe(t Type) {
	if b.T != t {
		panic(fmt.Sprintf("bat %q: tail is %v, accessed as %v", b.Name, b.T, t))
	}
	if b.count == 0 {
		return
	}
	if b.heap == nil {
		panic(fmt.Sprintf("bat %q: no heap", b.Name))
	}
}

// OIDAt returns the oid at position i, handling both Void (dense) and
// materialised OID tails.
func (b *BAT) OIDAt(i int) uint32 {
	switch b.T {
	case Void:
		return b.Seq + uint32(i)
	case OID:
		return b.OIDs()[i]
	default:
		panic(fmt.Sprintf("bat %q: OIDAt on %v tail", b.Name, b.T))
	}
}

// MaterializeOIDs returns the tail as a materialised oid slice, expanding a
// Void tail into Seq..Seq+n-1. This is MonetDB's VOID→OID coercion.
func (b *BAT) MaterializeOIDs() []uint32 {
	if b.T == OID {
		return b.OIDs()
	}
	if b.T != Void {
		panic(fmt.Sprintf("bat %q: MaterializeOIDs on %v tail", b.Name, b.T))
	}
	out := mem.AllocU32(b.count)
	for i := range out {
		out[i] = b.Seq + uint32(i)
	}
	return out
}

// AdoptFrom rebinds b's descriptor and heap to src's, making b an alias of
// src's tail. The MAL plan executor uses it at sync points: plan code holds
// placeholder BATs (symbolic plan values), and when a result crosses the
// plan boundary the placeholder adopts the concrete BAT the engine handed
// back, so host code reading the placeholder sees the synced data. The
// fields are copied individually because the descriptor embeds an atomic
// free flag that must not be duplicated.
func (b *BAT) AdoptFrom(src *BAT) {
	if src == nil || b == src {
		return
	}
	b.Name = src.Name
	b.T = src.T
	b.Seq = src.Seq
	b.Props = src.Props
	b.OcelotOwned = src.OcelotOwned
	b.count = src.count
	b.heap = src.heap
}

// HeapBytes returns the heap size in bytes (what a device buffer for this
// BAT occupies).
func (b *BAT) HeapBytes() int64 {
	if b.T == Void {
		return 0
	}
	return int64(b.count) * int64(b.T.Width())
}

// Free releases the BAT and notifies storage listeners (→ the Ocelot Memory
// Manager drops any cached device buffer, §4.3). Freeing twice is a no-op.
func (b *BAT) Free() {
	if b == nil || !b.freed.CompareAndSwap(false, true) {
		return
	}
	listenerMu.RLock()
	ls := listeners
	listenerMu.RUnlock()
	for _, fn := range ls {
		fn(b)
	}
	b.heap = nil
	b.count = 0
}

// Freed reports whether Free has been called.
func (b *BAT) Freed() bool { return b.freed.Load() }

// CheckSorted recomputes the Sorted/RevSorted/Key-ish properties by scanning
// the tail. Used by tests and by operators that must verify claimed
// properties; O(n).
func (b *BAT) CheckSorted() (sorted, revSorted bool) {
	sorted, revSorted = true, true
	switch b.T {
	case Void:
		return true, b.count <= 1
	case I32:
		s := b.I32s()
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				sorted = false
			}
			if s[i] > s[i-1] {
				revSorted = false
			}
		}
	case F32:
		s := b.F32s()
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				sorted = false
			}
			if s[i] > s[i-1] {
				revSorted = false
			}
		}
	case OID:
		s := b.OIDs()
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				sorted = false
			}
			if s[i] > s[i-1] {
				revSorted = false
			}
		}
	}
	return sorted, revSorted
}

// String renders a short descriptor, MonetDB-style.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT[%s]#%d %q{sorted=%v key=%v dense=%v ocelot=%v}",
		b.T, b.count, b.Name, b.Props.Sorted, b.Props.Key, b.Props.Dense, b.OcelotOwned)
}

// Table is a named collection of equally-long column BATs — the relational
// view the SQL layer maintains over BATs. A table may grow through
// AppendDelta, copy-on-append (ingest.go): readers that captured column BATs
// before an append keep a consistent immutable snapshot, readers that
// re-resolve columns see the appended ones.
type Table struct {
	Name string
	// Order preserves column declaration order for display.
	Order []string
	Cols  map[string]*BAT

	mu sync.RWMutex
}

// NewTable creates an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, Cols: make(map[string]*BAT)}
}

// Add attaches a column; all columns of a table must have equal length. The
// column BAT is stamped with the table's name so plan-layer code can map it
// back to its catalog entry.
func (t *Table) Add(col string, b *BAT) *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.Order) > 0 {
		if first := t.Cols[t.Order[0]]; first != nil && first.Len() != b.Len() {
			panic(fmt.Sprintf("table %s: column %s has %d rows, expected %d",
				t.Name, col, b.Len(), first.Len()))
		}
	}
	if _, dup := t.Cols[col]; dup {
		panic(fmt.Sprintf("table %s: duplicate column %s", t.Name, col))
	}
	b.TableName = t.Name
	t.Order = append(t.Order, col)
	t.Cols[col] = b
	return t
}

// Col returns a column BAT, panicking on unknown names (schema errors are
// programming errors here — queries are compiled in-process).
func (t *Table) Col(name string) *BAT {
	t.mu.RLock()
	b, ok := t.Cols[name]
	t.mu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("table %s: no column %q", t.Name, name))
	}
	return b
}

// Rows returns the table's row count.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.Order) == 0 {
		return 0
	}
	return t.Cols[t.Order[0]].Len()
}
