package tpch

import (
	"bytes"
	"testing"

	"repro/internal/bat"
)

// sameTableData requires value-identical column contents (metadata like
// stats and conservatively-dropped properties may differ after appends).
func sameTableData(t *testing.T, label string, got, want *bat.Table) {
	t.Helper()
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: %d columns, want %d", label, len(got.Order), len(want.Order))
	}
	for _, name := range want.Order {
		g, w := got.Col(name), want.Col(name)
		if g.Len() != w.Len() {
			t.Fatalf("%s.%s: %d rows, want %d", label, name, g.Len(), w.Len())
		}
		if g.T != w.T {
			t.Fatalf("%s.%s: type %v, want %v", label, name, g.T, w.T)
		}
		n := g.Len() * g.T.Width()
		if !bytes.Equal(g.Bytes()[:n], w.Bytes()[:n]) {
			t.Fatalf("%s.%s: column bytes differ", label, name)
		}
	}
}

// TestAppendTailReproducesFullInstance: cutting a prefix and appending the
// tail must land both fact tables in a state byte-identical to the full
// instance, copy-on-append.
func TestAppendTailReproducesFullInstance(t *testing.T) {
	full := GenerateSkewed(0.01, 7, 0.5)
	nOrders := full.Orders.Rows() * 4 / 5
	db := PrefixDB(full, nOrders)
	if db.Orders.Rows() != nOrders || db.Lineitem.Rows() >= full.Lineitem.Rows() {
		t.Fatalf("prefix shape: %d orders, %d lineitems", db.Orders.Rows(), db.Lineitem.Rows())
	}

	rowsBefore, colBefore := db.Orders.Rows(), db.Orders.Col("o_orderkey")
	db.AppendTail(full)
	if n := db.Orders.Rows(); n <= rowsBefore {
		t.Fatalf("append did not grow orders (%d -> %d rows)", rowsBefore, n)
	}
	if colBefore.Len() != rowsBefore {
		t.Fatal("append wrote into the column a reader resolved before it (not copy-on-append)")
	}
	sameTableData(t, "orders", db.Orders, full.Orders)
	sameTableData(t, "lineitem", db.Lineitem, full.Lineitem)

	// Appending an already-complete instance is a no-op: not even the
	// column set is swapped.
	col := db.Orders.Col("o_orderkey")
	db.AppendTail(full)
	if db.Orders.Col("o_orderkey") != col {
		t.Fatal("no-op append swapped the column set")
	}
}
