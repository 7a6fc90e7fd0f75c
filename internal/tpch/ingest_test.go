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

// TestAppendTailReproducesFullInstance: carving a prefix, sharding it, and
// appending the tail must land every shard — and the global tables — in a
// state byte-identical to sharding the full instance directly.
func TestAppendTailReproducesFullInstance(t *testing.T) {
	full := GenerateSkewed(0.01, 7, 0.5)
	nOrders := full.Orders.Rows() * 4 / 5
	pre := PrefixDB(full, nOrders)
	if pre.Orders.Rows() != nOrders || pre.Lineitem.Rows() >= full.Lineitem.Rows() {
		t.Fatalf("prefix shape: %d orders, %d lineitems", pre.Orders.Rows(), pre.Lineitem.Rows())
	}

	sdb := ShardDB(pre, 3)
	rowsBefore, colBefore := sdb.Shards[0].Orders.Rows(), sdb.Shards[0].Orders.Col("o_orderkey")
	sdb.AppendTail(full)
	if n := sdb.Shards[0].Orders.Rows(); n <= rowsBefore {
		t.Fatalf("append did not grow shard 0's orders (%d -> %d rows)", rowsBefore, n)
	}
	if colBefore.Len() != rowsBefore {
		t.Fatal("append wrote into the column a reader resolved before it (not copy-on-append)")
	}

	want := ShardDB(full, 3)
	sameTableData(t, "global.orders", sdb.Global.Orders, full.Orders)
	sameTableData(t, "global.lineitem", sdb.Global.Lineitem, full.Lineitem)
	for s := range sdb.Shards {
		sameTableData(t, "orders", sdb.Shards[s].Orders, want.Shards[s].Orders)
		sameTableData(t, "lineitem", sdb.Shards[s].Lineitem, want.Shards[s].Lineitem)
		gotRows := sdb.Shards[s].Orders.GlobalRowsSnapshot()
		wantRows := want.Shards[s].Orders.GlobalRowsSnapshot()
		if len(gotRows) != len(wantRows) {
			t.Fatalf("shard %d: %d global order rows, want %d", s, len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			if gotRows[i] != wantRows[i] {
				t.Fatalf("shard %d: global row map diverges at %d", s, i)
			}
		}
	}

	// Appending an already-complete instance is a no-op: not even the
	// column set is swapped.
	col := sdb.Shards[0].Orders.Col("o_orderkey")
	sdb.AppendTail(full)
	if sdb.Shards[0].Orders.Col("o_orderkey") != col {
		t.Fatal("no-op append swapped the column set")
	}
}

// TestCatalogShape: the derived catalog must cover exactly the partitioned
// tables, sharing handles with the instance by pointer.
func TestCatalogShape(t *testing.T) {
	sdb := GenerateSharded(0.01, 3, 0, 2)
	cat := sdb.Catalog()
	if cat.NShards != 2 || len(cat.Tables) != len(ShardTables()) {
		t.Fatalf("catalog: %d shards, %d tables", cat.NShards, len(cat.Tables))
	}
	st := cat.Tables["lineitem"]
	if st == nil || st.Global != sdb.Global.Lineitem || st.Shards[1] != sdb.Shards[1].Lineitem {
		t.Fatal("catalog does not share lineitem handles with the instance")
	}
}
