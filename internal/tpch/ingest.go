// Live ingest over a TPC-H instance: a deterministic way to split one
// generated instance into a loaded prefix plus an appendable tail, so ingest
// tests and benchmarks can replay "the rest of the data arriving" against a
// running server and still know the exact final state — after AppendTail the
// prefix is byte-identical to the full instance.
package tpch

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/mem"
)

// PrefixDB returns the instance truncated to its first nOrders orders and
// their lineitems (generation emits lineitems grouped by order, so both cuts
// are row-order prefixes and every l_orderpos stays valid). Dimension tables
// are shared with src by pointer. PrefixDB(src, n) followed by AppendTail(src)
// reproduces src exactly.
func PrefixDB(src *DB, nOrders int) *DB {
	if nOrders > src.Orders.Rows() {
		nOrders = src.Orders.Rows()
	}
	lopos := src.Lineitem.Col("l_orderpos").OIDs()
	nLines := 0
	for nLines < len(lopos) && int(lopos[nLines]) < nOrders {
		nLines++
	}
	db := &DB{
		SF:       src.SF,
		Theta:    src.Theta,
		Region:   src.Region,
		Nation:   src.Nation,
		Supplier: src.Supplier,
		Customer: src.Customer,
		Part:     src.Part,
		PartSupp: src.PartSupp,
		dicts:    src.dicts,
		codes:    src.codes,
	}
	db.Orders = subsetTableRows(src.Orders, rowRange(0, nOrders))
	db.Lineitem = subsetTableRows(src.Lineitem, rowRange(0, nLines))
	return db
}

// AppendTail appends to db every order and lineitem row of src beyond db's
// current row counts — src must be a superset instance db was cut from
// (typically db = PrefixDB(src, n)). Both tables get copy-on-append deltas
// (bat.Table.AppendDelta), orders before lineitems so the parents always
// exist.
func (db *DB) AppendTail(src *DB) {
	curO, totO := db.Orders.Rows(), src.Orders.Rows()
	curL, totL := db.Lineitem.Rows(), src.Lineitem.Rows()
	if curO == totO && curL == totL {
		return
	}
	db.Orders.AppendDelta(subsetTableRows(src.Orders, rowRange(curO, totO)))
	db.Lineitem.AppendDelta(subsetTableRows(src.Lineitem, rowRange(curL, totL)))
}

// subsetTableRows copies the selected rows of every column into a fresh
// table (prefixes and append deltas).
func subsetTableRows(src *bat.Table, rows []uint32) *bat.Table {
	t := bat.NewTable(src.Name)
	for _, name := range src.Order {
		t.Add(name, subsetCol(src.Col(name), rows))
	}
	return t
}

// subsetCol copies the selected rows of a column into a fresh BAT,
// preserving type, name and order-derived properties (a subset taken in row
// order keeps Sorted; Key survives too).
func subsetCol(c *bat.BAT, rows []uint32) *bat.BAT {
	var out *bat.BAT
	switch c.T {
	case bat.I32:
		src := c.I32s()
		dst := mem.AllocI32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewI32(c.Name, dst)
	case bat.F32:
		src := c.F32s()
		dst := mem.AllocF32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewF32(c.Name, dst)
	case bat.OID:
		src := c.OIDs()
		dst := mem.AllocU32(len(rows))
		for i, r := range rows {
			dst[i] = src[r]
		}
		out = bat.NewOID(c.Name, dst)
	default:
		panic(fmt.Sprintf("tpch: cannot subset %v column %q", c.T, c.Name))
	}
	out.Props.Sorted = c.Props.Sorted
	out.Props.Key = c.Props.Key
	return out
}

func rowRange(lo, hi int) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		out = append(out, uint32(r))
	}
	return out
}
