// The catalog version: the one fact that decides whether anything built over
// base data may still be reused — which version of each named table it read.
// An ingest publishes a new CatalogVersion once its appends are applied;
// every cache of work derived from base data (PlanCache slots, the serve
// layer's flights and batch groups) records the version it was built at and
// compares it with the current one. Nothing keeps a counter of its own.
package mal

import (
	"maps"
	"sync/atomic"
)

// CatalogVersion is one immutable catalog snapshot: how many publishes
// preceded it and, per named table, the publish that last changed that table
// (absent: never changed).
type CatalogVersion struct {
	seq    int64
	tables map[string]int64
}

// Seq numbers the snapshot: each publish makes one higher than the last.
func (v *CatalogVersion) Seq() int64 { return v.seq }

// Same reports whether none of tables changed between old and v, so work
// built at old over exactly those tables is still current at v.
func (v *CatalogVersion) Same(old *CatalogVersion, tables []string) bool {
	if v == old {
		return true
	}
	for _, tab := range tables {
		if v.tables[tab] != old.tables[tab] {
			return false
		}
	}
	return true
}

// Catalog holds the current CatalogVersion, swapped atomically by Publish.
// The zero Catalog is at version 0; one nobody publishes to never retires
// anything.
type Catalog struct {
	cur atomic.Pointer[CatalogVersion]
}

var version0 = &CatalogVersion{}

// Current returns the latest published snapshot.
func (c *Catalog) Current() *CatalogVersion {
	if v := c.cur.Load(); v != nil {
		return v
	}
	return version0
}

// Publish makes the snapshot in which tables changed current and returns it.
// Call it once the change is applied, so that whoever reads the new version
// also reads the new data (serve.Server.Ingest publishes inside its ingest
// lock). Concurrent publishers each get a version of their own.
func (c *Catalog) Publish(tables []string) *CatalogVersion {
	for {
		old := c.cur.Load()
		base := old
		if base == nil {
			base = version0
		}
		v := &CatalogVersion{seq: base.seq + 1, tables: make(map[string]int64, len(base.tables)+len(tables))}
		maps.Copy(v.tables, base.tables)
		for _, tab := range tables {
			v.tables[tab] = v.seq
		}
		if c.cur.CompareAndSwap(old, v) {
			return v
		}
	}
}

// ShardCatalog is empty.
//
// Deprecated: sharded execution is gone. The type remains only for the
// pinned benchmark's ingest_mix workload, through serve.NewSharded and
// tpch.ShardedDB.Catalog, and goes when that workload moves to
// serve.Server.Ingest.
type ShardCatalog struct{}
