package tpch

import "repro/internal/mal"

// ShardedDB is an instance under its former sharding name.
//
// Deprecated: sharding is gone; use *DB and DB.AppendTail. The declarations
// in this file remain only for the pinned benchmark's ingest_mix workload
// and go when that workload moves to serve.Server.Ingest.
type ShardedDB struct {
	Global *DB
}

// ShardDB wraps global; the shard count is ignored.
//
// Deprecated: see ShardedDB.
func ShardDB(global *DB, _ int) *ShardedDB { return &ShardedDB{Global: global} }

// Catalog returns an empty catalog.
//
// Deprecated: see ShardedDB.
func (sdb *ShardedDB) Catalog() *mal.ShardCatalog { return &mal.ShardCatalog{} }

// AppendTail is Global.AppendTail.
//
// Deprecated: see ShardedDB.
func (sdb *ShardedDB) AppendTail(src *DB) { sdb.Global.AppendTail(src) }

// ShardTables lists the tables AppendTail changes.
//
// Deprecated: see ShardedDB.
func ShardTables() []string { return []string{"orders", "lineitem"} }
