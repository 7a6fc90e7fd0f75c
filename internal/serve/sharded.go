package serve

import (
	"context"

	"repro/internal/mal"
	"repro/internal/ops"
)

// ShardedServer is one Server over the coordinator engine.
//
// Deprecated: sharded execution is gone; serve with New and ingest through
// Server.Ingest. The declaration remains only for the pinned benchmark's
// ingest_mix workload and goes when that workload moves to Server.Ingest.
type ShardedServer struct {
	sv *Server
}

// ShardStats are always zero: nothing scatters.
//
// Deprecated: see ShardedServer.
type ShardStats struct {
	Scattered, Degenerate, ColdCompiles, Fallbacks, Recompiles int64
}

// NewSharded returns a ShardedServer over coordEngine alone, with fusion off.
// The shard engines and the catalog are ignored.
//
// Deprecated: use New with Options.Passes, and Server.Ingest.
func NewSharded(coordEngine ops.Operators, _ []ops.Operators, _ *mal.ShardCatalog, opt Options) *ShardedServer {
	passes := mal.DefaultPasses()
	if opt.Passes != nil {
		passes = *opt.Passes
	}
	passes.Fusion = false
	opt.Passes = &passes
	return &ShardedServer{sv: New(coordEngine, opt)}
}

// NShards is 0.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) NShards() int { return 0 }

// Coordinator returns the one server.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) Coordinator() *Server { return ss.sv }

// Shard returns nil: there are no shards.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) Shard(int) *Server { return nil }

// Stats returns zero counters.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) Stats() ShardStats { return ShardStats{} }

// ExecuteCtx is Server.ExecuteCtx.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) ExecuteCtx(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error) {
	return ss.sv.ExecuteCtx(ctx, name, params, plan)
}

// Ingest is Server.Ingest.
//
// Deprecated: see ShardedServer.
func (ss *ShardedServer) Ingest(tables []string, apply func()) { ss.sv.Ingest(tables, apply) }
