package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/mal"
	"repro/internal/monet"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// dataSeed fixes the TPC-H instance. The workload seed (--seed) never reaches
// the data or the program: it only drives the order, popularity, parameters
// and arrival times of requests.
const dataSeed = 42

// workload holds every constant of one workload. README.md repeats the table
// and says why each value was chosen.
type workload struct {
	name string
	sf   float64
	// engine is the system under test: "CPU" (Ocelot on the CPU driver),
	// "HYB" (CPU plus one simulated GPU) or "SHARD" (MonetDB coordinator and
	// two MonetDB shards).
	engine string
	// gpuMem caps the simulated GPU's memory (HYB only).
	gpuMem int64
	// opts are the serve options; zero fields keep serve's defaults.
	opts serve.Options
	// open marks the open loop; every other workload has one closed-loop
	// client.
	open bool
	// withScan adds the parameterised scan(hi) plan to the 14 TPC-H queries.
	withScan bool
	// warmRounds is the fixed number of rounds of the query set that set-up
	// runs to fill plan and device caches; a fixed count, so that set-up time
	// tracks the speed of the code.
	warmRounds int
	// traceRounds is the fixed number of rounds of the traced pass.
	traceRounds int
	// ingests is the number of Ingest calls spread over the window, each
	// appending ingestShare of the orders, from a prefix of prefixShare.
	ingests     int
	prefixShare float64
	ingestShare float64
}

// workloads lists the five workloads in the order BENCHMARK.json names them.
var workloads = []*workload{
	{
		name: "tpch_small", sf: 0.01, engine: "CPU",
		opts:       serve.Options{NoCoalesce: true},
		warmRounds: 24, traceRounds: 9,
	},
	{
		name: "tpch_large", sf: 0.1, engine: "CPU",
		opts:       serve.Options{NoCoalesce: true},
		warmRounds: 2, traceRounds: 2,
	},
	{
		name: "serve_open", sf: 0.01, engine: "CPU", open: true, withScan: true,
		opts:       serve.Options{MaxConcurrent: 2},
		warmRounds: 24, traceRounds: 9,
	},
	{
		name: "hybrid_pressure", sf: 0.05, engine: "HYB", gpuMem: 16 << 20,
		opts:       serve.Options{NoCoalesce: true},
		warmRounds: 6, traceRounds: 3,
	},
	{
		name: "ingest_mix", sf: 0.01, engine: "SHARD",
		warmRounds: 24, traceRounds: 9,
		ingests: 8, prefixShare: 0.5, ingestShare: 0.05,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scanValues is the number of distinct hi parameters of the scan plan.
const scanValues = 40

// executor is the boundary users see: serve.Server and serve.ShardedServer.
type executor interface {
	ExecuteCtx(ctx context.Context, name string, params mal.Params, plan func(*mal.Session) *mal.Result) (*mal.Result, error)
}

// query is one named plan with its expected answers.
type query struct {
	name string
	num  int // TPC-H number; 0 for the scan plan
	plan func(*mal.Session) *mal.Result
	// want holds the oracles: one for a TPC-H query (one per ingest
	// generation on ingest_mix), one per hi value for the scan plan.
	want []*oracle
}

// request is one operation a client issues.
type request struct {
	q      *query
	params mal.Params
	want   *oracle
}

// rig is one assembled workload: data, engines, servers and oracles.
type rig struct {
	w   *workload
	tol float64

	db  *tpch.DB      // the instance the system under test reads
	eng ops.Operators // its engine (the coordinator's on ingest_mix)
	sut executor
	sv  *serve.Server // sut as a plain server; nil on ingest_mix

	// The reference: sequential MonetDB behind a plain server, on the same
	// data, run by one closed-loop client in blocks beside the window. Times
	// over its times cancel the drift of the machine.
	msEng ops.Operators
	ms    *serve.Server

	queries []*query // the 14 TPC-H queries in the paper's order
	ref     []*query // the same plans as the reference reads them, one oracle each
	scan    *query   // nil unless the workload has the scan plan

	// ingest_mix only.
	ss      *serve.ShardedServer
	full    *tpch.DB        // the complete instance the tail is appended from
	sdb     *tpch.ShardedDB // prefix instance, sharded
	batches []*tpch.DB      // the instance at each generation; ingest g appends from batches[g]
	prefix  int             // orders loaded before the first ingest
	step    int             // orders appended per ingest
	current int             // ingest generation the data is at

	generate time.Duration  // the part of set-up spent in tpch.Generate
	devs     []*core.Engine // every Ocelot device engine, for counters and Close
}

// close stops the worker pools of the rig's devices and drops their recycled
// scratch, so that a discarded rig leaves neither goroutines nor memory.
func (r *rig) close() {
	for _, e := range r.devs {
		e.Memory().FlushScratch()
		e.Device().Close()
	}
}

// buildEngine constructs the workload's engine with its thread count pinned.
func buildEngine(w *workload, threads int) (ops.Operators, []*core.Engine, error) {
	switch w.engine {
	case "CPU":
		o := mal.OcelotCPU.Build(mal.ConfigOptions{Threads: threads})
		return o, []*core.Engine{o.(*core.Engine)}, nil
	case "HYB":
		h, err := hybrid.NewN(threads, w.gpuMem, 1)
		if err != nil {
			return nil, nil, fmt.Errorf("hybrid engine: %w", err)
		}
		var devs []*core.Engine
		for _, d := range h.Devices() {
			devs = append(devs, d.Eng)
		}
		return h, devs, nil
	case "SHARD":
		return monet.NewSequential(), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown engine %q", w.engine)
}

// tpchQueries binds the 14 plans to db.
func tpchQueries(db *tpch.DB) []*query {
	var out []*query
	for _, q := range tpch.Queries() {
		q := q
		out = append(out, &query{
			name: fmt.Sprintf("Q%d", q.Num),
			num:  q.Num,
			plan: func(s *mal.Session) *mal.Result { return q.Plan(s, db) },
		})
	}
	return out
}

// scanQuery is the parameterised plan of the repository's coalescing figure:
// revenue of the lineitems whose quantity is between 1 and hi.
func scanQuery(db *tpch.DB) *query {
	qty := db.Lineitem.Col("l_quantity")
	price := db.Lineitem.Col("l_extendedprice")
	return &query{
		name: "scan",
		plan: func(s *mal.Session) *mal.Result {
			hi := s.Param("hi", 24)
			sel := s.Select(qty, nil, 1, hi, true, true)
			return s.Result([]string{"rev"}, s.Aggr(ops.Sum, s.Project(sel, price), nil, 0))
		},
	}
}

func scanParams(hi int) mal.Params { return mal.Params{"hi": float64(hi)} }

// setup assembles the workload from nothing: generate the data, build the
// engines and servers, compute every oracle, and run the fixed warm-up.
func setup(w *workload, threads int) (*rig, error) {
	r := &rig{w: w, tol: crossEngineTol}

	t0 := time.Now()
	r.db = tpch.Generate(w.sf, dataSeed)
	r.generate = time.Since(t0)

	var err error
	if r.eng, r.devs, err = buildEngine(w, threads); err != nil {
		return nil, err
	}
	r.msEng = monet.NewSequential()
	if w.engine == "SHARD" {
		r.tol = 0 // MonetDB against MonetDB, fusion off on both sides
		r.buildSharded()
	} else {
		r.sv = serve.New(r.eng, w.opts)
		r.sut = r.sv
	}
	r.ms = serve.New(r.msEng, serve.Options{NoCoalesce: true})
	r.queries = tpchQueries(r.db)
	if w.withScan {
		r.scan = scanQuery(r.db)
	}

	if err := r.computeOracles(); err != nil {
		r.close()
		return nil, err
	}
	if err := r.warmUp(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// computeOracles fills every query's expected answers.
func (r *rig) computeOracles() error {
	if r.w.engine == "SHARD" {
		return r.shardOracles()
	}
	for _, q := range r.queries {
		o, err := newOracle(q.plan, nil)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.name, err)
		}
		q.want = []*oracle{o}
	}
	r.ref = r.queries
	if r.scan != nil {
		for hi := 1; hi <= scanValues; hi++ {
			o, err := newOracle(r.scan.plan, scanParams(hi))
			if err != nil {
				return fmt.Errorf("oracle scan(%d): %w", hi, err)
			}
			r.scan.want = append(r.scan.want, o)
		}
	}
	return nil
}

// tpchRequest is the request for query i at the data's current generation.
func (r *rig) tpchRequest(i int) request {
	q := r.queries[i]
	return request{q: q, want: q.want[r.current]}
}

// refRequest is the request for query i on the reference server.
func (r *rig) refRequest(i int) request {
	q := r.ref[i]
	return request{q: q, want: q.want[len(q.want)-1]}
}

func (r *rig) scanRequest(hi int) request {
	return request{q: r.scan, params: scanParams(hi), want: r.scan.want[hi-1]}
}

// warmUp runs the query set warmRounds times through every server the window
// will use, checking every response in full.
func (r *rig) warmUp() error {
	ck := &checker{tol: r.tol}
	ctx := context.Background()
	for round := 0; round < r.w.warmRounds; round++ {
		for i := range r.queries {
			req := r.tpchRequest(i)
			if err := runChecked(ctx, r.sut, req, ck); err != nil {
				return fmt.Errorf("warm-up %s: %w", req.q.name, err)
			}
			if err := runChecked(ctx, r.ms, r.refRequest(i), &checker{}); err != nil {
				return fmt.Errorf("warm-up reference %s: %w", req.q.name, err)
			}
		}
		if r.scan != nil {
			for hi := 1 + round%2; hi <= scanValues; hi += 2 {
				req := r.scanRequest(hi)
				if err := runChecked(ctx, r.sut, req, ck); err != nil {
					return fmt.Errorf("warm-up scan(%d): %w", hi, err)
				}
			}
		}
	}
	return nil
}

// runChecked issues one request and compares the whole response.
func runChecked(ctx context.Context, ex executor, req request, ck *checker) error {
	res, err := ex.ExecuteCtx(ctx, req.q.name, req.params, req.q.plan)
	if err != nil {
		return err
	}
	return ck.full(res, req.want)
}
