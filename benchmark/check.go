package main

import (
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/monet"
)

// crossEngineTol is the repository's tolerance for Ocelot results against
// the MonetDB baseline (internal/tpch tests): the engines accumulate floats
// in different precisions.
const crossEngineTol = 2e-3

// oracle is the expected answer of one request, computed by the sequential
// MonetDB baseline in set-up. The shape and per-column sums allow an
// order-insensitive check that allocates nothing, so it can run on every
// response without disturbing the allocation metrics; res backs the full
// row-by-row comparison.
type oracle struct {
	res  *mal.Result
	rows int
	// sums and mags are each column's sum and sum of magnitudes; the
	// magnitude scales the tolerance, so columns of mixed sign compare sanely.
	sums, mags []float64
}

// newOracle runs plan on a fresh session over a fresh sequential MonetDB
// engine. Fusion is off: MonetDB never fuses, and the sharded path pins it
// off, so one oracle serves every engine.
func newOracle(plan func(*mal.Session) *mal.Result, params mal.Params) (*oracle, error) {
	s := mal.NewSession(monet.NewSequential())
	passes := mal.DefaultPasses()
	passes.Fusion = false
	s.SetPasses(passes)
	s.SetParams(params)
	res, err := mal.RunQuery(s, plan)
	if err != nil {
		return nil, err
	}
	o := &oracle{res: res, rows: res.Rows(), sums: columnSums(res, nil)}
	for _, c := range res.Cols {
		o.mags = append(o.mags, columnMag(c))
	}
	return o, nil
}

// columnSum adds up one result column in float64.
func columnSum(c *bat.BAT) float64 {
	var sum float64
	switch c.T {
	case bat.I32:
		for _, v := range c.I32s() {
			sum += float64(v)
		}
	case bat.F32:
		for _, v := range c.F32s() {
			sum += float64(v)
		}
	case bat.OID:
		for _, v := range c.OIDs() {
			sum += float64(v)
		}
	case bat.Void:
		for i := 0; i < c.Len(); i++ {
			sum += float64(c.OIDAt(i))
		}
	}
	return sum
}

// columnMag adds up the magnitudes of one result column.
func columnMag(c *bat.BAT) float64 {
	var sum float64
	switch c.T {
	case bat.I32:
		for _, v := range c.I32s() {
			sum += math.Abs(float64(v))
		}
	case bat.F32:
		for _, v := range c.F32s() {
			sum += math.Abs(float64(v))
		}
	default:
		return columnSum(c)
	}
	return sum
}

// columnSums adds up every column of res into dst.
func columnSums(res *mal.Result, dst []float64) []float64 {
	dst = dst[:0]
	for _, c := range res.Cols {
		dst = append(dst, columnSum(c))
	}
	return dst
}

// sumSlack is the relative slack the sum check adds on top of the
// comparison tolerance: the same values added in another row order differ in
// the last bits of a float64.
const sumSlack = 1e-9

// checker verifies responses against oracles. It is owned by one goroutine;
// scratch keeps the quick check free of allocations.
type checker struct {
	tol     float64
	scratch []float64
}

// quick checks rows, columns and per-column sums.
func (c *checker) quick(res *mal.Result, want *oracle) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Rows() != want.rows {
		return fmt.Errorf("rows: got %d, want %d", res.Rows(), want.rows)
	}
	if len(res.Cols) != len(want.sums) {
		return fmt.Errorf("columns: got %d, want %d", len(res.Cols), len(want.sums))
	}
	c.scratch = columnSums(res, c.scratch)
	for i, got := range c.scratch {
		w := want.sums[i]
		if math.Abs(got-w) > (c.tol+sumSlack)*want.mags[i]+sumSlack {
			return fmt.Errorf("column %d (%s) sum: got %v, want %v", i, res.Names[i], got, w)
		}
	}
	return nil
}

// full is the quick check plus the row-by-row comparison after
// canonicalisation.
func (c *checker) full(res *mal.Result, want *oracle) error {
	if err := c.quick(res, want); err != nil {
		return err
	}
	return res.EqualWithin(want.res, c.tol)
}
