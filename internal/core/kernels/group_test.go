package kernels

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/cl"
	"repro/internal/mem"
	"repro/internal/monet"
)

// runDevices are the devices the run path is checked on: 1, 2 and 8 CPU
// threads and the GPU model.
func runDevices() []*cl.Device {
	return []*cl.Device{cl.NewCPUDevice(1), cl.NewCPUDevice(2), cl.NewCPUDevice(8), cl.NewGPUDevice(256 << 20)}
}

// firstAppearance is monet.Group's numbering of the (prev, key) pairs — keys
// read as float32 bit patterns when float is set — and their count.
func firstAppearance(t testing.TB, keys []uint32, prev []int32, float bool) ([]int32, int) {
	t.Helper()
	col := bat.NewI32("k", mem.I32(mem.BytesOfU32(keys)))
	if float {
		col = bat.NewF32("k", mem.F32(mem.BytesOfU32(keys)))
	}
	g, groups, err := monet.NewSequential().Group(col, bat.NewI32("p", prev), 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.I32s(), groups
}

// spineBuf is a scan spine for dev's geometry: gsz+1 words.
func spineBuf(t testing.TB, e *env) *cl.Buffer {
	_, _, gsz := Geometry(e.dev)
	return e.buf(t, gsz+1)
}

// runsOfKeys returns previous ids in consecutive runs of the given lengths
// and, for each row, a key drawn by pick(run, row in run).
func runsOfKeys(lengths []int, pick func(run, i int) uint32) ([]uint32, []int32) {
	var keys []uint32
	var prev []int32
	for run, l := range lengths {
		for i := 0; i < l; i++ {
			keys, prev = append(keys, pick(run, i)), append(prev, int32(run))
		}
	}
	return keys, prev
}

// randomLengths returns runs of 1..maxRun rows covering n rows.
func randomLengths(r *rand.Rand, n, maxRun int) []int {
	var out []int
	for n > 0 {
		l := min(1+r.Intn(maxRun), n)
		out, n = append(out, l), n-l
	}
	return out
}

// TestGroupByRunsFirstAppearance: the run path numbers the (previous id, key)
// pairs by first appearance — monet.Group's ids, byte for byte, and its group
// count — on 1, 2 and 8 CPU threads and the GPU model: keys that share one
// home slot of the set (the last, so probes wrap), runs of MaxRefineRun
// distinct and of MaxRefineRun equal keys, runs straddling work-item spans,
// MinInt32 keys, and float −0 against +0, which are two keys.
func TestGroupByRunsFirstAppearance(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var collide []uint32
	for k := uint32(0); len(collide) < 16; k++ {
		if runSlot(k) == runSet-1 {
			collide = append(collide, k)
		}
	}
	distinct := func(run, i int) uint32 { return uint32(run*MaxRefineRun + (i*37)%MaxRefineRun) }
	edges := []uint32{1 << 31, 1<<31 + 1, math.MaxInt32, 0, math.MaxUint32}
	zeros := []uint32{0, 1 << 31, math.Float32bits(1), math.Float32bits(-1)}
	type runCase struct {
		name  string
		keys  []uint32
		prev  []int32
		float bool
	}
	var cases []runCase
	add := func(name string, lengths []int, float bool, pick func(run, i int) uint32) {
		keys, prev := runsOfKeys(lengths, pick)
		cases = append(cases, runCase{name, keys, prev, float})
	}
	add("keys sharing one slot", randomLengths(r, 3_000, 16), false, func(int, int) uint32 { return collide[r.Intn(len(collide))] })
	add("one run of MaxRefineRun distinct keys", []int{MaxRefineRun}, false, distinct)
	add("runs of MaxRefineRun distinct keys", slices.Repeat([]int{MaxRefineRun}, 40), false, distinct)
	add("runs of MaxRefineRun equal keys", slices.Repeat([]int{MaxRefineRun}, 40), false, func(run, _ int) uint32 { return uint32(run % 3) })
	add("runs straddling work-item spans", randomLengths(r, 5_000, MaxRefineRun), false, func(int, int) uint32 { return uint32(r.Intn(50)) })
	add("MinInt32 keys", randomLengths(r, 3_000, 7), false, func(int, int) uint32 { return edges[r.Intn(len(edges))] })
	add("float -0 against +0", randomLengths(r, 3_000, 7), true, func(int, int) uint32 { return zeros[r.Intn(len(zeros))] })
	for _, c := range cases {
		n := len(c.keys)
		want, groups := firstAppearance(t, c.keys, c.prev, c.float)
		for _, dev := range runDevices() {
			e := newEnv(dev)
			ids, spine, total := e.buf(t, n+1), spineBuf(t, e), e.buf(t, 1)
			scanned, done := GroupByRuns(e.q, ids, e.u32(t, c.keys), e.i32(t, c.prev), spine, total, n, nil)
			if err := cl.WaitAll(scanned, done); err != nil {
				t.Fatal(err)
			}
			if got := int(total.U32()[0]); got != groups || !slices.Equal(ids.I32()[:n], want) {
				t.Fatalf("%s on %s: %d groups, monet.Group %d; ids equal: %v", c.name, dev.Name, got, groups, slices.Equal(ids.I32()[:n], want))
			}
			dev.Close()
		}
	}
}

// TestGroupByRunsOverTheSetFails: a run of more distinct keys than the set
// holds fails the launch with an error, where a set without the bound would
// probe forever.
func TestGroupByRunsOverTheSetFails(t *testing.T) {
	const n = 2*MaxRefineRun + 1
	keys, prev := runsOfKeys([]int{n}, func(_, i int) uint32 { return uint32(i) })
	for _, dev := range runDevices() {
		e := newEnv(dev)
		ids, spine, total := e.buf(t, n+1), spineBuf(t, e), e.buf(t, 1)
		col, prevBuf := e.u32(t, keys), e.i32(t, prev)
		failed := make(chan error, 1)
		go func() { // a ready launch may run on the enqueuing goroutine
			_, done := GroupByRuns(e.q, ids, col, prevBuf, spine, total, n, nil)
			failed <- done.Wait()
		}()
		select {
		case err := <-failed:
			if err == nil || !strings.Contains(err.Error(), "distinct keys") {
				t.Fatalf("%s: a run of %d distinct keys: %v", dev.Name, n, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: a run of %d distinct keys is still being numbered after 30 s", dev.Name, n)
		}
		dev.Close()
	}
}
