package hybrid

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mem"
	"repro/internal/monet"
	"repro/internal/ops"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	h, err := New(4, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func i32Col(name string, vals []int32) *bat.BAT {
	s := mem.AllocI32(len(vals))
	copy(s, vals)
	return bat.NewI32(name, s)
}

func randI32(n int, max int32, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int31n(max)
	}
	return out
}

func TestCalibratedProfiles(t *testing.T) {
	h := newEngine(t)
	devs := h.Devices()
	if len(devs) != 2 || devs[0].Label != "CPU" || devs[1].Label != "GPU" {
		t.Fatalf("devices %v, want CPU then GPU", devs)
	}
	cpu, gpu := devs[0].Prof, devs[1].Prof
	if cpu.ScanBandwidth <= 0 || gpu.ScanBandwidth <= 0 {
		t.Fatalf("profiles not calibrated: %v / %v", cpu, gpu)
	}
	if gpu.ScanBandwidth <= cpu.ScanBandwidth {
		t.Fatalf("simulated GPU (%.1f GB/s) should out-scan the CPU (%.1f GB/s)",
			gpu.ScanBandwidth/1e9, cpu.ScanBandwidth/1e9)
	}
	if cpu.String() == "" || gpu.String() == "" {
		t.Fatal("profile rendering empty")
	}
}

func TestPipelineCorrectUnderPlacement(t *testing.T) {
	h := newEngine(t)
	vals := randI32(200_000, 1000, 1)
	col := i32Col("c", vals)
	other := i32Col("o", randI32(200_000, 50, 2))

	sel, err := h.Select(col, nil, 100, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	prj, err := h.Project(sel, other)
	if err != nil {
		t.Fatal(err)
	}
	g, n, err := h.Group(prj, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := h.Aggr(ops.Count, nil, g, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(cnt); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range cnt.I32s() {
		total += int64(c)
	}
	want := 0
	for _, v := range vals {
		if v >= 100 && v <= 499 {
			want++
		}
	}
	if total != int64(want) {
		t.Fatalf("hybrid pipeline counted %d rows, want %d", total, want)
	}
	if len(h.Placements()) == 0 {
		t.Fatal("no placements recorded")
	}
}

// TestUnpinnedCallRunsOnCPU: the engine prices nothing — an unpinned call
// whose inputs no device owns runs on the first live device, the CPU,
// whatever its size.
func TestUnpinnedCallRunsOnCPU(t *testing.T) {
	h, err := New(2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{512, 2 << 20} { // 2 KB and 8 MB
		col := i32Col("c", randI32(n, 1000, int64(3+i)))
		if _, err := h.Select(col, nil, 0, 499, true, true); err != nil {
			t.Fatal(err)
		}
		if got := h.Placements()["select"]; got["CPU"] != i+1 || got["GPU"] != 0 {
			t.Fatalf("unpinned %d-row select did not run on the CPU: %v", n, got)
		}
	}
}

// TestUnpinnedCallFollowsOwnedInput: an unpinned call whose input a GPU owns
// runs on that GPU — the intermediate stays where it was produced.
func TestUnpinnedCallFollowsOwnedInput(t *testing.T) {
	h, err := New(2, 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	col := i32Col("c", randI32(50_000, 1000, 5))
	sel, err := h.On("GPU").Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.OwnerClass(sel) != "GPU" {
		t.Fatalf("selection owned by %q, want GPU", h.OwnerClass(sel))
	}
	prj, err := h.Project(sel, col)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Placements()["leftfetchjoin"]; got["GPU"] != 1 || got["CPU"] != 0 {
		t.Fatalf("projection of a GPU-owned selection ran elsewhere: %v", got)
	}
	if err := h.Sync(prj); err != nil {
		t.Fatal(err)
	}
	for _, v := range prj.I32s() {
		if v < 0 || v > 499 {
			t.Fatalf("projection has out-of-range value %d", v)
		}
	}
}

func TestCrossDeviceMigrationThroughSync(t *testing.T) {
	h := newEngine(t)
	cpuDev := h.devs[0]
	// Produce an intermediate explicitly on the CPU engine, then consume it
	// via the hybrid layer: migration must sync it back to the host first.
	col := i32Col("c", randI32(50_000, 100, 4))
	sel, err := cpuDev.Eng.Select(col, nil, 0, 49, true, true)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.owner[sel] = cpuDev
	h.mu.Unlock()

	prj, err := h.Project(sel, col)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(prj); err != nil {
		t.Fatal(err)
	}
	for _, v := range prj.I32s() {
		if v < 0 || v > 49 {
			t.Fatalf("migrated projection has out-of-range value %d", v)
		}
	}
}

func TestGPUFailureFallsBackToCPU(t *testing.T) {
	// A hybrid with a tiny GPU: big operators must fall back to the CPU
	// rather than fail.
	h, err := New(4, 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	col := i32Col("big", randI32(4<<20, 1000, 5)) // 16 MB, exceeds the device
	sel, err := h.On("GPU").Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatalf("hybrid did not fall back: %v", err)
	}
	if err := h.Sync(sel); err != nil {
		t.Fatal(err)
	}
	if sel.Len() == 0 {
		t.Fatal("fallback produced no rows")
	}

	// A join whose table does not fit the card (sorted slots over 200 000
	// unique wide-range keys: ~4 MiB of codes and sort scratch) is refused
	// there and runs on the CPU,
	// with the CPU engine's bytes.
	keys := make([]int32, 200_000)
	for i, k := range rand.New(rand.NewSource(7)).Perm(len(keys)) {
		keys[i] = int32(k) * 5003
	}
	build, probe := i32Col("build", keys), i32Col("probe", keys[:100_000])
	l, r, err := h.On("GPU").Join(probe, build)
	if err != nil {
		t.Fatalf("hybrid join did not fall back: %v", err)
	}
	if p := h.Placements()["join"]; p["CPU"] != 1 || p["GPU"] != 0 {
		t.Fatalf("oversized join placed %v, want CPU 1 and GPU 0", p)
	}
	cpu := h.Devices()[0].Eng
	wantL, wantR, err := cpu.Join(probe, build)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*bat.BAT{l, r} {
		if err := h.Sync(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range []*bat.BAT{wantL, wantR} {
		if err := cpu.Sync(b); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 100_000 || !slices.Equal(l.OIDs(), wantL.OIDs()) || !slices.Equal(r.OIDs(), wantR.OIDs()) {
		t.Fatalf("fallback join: %d pairs, the CPU engine's %d, or different pairs", l.Len(), wantL.Len())
	}
}

func TestHashTablePinsProbeDevice(t *testing.T) {
	h := newEngine(t)
	build := i32Col("b", []int32{5, 7, 9})
	build.Props.Key = true
	probe := i32Col("p", randI32(10_000, 12, 6))
	ht, err := h.BuildHash(build)
	if err != nil {
		t.Fatal(err)
	}
	l, r, err := h.HashProbe(probe, ht)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(l); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < l.Len(); i++ {
		if probe.I32s()[l.OIDs()[i]] != build.I32s()[r.OIDs()[i]] {
			t.Fatalf("hybrid probe pair %d mismatched", i)
		}
	}
	ht.Release()
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSelectCmpOverHandedOverCandidate: a selection produced on the GPU and
// handed to the host becomes an oid list; a comparison pinned to the CPU over
// that list must run on the CPU — not fail there and fall back to the GPU —
// and agree with the sequential baseline.
func TestSelectCmpOverHandedOverCandidate(t *testing.T) {
	h := newEngine(t)
	a := i32Col("a", randI32(100_000, 50, 31))
	b := i32Col("b", randI32(100_000, 50, 32))
	cand, err := h.On("GPU").Select(a, nil, 10, 29, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(cand); err != nil {
		t.Fatal(err)
	}
	got, err := h.On("CPU").SelectCmp(a, b, ops.Le, cand)
	if err != nil {
		t.Fatal(err)
	}
	if p := h.Placements()["selectcmp"]; p["CPU"] != 1 || p["GPU"] != 0 {
		t.Fatalf("selectcmp over a handed-over list placed %v, want CPU 1 and GPU 0", p)
	}
	if err := h.Sync(got); err != nil {
		t.Fatal(err)
	}
	want, err := monet.NewSequential().SelectCmp(a, b, ops.Le, cand)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() == 0 {
		t.Fatalf("selectcmp kept %d rows, MS %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.OIDAt(i) != want.OIDAt(i) {
			t.Fatalf("row %d: oid %d, MS %d", i, got.OIDAt(i), want.OIDAt(i))
		}
	}
}

func TestReleaseWithoutOwnerIsSafe(t *testing.T) {
	h := newEngine(t)
	col := i32Col("c", []int32{1, 2, 3})
	h.Release(col) // never owned: must be a no-op, not a panic
	h.Release(nil)
}

// TestAllOperatorsThroughHybrid drives every routed operator once and
// validates results against trivially computable expectations.
func TestAllOperatorsThroughHybrid(t *testing.T) {
	h := newEngine(t)
	a := i32Col("a", []int32{1, 5, 3, 7, 2})
	b := i32Col("b", []int32{2, 4, 3, 9, 1})

	// SelectCmp.
	lt, err := h.SelectCmp(a, b, ops.Lt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(lt); err != nil {
		t.Fatal(err)
	}
	if lt.Len() != 2 {
		t.Fatalf("selectcmp = %d rows", lt.Len())
	}

	// Join (duplicates) and ThetaJoin.
	l := i32Col("l", []int32{1, 2, 3, 2})
	r := i32Col("r", []int32{2, 2, 8})
	jl, jr, err := h.Join(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(jl); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(jr); err != nil {
		t.Fatal(err)
	}
	if jl.Len() != 4 { // two 2s in l... l has 2 at pos 1,3; r has two 2s → 4 pairs
		t.Fatalf("join pairs = %d, want 4", jl.Len())
	}
	tl, tr, err := h.ThetaJoin(a, r, ops.Gt)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(tl); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tl.Len(); i++ {
		if !(a.I32s()[tl.OIDs()[i]] > r.I32s()[tr.OIDs()[i]]) {
			t.Fatal("theta predicate violated")
		}
	}

	// Semi/Anti.
	semi, err := h.SemiJoin(a, r)
	if err != nil {
		t.Fatal(err)
	}
	anti, err := h.AntiJoin(a, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(semi); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(anti); err != nil {
		t.Fatal(err)
	}
	if semi.Len()+anti.Len() != a.Len() {
		t.Fatal("semi+anti must partition the input")
	}

	// Sort + Binop + BinopConst + OIDUnion.
	sorted, order, err := h.Sort(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(sorted); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(order); err != nil {
		t.Fatal(err)
	}
	s := sorted.I32s()
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("hybrid sort unsorted")
		}
	}
	mul, err := h.Binop(ops.Mul, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(mul); err != nil {
		t.Fatal(err)
	}
	if mul.I32s()[0] != 2 {
		t.Fatalf("binop = %v", mul.I32s())
	}
	inc, err := h.BinopConst(ops.Add, a, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(inc); err != nil {
		t.Fatal(err)
	}
	if inc.I32s()[0] != 2 {
		t.Fatalf("binopconst = %v", inc.I32s())
	}
	s1, err := h.Select(a, nil, 1, 2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.Select(a, nil, 5, 9, true, true)
	if err != nil {
		t.Fatal(err)
	}
	u, err := h.OIDUnion(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(u); err != nil {
		t.Fatal(err)
	}
	if u.Len() != 4 {
		t.Fatalf("union = %v", u.OIDs())
	}

	if h.Name() == "" {
		t.Fatal("empty name")
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestOnPinsExactlyOneCall: the view On returns must route its calls to the
// pinned device, and the pin must not outlive the view. This replaces the
// old engine-global ForceNext, whose pending pin outranked even
// input-ownership forcing on the *next* routed call — so the leak probe
// here is an operator whose input the CPU engine owns: ownership must force
// it to the CPU, which any surviving pin would override.
func TestOnPinsExactlyOneCall(t *testing.T) {
	h := newEngine(t)
	tiny := i32Col("t1", randI32(512, 100, 7))
	other := i32Col("t2", randI32(512, 100, 8))

	// Pinned view: the pin wins over the unpinned rule.
	if _, err := h.On("GPU").Select(tiny, nil, 0, 49, true, true); err != nil {
		t.Fatal(err)
	}
	if got := h.Placements()["select"]; got["GPU"] != 1 || got["CPU"] != 0 {
		t.Fatalf("pinned select did not run on the GPU: %v", got)
	}

	// Leak probe: a CPU-owned intermediate forces the unpinned call to the
	// CPU — unless a pin survived the view, since pins outrank ownership.
	cpuDev := h.devs[0]
	sel, err := cpuDev.Eng.Select(other, nil, 0, 49, true, true)
	if err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	h.owner[sel] = cpuDev
	h.mu.Unlock()
	if _, err := h.Project(sel, other); err != nil {
		t.Fatal(err)
	}
	if got := h.Placements()["leftfetchjoin"]; got["CPU"] != 1 || got["GPU"] != 0 {
		t.Fatalf("pin leaked past the view (ownership forcing overridden): %v", got)
	}

	// Unknown class labels mean "no pin": ownership forcing applies again.
	if _, err := h.On("TPU").Project(sel, other); err != nil {
		t.Fatal(err)
	}
	if got := h.Placements()["leftfetchjoin"]; got["CPU"] != 2 || got["GPU"] != 0 {
		t.Fatalf("unknown label did not degrade to unpinned routing: %v", got)
	}
}

// --- fallback regression tests ---

// TestFallbackJoinsAllDeviceErrors is the regression test for the
// error-masking bug: when the fallback itself also fails, the returned
// error must carry every device's failure, not just the first one's.
func TestFallbackJoinsAllDeviceErrors(t *testing.T) {
	h := newEngine(t)
	// Selecting on an OID column is refused by every device for the same
	// reason — exactly the case where the old code returned only the first
	// device's error and hid why the fallback also died.
	oids := bat.NewOID("o", mem.AllocU32(64))
	_, err := h.Select(oids, nil, 0, 1, true, true)
	if err == nil {
		t.Fatal("select on an OID column must fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "CPU:") || !strings.Contains(msg, "GPU:") {
		t.Fatalf("fallback error hides a device failure: %q", msg)
	}
}

// TestFallbackReleasesFailedAttemptState is the regression test for the
// failed-attempt output leak: after an OOM-triggered fallback, the failing
// device must hold no leftover state from the failed attempt — the same
// footprint a clean run on the fallback device leaves (zero bytes on the
// GPU), rather than keeping input uploads and synced-off intermediates
// resident and worsening the very pressure that caused the fallback.
func TestFallbackReleasesFailedAttemptState(t *testing.T) {
	h, err := New(2, 3<<20) // 3 MB GPU
	if err != nil {
		t.Fatal(err)
	}
	gpuEng := h.Devices()[1].Eng

	// A GPU-owned intermediate forces the next operator onto the GPU.
	small := i32Col("small", randI32(1<<18, 1000, 23)) // 1 MB
	sel, err := h.On("GPU").Select(small, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if h.OwnerClass(sel) != "GPU" {
		t.Fatalf("selection owned by %q, want GPU", h.OwnerClass(sel))
	}

	// Projecting a 16 MB column through it cannot fit on the 3 MB device:
	// the attempt fails mid-operator and falls back to the CPU.
	big := i32Col("big", randI32(4<<20, 1000, 24))
	prj, err := h.Project(sel, big)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if h.OwnerClass(prj) != "CPU" {
		t.Fatalf("fallback result owned by %q, want CPU", h.OwnerClass(prj))
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	// A clean run on the fallback device leaves nothing on the GPU; after
	// the fallback the failed attempt must not either.
	if n := gpuEng.Device().Allocated(); n != 0 {
		t.Fatalf("failed attempt leaked %d bytes on the GPU after fallback", n)
	}
	if n := gpuEng.Memory().Entries(); n != 0 {
		t.Fatalf("failed attempt left %d Memory Manager entries on the GPU", n)
	}
	// The fallback's result is still correct.
	if err := h.Sync(prj); err != nil {
		t.Fatal(err)
	}
	if prj.Len() == 0 {
		t.Fatal("fallback produced no rows")
	}
}

// TestBuildHashFallbackShedsFailedAttemptState: the BuildHash fallback
// chain must shed the failing device's leftover state exactly like run()
// does — a GPU-owned build column synced off an OOM'd GPU may not stay
// resident there after the build lands on the CPU.
func TestBuildHashFallbackShedsFailedAttemptState(t *testing.T) {
	h, err := New(2, 3<<20) // 3 MB GPU
	if err != nil {
		t.Fatal(err)
	}
	gpuEng := h.Devices()[1].Eng

	// A GPU-owned 1 MB intermediate: ownership forces the build onto the
	// GPU, whose ~4x table scratch cannot fit the 3 MB device.
	base := i32Col("base", randI32(1<<18, 1<<20, 26))
	ids := bat.NewOID("ids", mem.AllocU32(1<<18))
	for i := range ids.OIDs() {
		ids.OIDs()[i] = uint32(i)
	}
	prj, err := h.On("GPU").Project(ids, base)
	if err != nil {
		t.Fatal(err)
	}
	if h.OwnerClass(prj) != "GPU" {
		t.Fatalf("build column owned by %q, want GPU", h.OwnerClass(prj))
	}

	ht, err := h.BuildHash(prj)
	if err != nil {
		t.Fatalf("buildhash fallback failed: %v", err)
	}
	defer ht.Release()
	if got := h.Placements()["buildhash"]; got["CPU"] != 1 {
		t.Fatalf("build did not land on the CPU: %v", got)
	}
	if err := h.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := gpuEng.Device().Allocated(); n != 0 {
		t.Fatalf("failed build attempt leaked %d bytes on the GPU", n)
	}
	if n := gpuEng.Memory().Entries(); n != 0 {
		t.Fatalf("failed build attempt left %d Memory Manager entries on the GPU", n)
	}
}
