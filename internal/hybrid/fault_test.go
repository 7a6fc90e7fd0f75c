package hybrid

import (
	"testing"

	"repro/internal/cl"
)

// gpuDev returns the GPU placement target.
func gpuDev(t *testing.T, h *Engine) *Dev {
	t.Helper()
	for _, d := range h.Devices() {
		if d.Eng.Device().Discrete {
			return d
		}
	}
	t.Fatal("no GPU device")
	return nil
}

// TestTransientFailureRetriesSameDevice injects a one-shot command failure
// on the GPU: the chain must absorb it with a same-device retry — no
// fallback, no error — and count the retry.
func TestTransientFailureRetriesSameDevice(t *testing.T) {
	h := newEngine(t)
	gpu := gpuDev(t, h)
	vals := randI32(500_000, 1000, 9)
	col := i32Col("c", vals)

	gpu.Eng.Device().InjectFaults(cl.FaultPlan{TransientCommands: []int64{1}})
	sel, err := h.On(gpu.Label).Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatalf("transient failure was not absorbed: %v", err)
	}
	if got := h.TransientRetries(); got != 1 {
		t.Fatalf("TransientRetries = %d, want 1", got)
	}
	if !gpu.Alive() {
		t.Fatal("a transient failure must not kill the device")
	}
	if h.Placements()["select"][gpu.Label] == 0 {
		t.Fatal("retry must have run on the same device")
	}
	if err := h.Sync(sel); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range vals {
		if v >= 0 && v <= 499 {
			want++
		}
	}
	if sel.Len() != want {
		t.Fatalf("retried select returned %d rows, want %d", sel.Len(), want)
	}
	if err := h.Finish(); err != nil {
		t.Fatalf("latched queue errors resurfaced at Finish: %v", err)
	}
}

// TestDeviceDeathFallsBackAndStaysDead kills the GPU mid-plan: the pinned
// operator must complete on the CPU, the device must latch dead, and
// subsequent routing (pick, On, placement) must skip it.
func TestDeviceDeathFallsBackAndStaysDead(t *testing.T) {
	h := newEngine(t)
	gpu := gpuDev(t, h)
	vals := randI32(300_000, 1000, 10)
	col := i32Col("c", vals)

	gpu.Eng.Device().InjectFaults(cl.FaultPlan{DieAtCommand: 1})
	sel, err := h.On(gpu.Label).Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatalf("death did not fall back: %v", err)
	}
	if gpu.Alive() {
		t.Fatal("device must latch dead")
	}
	if h.Placements()["select"]["CPU"] == 0 {
		t.Fatal("fallback must have run on the CPU")
	}
	if err := h.Sync(sel); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range vals {
		if v >= 0 && v <= 499 {
			want++
		}
	}
	if sel.Len() != want {
		t.Fatalf("fallback select returned %d rows, want %d", sel.Len(), want)
	}

	// Routing now avoids the corpse: a pin to its label degrades to an
	// unpinned call, and fresh unpinned calls never pick it.
	col2 := i32Col("c2", randI32(100_000, 1000, 11))
	sel2, err := h.On(gpu.Label).Select(col2, nil, 0, 99, true, true)
	if err != nil {
		t.Fatalf("routing around dead device failed: %v", err)
	}
	if lbl := h.OwnerClass(sel2); lbl == gpu.Label {
		t.Fatalf("result owned by dead device %q", lbl)
	}
	if err := h.Finish(); err != nil {
		t.Fatalf("dead device's latched errors resurfaced at Finish: %v", err)
	}
	if got := gpu.Eng.Device().Allocated(); got != 0 {
		t.Fatalf("dead device still holds %d bytes (leak)", got)
	}
}

// TestReviveRejoinsRouting brings a killed device back: routing must use it
// again.
func TestReviveRejoinsRouting(t *testing.T) {
	h := newEngine(t)
	gpu := gpuDev(t, h)
	gpu.Eng.Device().Kill()
	if gpu.Alive() {
		t.Fatal("Kill must latch dead")
	}
	gpu.Eng.Device().Revive()
	if !gpu.Alive() {
		t.Fatal("Revive must clear the latch")
	}
	col := i32Col("c", randI32(500_000, 1000, 12))
	sel, err := h.On(gpu.Label).Select(col, nil, 0, 499, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if lbl := h.OwnerClass(sel); lbl != gpu.Label {
		t.Fatalf("revived device not used: result owned by %q", lbl)
	}
}
