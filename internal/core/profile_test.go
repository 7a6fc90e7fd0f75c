package core

import (
	"strings"
	"testing"

	"repro/internal/cl"
)

func TestCalibrateBothDevices(t *testing.T) {
	for _, dev := range []*cl.Device{cl.NewCPUDevice(4), cl.NewGPUDevice(256 << 20)} {
		p, err := Calibrate(dev)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if p.ScanBandwidth <= 0 || p.LaunchOverhead <= 0 {
			t.Fatalf("%s: zero rates in %v", dev.Name, p)
		}
		if p.SortRows[4] <= 0 || p.SortRows[8] <= 0 {
			t.Fatalf("%s: sort rates missing", dev.Name)
		}
		if bits := p.RadixBits(dev); bits != 4 && bits != 8 {
			t.Fatalf("%s: profile picked radix %d", dev.Name, bits)
		}
		if !strings.Contains(p.String(), "scan") {
			t.Fatalf("%s: profile rendering broken", dev.Name)
		}
	}
}

func TestCalibrateScalesToTinyDevice(t *testing.T) {
	dev := cl.NewGPUDevice(2 << 20)
	p, err := Calibrate(dev)
	if err != nil {
		t.Fatalf("tiny device calibration failed: %v", err)
	}
	if p.ScanBandwidth <= 0 {
		t.Fatal("tiny device produced an empty profile")
	}
}

func TestProfileDrivesSortRadix(t *testing.T) {
	// Attach a synthetic profile preferring 4-bit digits to a CPU engine
	// (whose class default is 8) and verify sort still works and the
	// selection hook honours the profile.
	e := New(cl.NewCPUDevice(2))
	if e.sortRadixBits() != 8 {
		t.Fatalf("CPU default radix = %d, want 8", e.sortRadixBits())
	}
	e.SetProfile(&Profile{SortRows: map[int]float64{4: 100, 8: 50}})
	if e.sortRadixBits() != 4 {
		t.Fatalf("profile-selected radix = %d, want 4", e.sortRadixBits())
	}
	if e.ProfileOf() == nil {
		t.Fatal("profile not attached")
	}
	col := i32Col("c", randI32(10000, 1<<20, 21))
	sorted, _, err := e.Sort(col)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(sorted); err != nil {
		t.Fatal(err)
	}
	s := sorted.I32s()
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("profile-radix sort produced unsorted output")
		}
	}
	// Empty profile falls back to the class default.
	e.SetProfile(&Profile{SortRows: map[int]float64{}})
	if e.sortRadixBits() != 8 {
		t.Fatal("empty profile must fall back to the class default")
	}
}

func TestThetaJoinOracle(t *testing.T) {
	lv := []int32{1, 5, 3, 7}
	rv := []int32{2, 4, 6}
	for _, e := range engines() {
		l, r := i32Col("l", lv), i32Col("r", rv)
		lo, ro, err := e.ThetaJoin(l, r, 2) // ops.Gt
		if err != nil {
			t.Fatal(err)
		}
		los := syncedOIDs(t, e, lo)
		ros := syncedOIDs(t, e, ro)
		want := 0
		for _, a := range lv {
			for _, b := range rv {
				if a > b {
					want++
				}
			}
		}
		if len(los) != want {
			t.Fatalf("%s: theta pairs = %d, want %d", e.Name(), len(los), want)
		}
		for i := range los {
			if !(lv[los[i]] > rv[ros[i]]) {
				t.Fatalf("%s: pair %d violates predicate", e.Name(), i)
			}
		}
	}
}

// TestCalibrateMemoisedPerSpec: identical device specifications share one
// calibration (the stored-profile semantics of §7's "automatically
// generated device profiles"); a different specification calibrates anew.
func TestCalibrateMemoisedPerSpec(t *testing.T) {
	a, err := Calibrate(cl.NewGPUDevice(128 << 20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(cl.NewGPUDevice(128 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical simulated specs did not share a calibration")
	}
	c, err := Calibrate(cl.NewGPUDevice(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct capacities must calibrate separately")
	}
}
