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
