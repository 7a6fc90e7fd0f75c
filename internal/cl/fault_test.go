package cl

import (
	"errors"
	"testing"

	"repro/internal/mem"
)

func TestInjectedAllocFailure(t *testing.T) {
	dev := NewGPUDevice(64 << 20)
	ctx := NewContext(dev)
	dev.InjectFaults(FaultPlan{FailAllocs: []int64{2}})

	if _, err := ctx.CreateBuffer(1024); err != nil {
		t.Fatalf("allocation 1 must succeed: %v", err)
	}
	if _, err := ctx.CreateBuffer(1024); !errors.Is(err, ErrOutOfDeviceMemory) {
		t.Fatalf("allocation 2 = %v, want injected ErrOutOfDeviceMemory", err)
	}
	if _, err := ctx.CreateBuffer(1024); err != nil {
		t.Fatalf("allocation 3 must succeed again: %v", err)
	}
	if got := dev.Allocated(); got != 2048 {
		t.Fatalf("failed allocation must not charge capacity: allocated %d, want 2048", got)
	}
}

func TestInjectedTransientFailsExactlyOnce(t *testing.T) {
	dev := NewGPUDevice(64 << 20)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	dev.InjectFaults(FaultPlan{TransientCommands: []int64{1}})

	buf, err := ctx.CreateBuffer(4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	src := mem.BytesOfU32([]uint32{1, 2, 3, 4})
	if err := q.EnqueueWrite(buf, src, nil).Wait(); !errors.Is(err, ErrTransient) {
		t.Fatalf("command 1 = %v, want ErrTransient", err)
	}
	// The ordinal is consumed: the retry succeeds on the same device.
	if err := q.EnqueueWrite(buf, src, nil).Wait(); err != nil {
		t.Fatalf("retried command must succeed: %v", err)
	}
	_ = q.Finish()
	if dev.Dead() {
		t.Fatal("a transient failure must not kill the device")
	}
}

func TestDeathAtCommandLatches(t *testing.T) {
	dev := NewGPUDevice(64 << 20)
	ctx := NewContext(dev)
	q := NewQueue(ctx)

	buf, err := ctx.CreateBuffer(4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	dev.InjectFaults(FaultPlan{DieAtCommand: 2})
	src := mem.BytesOfU32([]uint32{9, 9, 9, 9})
	if err := q.EnqueueWrite(buf, src, nil).Wait(); err != nil {
		t.Fatalf("command 1 (pre-death) must succeed: %v", err)
	}
	if err := q.EnqueueWrite(buf, src, nil).Wait(); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("command 2 = %v, want ErrDeviceLost", err)
	}
	if !dev.Dead() {
		t.Fatal("device must latch dead at the fatal command")
	}
	// Everything after the death fails too: commands and allocations.
	if err := q.EnqueueWrite(buf, src, nil).Wait(); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("post-death command = %v, want ErrDeviceLost", err)
	}
	if _, err := ctx.CreateBuffer(16); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("post-death allocation = %v, want ErrDeviceLost", err)
	}
	// Releasing buffers is pure bookkeeping and must work on a dead device,
	// or leak assertions after a failure could never pass.
	if err := buf.Release(); err != nil {
		t.Fatalf("release on dead device: %v", err)
	}
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("allocated on dead device after release = %d, want 0", got)
	}

	dev.Revive()
	if dev.Dead() {
		t.Fatal("Revive must clear the latch")
	}
	if _, err := ctx.CreateBuffer(16); err != nil {
		t.Fatalf("allocation after Revive: %v", err)
	}
}

func TestFaultErrorPropagatesThroughDependents(t *testing.T) {
	dev := NewGPUDevice(64 << 20)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	buf, err := ctx.CreateBuffer(4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	dev.InjectFaults(FaultPlan{TransientCommands: []int64{1}})
	bad := q.EnqueueWrite(buf, mem.BytesOfU32([]uint32{1, 2, 3, 4}), nil)
	dep := q.EnqueueMarker([]*Event{bad})
	if err := dep.Wait(); !errors.Is(err, ErrTransient) {
		t.Fatalf("dependent of injected failure = %v, want wrapped ErrTransient", err)
	}
	_ = q.Finish()
}

// TestCleanupRunsAfterFailure: a cleanup command runs after a failed
// dependency and on a device that died at it, where a host command would
// only report the failure.
func TestCleanupRunsAfterFailure(t *testing.T) {
	dev := NewGPUDevice(64 << 20)
	ctx := NewContext(dev)
	q := NewQueue(ctx)
	buf, err := ctx.CreateBuffer(4 * 4)
	if err != nil {
		t.Fatal(err)
	}
	dev.InjectFaults(FaultPlan{DieAtCommand: 1})
	bad := q.EnqueueWrite(buf, mem.BytesOfU32([]uint32{1, 2, 3, 4}), nil)
	ran := 0
	host := q.EnqueueHost("host", func() error { ran++; return nil }, []*Event{bad})
	if err := host.Wait(); !errors.Is(err, ErrDeviceLost) || ran != 0 {
		t.Fatalf("host command after a failure: err %v, ran %d; want ErrDeviceLost and not run", err, ran)
	}
	cleanup := q.EnqueueCleanup("cleanup", func() { ran++ }, []*Event{bad})
	if err := cleanup.Wait(); err != nil || ran != 1 {
		t.Fatalf("cleanup after a failure on a dead device: err %v, ran %d; want nil and run once", err, ran)
	}
	_ = q.Finish()
}
