//go:build unix

package cl

import (
	"syscall"
	"testing"
	"time"
)

// cpuTime returns the CPU time the process has used so far.
func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestIdleEngineBurnsNoCPU: after a burst of launches the workers spin for a
// bounded window and park; from then on the process's CPU time stops
// growing, though the workers live until their idle timeout. (No Close:
// the workers must stay alive for the check, and retire on their own.)
func TestIdleEngineBurnsNoCPU(t *testing.T) {
	host.drain()
	dev := NewCPUDevice(2)
	q := NewQueue(NewContext(dev))
	burst(t, q, Launch{Name: "pair"})
	waitNoSpinner(t)
	const window = 200 * time.Millisecond
	before := cpuTime(t)
	time.Sleep(window)
	if used := cpuTime(t) - before; used > window/10 {
		t.Fatalf("an idle engine used %v of CPU time in %v", used, window)
	}
	if n := host.liveWorkers(); n == 0 {
		t.Fatal("no worker alive: the check measured nothing")
	}
}
