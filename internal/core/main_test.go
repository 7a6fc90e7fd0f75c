package core

import (
	"os"
	"testing"
)

// TestMain runs every suite of the package — the cross-engine and
// memory-pressure equivalence checks among them — with freed bytes poisoned:
// a kernel still reading a buffer whose bytes went back to the free-list
// then computes a wrong answer (or trips -race) instead of reading stale but
// plausible values.
func TestMain(m *testing.M) {
	PoisonFreed()
	os.Exit(m.Run())
}
