package mal

import (
	"os"
	"testing"

	"repro/internal/core"
)

// TestMain runs the package's equivalence suites with the Memory Manager's
// use-after-recycle guard on (core.PoisonFreed): a kernel still reading a
// buffer whose bytes went back to the free-list shows as a wrong answer or a
// -race report, not as stale but plausible values.
func TestMain(m *testing.M) {
	core.PoisonFreed()
	os.Exit(m.Run())
}
