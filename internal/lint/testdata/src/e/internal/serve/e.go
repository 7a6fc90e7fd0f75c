// lockorder cases, serve side: plan execution must not run while the
// flight-map mutex is held, including under a deferred unlock.
package serve

import (
	"sync"

	"repro/internal/hybrid"
	"repro/internal/mal"
)

type Server struct {
	fmu    sync.Mutex
	flight map[string]int
}

func bad(sv *Server, t *mal.Template) {
	sv.fmu.Lock()
	sv.flight["q"] = 1
	_, _ = t.Run(nil) // want `Template\.Run while holding sv\.fmu \(flight map\)`
	sv.fmu.Unlock()
}

func badDeferred(sv *Server, h *hybrid.Engine) {
	sv.fmu.Lock()
	defer sv.fmu.Unlock()
	h.Devices() // want `engine call Devices while holding sv\.fmu \(flight map\)`
}

func good(sv *Server, t *mal.Template) {
	sv.fmu.Lock()
	sv.flight["q"] = 1
	sv.fmu.Unlock()
	_, _ = t.Run(nil) // lock dropped before execution
}

// goodClosureScopedLock: a deferred unlock inside a closure ends that
// closure's critical section; execution after the closure is clean.
func goodClosureScopedLock(sv *Server, t *mal.Template) {
	busy := func() bool {
		sv.fmu.Lock()
		defer sv.fmu.Unlock()
		return len(sv.flight) > 0
	}
	for busy() {
	}
	_, _ = t.Run(nil) // outside any critical section
}

func badInsideClosure(sv *Server, t *mal.Template) {
	go func() {
		sv.fmu.Lock()
		defer sv.fmu.Unlock()
		_, _ = t.Run(nil) // want `Template\.Run while holding sv\.fmu \(flight map\)`
	}()
}

// badBuildUnderLock: a plan build is plan execution too.
func badBuildUnderLock(sv *Server, plan interface{}) {
	sv.fmu.Lock()
	defer sv.fmu.Unlock()
	_, _ = mal.RunQuery(nil, plan) // want `RunQuery while holding sv\.fmu \(flight map\)`
}

// badRequestUnderLock: so is a nested request.
func badRequestUnderLock(sv *Server) {
	sv.fmu.Lock()
	_, _ = sv.ExecuteCtx("q") // want `Server\.ExecuteCtx while holding sv\.fmu \(flight map\)`
	sv.fmu.Unlock()
}

func (sv *Server) Execute(name string) (int, error)    { return 0, nil }
func (sv *Server) ExecuteCtx(name string) (int, error) { return 0, nil }
