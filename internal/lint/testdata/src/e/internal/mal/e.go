// lockorder cases, plan-cache side: neither Template.Run nor an
// Execution's interpreter may run while PlanCache.mu is held.
package mal

import "sync"

type Template struct{}

func (t *Template) Run(p map[string]float64) (int, error) { return 0, nil }

type PInstr struct{}

type Execution struct{}

func (e *Execution) execute(batch []*PInstr) {}
func (e *Execution) Close()                  {}

type Session struct{ Execution }

type PlanCache struct {
	mu   sync.Mutex
	tpls map[string]*Template
}

func bad(c *PlanCache, key string) {
	c.mu.Lock()
	t := c.tpls[key]
	_, _ = t.Run(nil) // want `Template\.Run while holding c\.mu \(plan cache\)`
	c.mu.Unlock()
}

func good(c *PlanCache, key string) {
	c.mu.Lock()
	t := c.tpls[key]
	c.mu.Unlock()
	_, _ = t.Run(nil) // lock dropped before execution
}

func badExecute(c *PlanCache, e *Execution) {
	c.mu.Lock()
	e.execute(nil) // want `Execution\.execute while holding c\.mu \(plan cache\)`
	c.mu.Unlock()
}

// badPromoted: an Execution method reached through the Session embedding it
// is still plan execution.
func badPromoted(c *PlanCache, s *Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Close() // want `Execution\.Close while holding c\.mu \(plan cache\)`
}

func goodExecute(c *PlanCache, e *Execution) {
	c.mu.Lock()
	c.tpls = nil
	c.mu.Unlock()
	e.execute(nil) // lock dropped before execution
}
