// Package mal mirrors the real plan-layer shapes lockorder recognises.
package mal

type Template struct{}

func (t *Template) Run(p map[string]float64) (int, error)      { return 0, nil }
func (t *Template) RunOn(o, p map[string]float64) (int, error) { return 0, nil }

func RunQuery(eng, plan interface{}) (int, error) { return 0, nil }
