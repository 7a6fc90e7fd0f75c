package mal

import "repro/internal/bat"

// Canon resolves a plan value through the rewriter's aliases, for the plan
// shape checks of package mal_test.
func (s *Session) Canon(b *bat.BAT) *bat.BAT { return s.canon(b) }

// Built returns the plan as the fluent API built it, before any pass ran.
func (s *Session) Built() []*PInstr { return s.raw }
