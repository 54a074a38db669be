package pipesim

import (
	"pipesim/internal/core"
	"pipesim/internal/program"
)

// ProgramImage exposes a program's image to the external tests, so they can
// check which programs share one.
func ProgramImage(p *Program) *program.Image { return p.img }

// CoreSimulator exposes a simulation's engine to the external tests, so
// they can read its work counters.
func CoreSimulator(s *Simulation) *core.Simulator { return s.inner }
