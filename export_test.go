package pipesim

import "pipesim/internal/program"

// ProgramImage exposes a program's image to the external tests, so they can
// check which programs share one.
func ProgramImage(p *Program) *program.Image { return p.img }
