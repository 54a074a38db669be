package core

import (
	"fmt"
	"io"

	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

// Retired is one retired instruction: the cycle it retired in, its PC and
// the instruction, as a post-mortem tail or a trace line shows it.
type Retired struct {
	Cycle uint64
	PC    uint32
	Inst  isa.Inst
}

// String formats the retirement as one trace line.
func (r Retired) String() string {
	return fmt.Sprintf("%10d  %05x  %s", r.Cycle, r.PC, r.Inst)
}

// retiredAt decodes the instruction that retired at pc from the image the
// simulator ran. The fetch engines read the image too, and a PC past the
// text segment reads as a NOP there as here.
func retiredAt(img *program.Image, cycle uint64, pc uint32) Retired {
	w, _, _ := img.InstAt(pc)
	return Retired{Cycle: cycle, PC: pc, Inst: isa.Decode(w)}
}

// Retirements decodes the KindRetire events among events against img, the
// image the simulator ran (Simulator.Image), oldest first.
func Retirements(img *program.Image, events []obs.Event) []Retired {
	out := make([]Retired, 0, len(events))
	for _, e := range events {
		if e.Kind == obs.KindRetire {
			out = append(out, retiredAt(img, e.Cycle, e.Addr))
		}
	}
	return out
}

// TraceWriter is a retire-only probe writing one line per retired
// instruction (Retired.String) to W, stopping after Limit lines (0 =
// unlimited). Img is the image the simulator runs (Simulator.Image).
type TraceWriter struct {
	Img   *program.Image
	W     io.Writer
	Limit uint64
	n     uint64
}

// Kinds declares the writer's one kind.
func (t *TraceWriter) Kinds() obs.Kinds { return obs.KindsOf(obs.KindRetire) }

// Event writes a retirement until the limit is reached.
func (t *TraceWriter) Event(e obs.Event) {
	if e.Kind != obs.KindRetire || (t.Limit > 0 && t.n >= t.Limit) {
		return
	}
	t.n++
	fmt.Fprintln(t.W, retiredAt(t.Img, e.Cycle, e.Addr))
}
