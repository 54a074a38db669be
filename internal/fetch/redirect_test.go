package fetch

import (
	"strings"
	"testing"

	"pipesim/internal/isa"
)

// TestRedirectRestartsSupply: after Redirect, every engine supplies the
// stream from the new address and ResumePC tracks the next instruction.
func TestRedirectRestartsSupply(t *testing.T) {
	img := straightLine(t, 20)
	build := func(kind string) (Engine, *harness) {
		switch kind {
		case "pipe":
			eng, sys := newPipeEngine(t, img, memCfg(1, 8, false),
				PipeConfig{LineBytes: 16, IQBytes: 16, IQBBytes: 16, TruePrefetch: true}, 128)
			return eng, newHarness(t, img, eng, sys, neverTaken)
		case "conv":
			eng, sys := newConvEngine(t, img, memCfg(1, 8, false), 128, 16)
			return eng, newHarness(t, img, eng, sys, neverTaken)
		default:
			eng, sys := newTIBEngine(t, img, memCfg(1, 8, false), 2, 16)
			return eng, newHarness(t, img, eng, sys, neverTaken)
		}
	}
	for _, kind := range []string{"pipe", "conv", "tib"} {
		eng, h := build(kind)
		// Run a few cycles, consume some instructions.
		for h.cycle = 1; h.cycle <= 30; h.cycle++ {
			h.sys.BeginCycle(h.cycle)
			eng.Tick()
			if len(h.trace) < 5 {
				if _, _, ok := eng.Take(); ok {
					h.trace = append(h.trace, 0)
				}
			}
			h.sys.EndCycle()
		}
		if got := eng.ResumePC(); got != 5*4 {
			t.Fatalf("%s: ResumePC = %#x after 5 consumes, want %#x", kind, got, 5*4)
		}
		// Redirect back to the start and verify supply resumes there.
		eng.Redirect(0)
		if got := eng.ResumePC(); got != 0 {
			t.Fatalf("%s: ResumePC after Redirect = %#x", kind, got)
		}
		var first uint32 = 0xFFFFFFFF
		for ; h.cycle <= 200; h.cycle++ {
			h.sys.BeginCycle(h.cycle)
			eng.Tick()
			if pc, _, ok := eng.Head(); ok {
				first = pc
				break
			}
			h.sys.EndCycle()
		}
		if first != 0 {
			t.Fatalf("%s: supply after Redirect starts at %#x, want 0", kind, first)
		}
	}
}

// TestRedirectWithPendingBranchPanics: the caller contract requires a
// drained pipeline; a pending PBR must be caught loudly.
func TestRedirectWithPendingBranchPanics(t *testing.T) {
	img, _, _ := loopProgram(t, 2, 12, 4)
	eng, sys := newPipeEngine(t, img, memCfg(1, 8, false),
		PipeConfig{LineBytes: 16, IQBytes: 16, IQBBytes: 16, TruePrefetch: true}, 128)
	h := newHarness(t, img, eng, sys, neverTaken)
	// Consume up to and including the PBR, without resolving it.
	consumed := 0
	for h.cycle = 1; h.cycle <= 200 && consumed < 15; h.cycle++ {
		h.sys.BeginCycle(h.cycle)
		eng.Tick()
		if _, w, ok := eng.Take(); ok {
			consumed++
			if isa.WordIsBranch(w) {
				break
			}
		}
		h.sys.EndCycle()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Redirect with a pending branch did not panic")
		}
	}()
	eng.Redirect(0)
}

func TestConfigValidateErrors(t *testing.T) {
	badPipe := []PipeConfig{
		{IQBytes: 2, IQBBytes: 16, LineBytes: 16},  // IQ too small
		{IQBytes: 16, IQBBytes: 8, LineBytes: 16},  // IQB < line
		{IQBytes: 15, IQBBytes: 16, LineBytes: 16}, // not word multiple
		{IQBytes: 16, IQBBytes: 18, LineBytes: 16}, // IQB not word multiple
	}
	for _, c := range badPipe {
		if err := c.Validate(); err == nil {
			t.Errorf("PipeConfig %+v accepted", c)
		}
	}
	badConv := []ConvConfig{
		{ChunkBytes: 2, LineBytes: 16},  // chunk too small
		{ChunkBytes: 6, LineBytes: 16},  // not word multiple
		{ChunkBytes: 32, LineBytes: 16}, // chunk > line
	}
	for _, c := range badConv {
		if err := c.Validate(); err == nil {
			t.Errorf("ConvConfig %+v accepted", c)
		}
	}
}

func TestStreamerString(t *testing.T) {
	var s streamer
	s.reset(0x40)
	out := s.String()
	for _, want := range []string{"0x40", "blocked=false", "pending=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q missing %q", out, want)
		}
	}
}
