package pipesim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"pipesim"
)

// traceDigests pins the sha256 of the full retirement trace
// (Simulation.TraceTo with no limit) of five machines: every retired
// instruction's cycle, PC and disassembly, in order.
var traceDigests = map[string]string{
	"fig5b/16-16/128": "d9632d64980f47d750d5a6845785c18e0392b33ae4b4148c6850bb90da22422f",
	"fig4a/conv/16":   "7adc6a3f59599a50ce8ec090371687517239a5fc1f7647d54768e761c55acbaa",
	"tib":             "41ca8a7c705d4f2a00f70d07ff0f096fa122f4f8a5ce9e9b9e2aaf8c63f3a1d6",
	"native":          "82f10152d960d04bea2fa447fbd0a4209302f7df1aff5db886d34ffc9e7ec081",
	"interrupt":       "cb4fca6dc5a7e16f4e586a6625f3fba40e5cfa7b3388c09a67ffadd5850ff7c4",
}

// deadlockDetailDigests pins the sha256 of each strategy's Detail() report
// for the R7-without-a-load deadlock: diagnosis, retirement tail and
// flight-recorder tail.
var deadlockDetailDigests = map[pipesim.Strategy]string{
	pipesim.StrategyPIPE:         "bf7ac2a8c5fc3ffaf4fef8a82363a4f7f32d369dd27c72f801ca2f393d99408c",
	pipesim.StrategyConventional: "d54adf34eb128f16ed16256b29b7294eb859ba477b8c49a783f2874521a6fd7c",
	pipesim.StrategyTIB:          "24e8174ac336e68e32cf444a45f242762f222a07bcf29472ce399e2f40d2b628",
}

// interruptSource sums 1..40 while a handler on the background register
// bank bumps a memory counter once.
const interruptSource = `
        li    r1, 40
        li    r2, 0
        setb  b0, loop
loop:   add   r2, r2, r1
        addi  r1, r1, -1
        pbr   ne, r1, b0, 2
        nop
        nop
        la    r3, out
        st    0(r3)
        mov   r7, r2
        halt

isr:    la    r1, counter
        ld    0(r1)
        mov   r2, r7
        addi  r2, r2, 1
        st    0(r1)
        mov   r7, r2
        bank
        pbr   al, r0, b7, 0

        .data
out:     .word 0
counter: .word 0
`

// TestTraceOutputPinned checks that the retirement trace names, for every
// retired instruction, the cycle, PC and instruction it named when commit
// 76e57dd recorded it.
func TestTraceOutputPinned(t *testing.T) {
	livermore, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	intr, err := pipesim.Assemble(interruptSource)
	if err != nil {
		t.Fatal(err)
	}
	isr, ok := intr.Lookup("isr")
	if !ok {
		t.Fatal("no isr symbol")
	}
	tib := pipesim.DefaultConfig()
	tib.Strategy = pipesim.StrategyTIB
	native := pipesim.DefaultConfig()
	native.NativeFormat = true
	irq := pipesim.DefaultConfig()
	irq.MemAccessTime = 3
	irq.InterruptAt = 60
	irq.InterruptVector = isr
	machines := []struct {
		id   string
		cfg  pipesim.Config
		prog *pipesim.Program
	}{
		{"fig5b/16-16/128", figureConfig(t, "16-16", 128, 6, 8), livermore},
		{"fig4a/conv/16", figureConfig(t, "conv", 16, 1, 4), livermore},
		{"tib", tib, livermore},
		{"native", native, livermore},
		{"interrupt", irq, intr},
	}
	for _, m := range machines {
		sim, err := pipesim.NewSimulation(m.cfg, m.prog)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		sim.TraceTo(h, 0)
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", m.id, err)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), traceDigests[m.id]; got != want {
			t.Errorf("%q: %q, // trace drifted, pinned %q", m.id, got, want)
		}
	}
}

// TestDeadlockDetailPinned checks each strategy's deadlock report against
// the text commit 76e57dd printed.
func TestDeadlockDetailPinned(t *testing.T) {
	prog, err := pipesim.Assemble(`
        li   r1, 1
        add  r2, r7, r1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []pipesim.Strategy{pipesim.StrategyPIPE, pipesim.StrategyConventional, pipesim.StrategyTIB} {
		cfg := pipesim.DefaultConfig()
		cfg.Strategy = strat
		cfg.TIBEntries = 4
		cfg.TIBLineBytes = 16
		cfg.WatchdogCycles = 2_000
		_, err := pipesim.Run(cfg, prog)
		var dl *pipesim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run err = %v, want *DeadlockError", strat, err)
		}
		sum := sha256.Sum256([]byte(dl.Detail()))
		if got, want := hex.EncodeToString(sum[:]), deadlockDetailDigests[strat]; got != want {
			t.Errorf("%q: %q, // Detail drifted, pinned %q", strat, got, want)
		}
	}
}
