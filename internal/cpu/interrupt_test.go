package cpu_test

import (
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/isa"
	"pipesim/internal/obs"
)

// interruptProgram: a main loop summing 1..40 into r2, plus a handler that
// increments a memory counter on its own register bank and returns. The
// handler must leave the interrupted computation bit-identical.
const interruptProgram = `
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

isr:    la    r1, counter     ; background bank: registers are free
        ld    0(r1)
        mov   r2, r7
        addi  r2, r2, 1
        st    0(r1)
        mov   r7, r2
        bank                  ; restore the interrupted context's registers
        pbr   al, r0, b7, 0   ; B7 holds the resume address

        .data
out:     .word 0
counter: .word 0
`

func runWithInterrupt(t *testing.T, strat core.FetchStrategy, at uint64) (*core.Simulator, uint64, uint64) {
	t.Helper()
	img, err := asm.Assemble(interruptProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Fetch = strat
	cfg.TIBEntries = 2
	cfg.TIBLineBytes = 16
	cfg.Mem.AccessTime = 3
	cfg.InterruptAt = at
	if at != 0 {
		isr, ok := img.Lookup("isr")
		if !ok {
			t.Fatal("no isr symbol")
		}
		cfg.InterruptVector = isr
	}
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	out, _ := img.Lookup("out")
	counter, _ := img.Lookup("counter")
	return sim, uint64(sim.ReadWord(out)), uint64(sim.ReadWord(counter))
}

func TestInterruptPreservesComputation(t *testing.T) {
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		// Baseline without interrupt.
		_, base, cnt0 := runWithInterrupt(t, strat, 0)
		if base != 820 || cnt0 != 0 {
			t.Fatalf("%v baseline: out=%d counter=%d", strat, base, cnt0)
		}
		// Interrupt mid-loop at several points.
		for _, at := range []uint64{25, 60, 111} {
			_, out, cnt := runWithInterrupt(t, strat, at)
			if out != 820 {
				t.Errorf("%v interrupt@%d: sum = %d, want 820 (context corrupted)", strat, at, out)
			}
			if cnt != 1 {
				t.Errorf("%v interrupt@%d: handler ran %d times, want 1", strat, at, cnt)
			}
		}
	}
}

func TestInterruptIsSingleLevel(t *testing.T) {
	// A second RaiseInterrupt after the first is ignored; core only raises
	// once anyway, so drive the CPU directly through a retirement probe
	// check: the handler body must appear exactly once in the retired
	// stream.
	img, err := asm.Assemble(interruptProgram)
	if err != nil {
		t.Fatal(err)
	}
	isr, _ := img.Lookup("isr")
	cfg := core.DefaultConfig()
	cfg.InterruptAt = 30
	cfg.InterruptVector = isr
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewFlightRecorder(1 << 14)
	sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), ring))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	entries := 0
	banks := 0
	for _, e := range core.Retirements(sim.Image(), ring.Events()) {
		if e.PC == isr {
			entries++
		}
		if e.Inst.Op == isa.OpBANK {
			banks++
		}
	}
	if entries != 1 {
		t.Errorf("handler entered %d times, want 1", entries)
	}
	if banks != 1 {
		t.Errorf("retired %d BANKs, want 1 (the handler's return swap)", banks)
	}
}

func TestInterruptDuringHaltedIgnored(t *testing.T) {
	img, err := asm.Assemble("halt\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.InterruptAt = 50 // long after HALT retires
	cfg.InterruptVector = 0
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.CPU.Instructions != 1 {
		t.Errorf("instructions = %d, want 1", st.CPU.Instructions)
	}
}

// TestInterruptWithLoadsInFlight: the decoupled queues survive an
// interrupt — loads issued before the interrupt arrive (in order) during
// or after the register-only handler, and the resumed context pops them
// correctly.
func TestInterruptWithLoadsInFlight(t *testing.T) {
	img, err := asm.Assemble(`
        la    r1, vec
        ld    0(r1)
        ld    4(r1)
        ld    8(r1)
        nop
        nop
        nop
        nop
        nop
        mov   r2, r7
        mov   r3, r7
        mov   r4, r7
        halt
isr:    addi  r1, r1, 1      ; background bank, registers only
        bank
        pbr   al, r0, b7, 0
        .data
vec:    .word 100, 200, 300
`)
	if err != nil {
		t.Fatal(err)
	}
	isr, _ := img.Lookup("isr")
	for at := uint64(2); at <= 20; at++ {
		cfg := core.DefaultConfig()
		cfg.Mem.AccessTime = 6
		cfg.InterruptAt = at
		cfg.InterruptVector = isr
		sim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("interrupt@%d: %v", at, err)
		}
		if sim.Reg(2) != 100 || sim.Reg(3) != 200 || sim.Reg(4) != 300 {
			t.Fatalf("interrupt@%d: r2=%d r3=%d r4=%d; queue order broken across the interrupt",
				at, sim.Reg(2), sim.Reg(3), sim.Reg(4))
		}
	}
}

func TestInterruptNeverLandsInDelayWindow(t *testing.T) {
	// Sweep every early cycle: the interrupt must never corrupt the sum,
	// no matter where it lands relative to PBRs and delay slots.
	for at := uint64(5); at <= 120; at += 7 {
		_, out, cnt := runWithInterrupt(t, core.FetchPIPE, at)
		if out != 820 || cnt != 1 {
			t.Fatalf("interrupt@%d: out=%d counter=%d", at, out, cnt)
		}
	}
}
