package synth_test

import (
	"math/rand"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/synth"
)

func TestLoopSpecValidation(t *testing.T) {
	bad := []synth.LoopSpec{
		{BodyInstr: 3, Iterations: 10},
		{BodyInstr: 20, Iterations: 0},
		{BodyInstr: 20, Iterations: 40000},
		{BodyInstr: 20, Iterations: 10, DelaySlots: 9},
		{BodyInstr: 6, Iterations: 10, Loads: 5, Stores: 5},
	}
	for _, s := range bad {
		if _, err := synth.Loop(s); err == nil {
			t.Errorf("Loop(%+v) accepted", s)
		}
	}
}

func TestLoopExactBodySize(t *testing.T) {
	for _, bodyInstr := range []int{9, 14, 29, 64, 100} {
		spec := synth.LoopSpec{BodyInstr: bodyInstr, Iterations: 5, Loads: 1, Stores: 1, DelaySlots: 3}
		img, err := synth.Loop(spec)
		if err != nil {
			t.Fatal(err)
		}
		start, ok := img.Lookup("loop")
		if !ok {
			t.Fatal("no loop label")
		}
		// The loop body runs from the label to the HALT.
		haltAt := uint32(0)
		for i, w := range img.Text {
			if isa.Decode(w).Op == isa.OpHALT {
				haltAt = program.TextBase + uint32(4*i)
				break
			}
		}
		if got := int(haltAt-start) / 4; got != bodyInstr {
			t.Errorf("body = %d instructions, want %d", got, bodyInstr)
		}
		// And it executes: iterations * body + prologue + halt.
		cfg := core.DefaultConfig()
		sim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		prologue := int(start-program.TextBase) / 4
		want := uint64(prologue + 5*bodyInstr + 1)
		if st.CPU.Instructions != want {
			t.Errorf("body %d: retired %d, want %d", bodyInstr, st.CPU.Instructions, want)
		}
	}
}

// runWithTrace executes img under cfg recording the retired PC stream.
func runWithTrace(t *testing.T, cfg core.Config, img *program.Image) ([]uint32, []uint32) {
	t.Helper()
	sim, err := core.New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewFlightRecorder(1 << 16)
	sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), ring))
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var pcs []uint32
	for _, e := range ring.Events() {
		pcs = append(pcs, e.Addr)
	}
	// Probe a slice of the data region for memory equivalence.
	base, _ := img.Lookup("data")
	var mem []uint32
	for i := 0; i < 64; i++ {
		mem = append(mem, sim.ReadWord(base+uint32(4*i)))
	}
	return pcs, mem
}

// TestDifferentialEnginesOnRandomPrograms is the heavyweight correctness
// test: every fetch strategy must execute the same dynamic stream and leave
// identical memory, on dozens of random programs across random machine
// configurations.
func TestDifferentialEnginesOnRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Random machine parameters (shared across engines).
		mk := func(strat core.FetchStrategy) core.Config {
			cfg := core.DefaultConfig()
			cfg.Fetch = strat
			cfg.CacheBytes = []int{32, 64, 128, 256}[rng.Intn(4)]
			cfg.LineBytes = []int{8, 16}[rng.Intn(2)]
			cfg.IQBytes = cfg.LineBytes
			cfg.IQBBytes = cfg.LineBytes
			cfg.Mem.AccessTime = []int{1, 2, 6}[rng.Intn(3)]
			cfg.Mem.BusWidthBytes = []int{4, 8}[rng.Intn(2)]
			cfg.Mem.Pipelined = rng.Intn(2) == 0
			cfg.TIBEntries = 2
			cfg.TIBLineBytes = 16
			return cfg
		}
		base := mk(core.FetchPIPE) // fix parameters for all three engines
		refPCs, refMem := runWithTrace(t, base, img)
		for _, strat := range []core.FetchStrategy{core.FetchConventional, core.FetchTIB} {
			cfg := base
			cfg.Fetch = strat
			pcs, mem := runWithTrace(t, cfg, img)
			if len(pcs) != len(refPCs) {
				t.Fatalf("seed %d %v: stream length %d != %d", seed, strat, len(pcs), len(refPCs))
			}
			for i := range pcs {
				if pcs[i] != refPCs[i] {
					t.Fatalf("seed %d %v: stream diverges at %d (%#x vs %#x)", seed, strat, i, pcs[i], refPCs[i])
				}
			}
			for i := range mem {
				if mem[i] != refMem[i] {
					t.Fatalf("seed %d %v: memory word %d differs (%#x vs %#x)", seed, strat, i, mem[i], refMem[i])
				}
			}
		}
	}
}

// TestDifferentialTruePrefetchSemantics: the original-chip fetch policy may
// only change timing, never the executed stream.
func TestDifferentialTruePrefetchSemantics(t *testing.T) {
	for seed := 100; seed < 115; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Mem.AccessTime = 6
		cfg.CacheBytes = 64
		on, onMem := runWithTrace(t, cfg, img)
		cfg.TruePrefetch = false
		off, offMem := runWithTrace(t, cfg, img)
		if len(on) != len(off) {
			t.Fatalf("seed %d: stream lengths differ %d vs %d", seed, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("seed %d: stream diverges at %d", seed, i)
			}
		}
		for i := range onMem {
			if onMem[i] != offMem[i] {
				t.Fatalf("seed %d: memory differs at %d", seed, i)
			}
		}
	}
}

// TestDifferentialDeepPrefetchSemantics: deeper IQB lookahead may only
// change timing, never the executed stream or memory contents.
func TestDifferentialDeepPrefetchSemantics(t *testing.T) {
	for seed := 400; seed < 415; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Mem.AccessTime = 6
		cfg.CacheBytes = 64
		cfg.IQBBytes = 32
		shallow, memS := runWithTrace(t, cfg, img)
		cfg.DeepPrefetch = true
		deep, memD := runWithTrace(t, cfg, img)
		if len(shallow) != len(deep) {
			t.Fatalf("seed %d: stream lengths differ", seed)
		}
		for i := range shallow {
			if shallow[i] != deep[i] {
				t.Fatalf("seed %d: stream diverges at %d", seed, i)
			}
		}
		for i := range memS {
			if memS[i] != memD[i] {
				t.Fatalf("seed %d: deep prefetch changed memory word %d", seed, i)
			}
		}
	}
}

// TestDifferentialDCacheSemantics: the data cache may only change timing.
func TestDifferentialDCacheSemantics(t *testing.T) {
	for seed := 200; seed < 215; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Mem.AccessTime = 3
		without, memW := runWithTrace(t, cfg, img)
		cfg.CPU.DCacheBytes = 64
		with, memD := runWithTrace(t, cfg, img)
		if len(without) != len(with) {
			t.Fatalf("seed %d: stream lengths differ", seed)
		}
		for i := range memW {
			if memW[i] != memD[i] {
				t.Fatalf("seed %d: dcache changed memory word %d", seed, i)
			}
		}
	}
}

// TestDifferentialNativeFormatSemantics: the native 16/32-bit encoding may
// only change timing — the executed instruction sequence and final memory
// must match the fixed format exactly. PCs differ (the layouts differ), so
// streams are compared by length and by final memory.
func TestDifferentialNativeFormatSemantics(t *testing.T) {
	for seed := 500; seed < 525; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional} {
			cfg := core.DefaultConfig()
			cfg.Fetch = strat
			cfg.Mem.AccessTime = 6
			cfg.CacheBytes = 64
			fixedStream, fixedMem := runWithTrace(t, cfg, img)
			cfg.NativeFormat = true
			nativeStream, nativeMem := runWithTrace(t, cfg, img)
			if len(fixedStream) != len(nativeStream) {
				t.Fatalf("seed %d %v: stream lengths differ: fixed %d, native %d",
					seed, strat, len(fixedStream), len(nativeStream))
			}
			for i := range fixedMem {
				if fixedMem[i] != nativeMem[i] {
					t.Fatalf("seed %d %v: native format changed memory word %d", seed, strat, i)
				}
			}
		}
	}
}

func TestRandomProgramsAlwaysHalt(t *testing.T) {
	for seed := 300; seed < 340; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		img, err := synth.Random(rng, synth.RandomOptions{MaxBlocks: 10, MaxBlockInstr: 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.MaxCycles = 2_000_000
		sim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
