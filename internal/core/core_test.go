package core_test

import (
	"strings"
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

func smallProgram(t *testing.T) *program.Image {
	t.Helper()
	img, err := asm.Assemble(`
        li   r1, 4
        li   r2, 0
        setb b0, loop
loop:   add  r2, r2, r1
        addi r1, r1, -1
        pbr  ne, r1, b0, 2
        nop
        nop
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestStrategyString(t *testing.T) {
	cases := map[core.FetchStrategy]string{
		core.FetchPIPE:         "pipe",
		core.FetchConventional: "conventional",
		core.FetchTIB:          "tib",
		core.FetchStrategy(9):  "strategy(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxCycles = 5 // far too few to finish
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil || !strings.Contains(err.Error(), "no completion") {
		t.Fatalf("Run err = %v, want MaxCycles abort", err)
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	img := smallProgram(t)
	bad := []func(*core.Config){
		func(c *core.Config) { c.CacheBytes = 0 },
		func(c *core.Config) { c.LineBytes = 0 },
		func(c *core.Config) { c.CacheBytes = 100 },      // not a power of two
		func(c *core.Config) { c.Mem.AccessTime = 0 },    // memory invalid
		func(c *core.Config) { c.Mem.BusWidthBytes = 5 }, // bus invalid
		func(c *core.Config) { c.IQBytes = 0 },           // PIPE queue invalid
		func(c *core.Config) { c.IQBBytes = 8 },          // IQB < line
		func(c *core.Config) { c.CPU.LDQDepth = 0 },      // CPU queues invalid
		func(c *core.Config) { c.Fetch = core.FetchStrategy(42) },
		func(c *core.Config) { c.Fetch = core.FetchTIB; c.TIBEntries = 0 },
	}
	for i, mutate := range bad {
		cfg := core.DefaultConfig()
		mutate(&cfg)
		if _, err := core.New(cfg, img); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRetireTracerSeesDynamicStream(t *testing.T) {
	cfg := core.DefaultConfig()
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewFlightRecorder(1024)
	sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), ring))
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	events := core.Retirements(sim.Image(), ring.Events())
	if uint64(len(events)) != st.CPU.Instructions {
		t.Fatalf("traced %d events, retired %d instructions", len(events), st.CPU.Instructions)
	}
	// Cycles strictly increase; one retirement per cycle at most.
	for i := 1; i < len(events); i++ {
		if events[i].Cycle <= events[i-1].Cycle {
			t.Fatalf("non-monotonic retire cycles at %d: %d then %d", i, events[i-1].Cycle, events[i].Cycle)
		}
	}
	// The last event is the HALT.
	if events[len(events)-1].Inst.Op != isa.OpHALT {
		t.Errorf("last retired op = %s, want HALT", events[len(events)-1].Inst.Op)
	}
	// The loop body retires 4 times: count the PBRs.
	pbrs := 0
	for _, e := range events {
		if e.Inst.Op == isa.OpPBR {
			pbrs++
		}
	}
	if pbrs != 4 {
		t.Errorf("traced %d PBRs, want 4", pbrs)
	}
}

func TestWriterTraceFormat(t *testing.T) {
	cfg := core.DefaultConfig()
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sim.SetProbe(&core.TraceWriter{Img: sim.Image(), W: &sb, Limit: 3})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], "LI r1, 4") {
		t.Errorf("first traced line = %q", lines[0])
	}
}

func TestStrategiesAgreeOnArchitecture(t *testing.T) {
	// Same program, three engines: identical retired instruction streams.
	var streams [][]uint32
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		cfg := core.DefaultConfig()
		cfg.Fetch = strat
		cfg.TIBEntries = 2
		cfg.TIBLineBytes = 16
		cfg.Mem.AccessTime = 3
		sim, err := core.New(cfg, smallProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		ring := obs.NewFlightRecorder(4096)
		sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), ring))
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		var pcs []uint32
		for _, e := range ring.Events() {
			pcs = append(pcs, e.Addr)
		}
		streams = append(streams, pcs)
	}
	for i := 1; i < len(streams); i++ {
		if len(streams[i]) != len(streams[0]) {
			t.Fatalf("stream %d length %d != %d", i, len(streams[i]), len(streams[0]))
		}
		for j := range streams[0] {
			if streams[i][j] != streams[0][j] {
				t.Fatalf("stream %d diverges at %d: %#x vs %#x", i, j, streams[i][j], streams[0][j])
			}
		}
	}
}
