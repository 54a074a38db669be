package cpu_test

import (
	"reflect"
	"strings"
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/obs"
)

// TestSkipAheadRetireFold covers each stall class a retire fold joins —
// LDQ wait, full queue and fetch starvation — on programs that end in
// HALT, which must never fold. A run that retires inside folded spans, one
// that steps every cycle, and one with a retire-only probe attached (which
// refuses retire folds) must produce identical statistics, and the first
// must fold more cycles than the third.
func TestSkipAheadRetireFold(t *testing.T) {
	repeat := func(body string, n int) string {
		return strings.Repeat(body, n) + "halt\n"
	}
	cases := []struct {
		name string
		src  string
		mut  func(*core.Config)
	}{
		{"ldq-wait", "la r1, buf\n" + repeat("ld 0(r1)\nadd r2, r7, r2\naddi r3, r2, 1\n", 40) + ".data\nbuf: .word 5\n",
			func(c *core.Config) {}},
		{"queue-full", "la r1, buf\n" + repeat("st 0(r1)\naddi r7, r2, 1\naddi r2, r2, 1\n", 40) + ".data\nbuf: .space 4\n",
			func(c *core.Config) { c.CPU.SAQDepth, c.CPU.SDQDepth = 1, 1 }},
		{"starved", repeat("addi r1, r1, 1\n", 120),
			func(c *core.Config) {
				c.Fetch = core.FetchConventional
				c.CacheBytes = 16
			}},
	}
	for _, tc := range cases {
		img, err := asm.Assemble(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cfg := defCfg()
		cfg.Mem.AccessTime = 6
		cfg.Mem.BusWidthBytes = 8
		tc.mut(&cfg)
		run := func(noSkip, tracer bool) (any, uint64) {
			t.Helper()
			c := cfg
			c.NoSkipAhead = noSkip
			sim, err := core.New(c, img)
			if err != nil {
				t.Fatal(err)
			}
			if tracer {
				sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), obs.NewFlightRecorder(4)))
			}
			st, err := sim.Run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return st, sim.SkippedCycles()
		}
		step, _ := run(true, false)
		skip, folded := run(false, false)
		traced, foldedTraced := run(false, true)
		if !reflect.DeepEqual(step, skip) || !reflect.DeepEqual(step, traced) {
			t.Errorf("%s: statistics diverged:\nstep   %+v\nskip   %+v\ntraced %+v", tc.name, step, skip, traced)
		}
		if folded <= foldedTraced {
			t.Errorf("%s: %d cycles folded, %d with a retire tracer: no retire fold", tc.name, folded, foldedTraced)
		}
	}
}
