package pipesim_test

import (
	"testing"

	"pipesim"
)

// TestRunAllocations bounds the objects core.Simulator.Run allocates once
// the machine is built: the steady-state cycle loop allocates nothing, so
// what remains is per-run setup and the result. Measured as the allocations
// of NewSimulation plus Run less those of NewSimulation alone.
func TestRunAllocations(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 32
	tib := pipesim.DefaultConfig()
	tib.Strategy = pipesim.StrategyTIB
	runs := map[string]float64{}
	for _, p := range []workPoint{
		{"fig5b", "16-16", 128, figureConfig(t, "16-16", 128, 6, 8)},
		{"fig4a", "conv", 16, figureConfig(t, "conv", 16, 1, 4)},
		{"tib", "tib", 0, tib},
	} {
		build := func() *pipesim.Simulation {
			sim, err := pipesim.NewSimulation(p.cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			return sim
		}
		newOnly := testing.AllocsPerRun(3, func() { build() })
		newRun := testing.AllocsPerRun(3, func() {
			if _, err := pipesim.CoreSimulator(build()).Run(); err != nil {
				t.Fatal(err)
			}
		})
		run := newRun - newOnly
		if run > bound {
			t.Errorf("%s/%s/%d: Run allocates %.0f objects, want at most %d", p.exp, p.variant, p.size, run, bound)
		}
		runs[p.exp] = run
	}
	// A TIB miss refills an entry in place: the TIB front end's run, with
	// hundreds of misses, allocates no more than the PIPE machine's.
	if runs["tib"] > runs["fig5b"] {
		t.Errorf("the TIB run allocates %.0f objects, the PIPE run %.0f", runs["tib"], runs["fig5b"])
	}
}
