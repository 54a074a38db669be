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
	for _, p := range []workPoint{
		{"fig5b", "16-16", 128, figureConfig(t, "16-16", 128, 6, 8)},
		{"fig4a", "conv", 16, figureConfig(t, "conv", 16, 1, 4)},
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
		if run := newRun - newOnly; run > bound {
			t.Errorf("%s/%s/%d: Run allocates %.0f objects, want at most %d", p.exp, p.variant, p.size, run, bound)
		}
	}
}
