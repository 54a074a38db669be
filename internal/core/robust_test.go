package core_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipesim/internal/asm"
	"pipesim/internal/core"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

// saveFlightArtifact writes the flight-recorder tail as Chrome-trace JSON
// when the test fails and PIPESIM_ARTIFACT_DIR is set, so CI uploads the
// post-mortem for inspection in Perfetto.
func saveFlightArtifact(t *testing.T, name string, events []obs.Event) {
	t.Cleanup(func() {
		dir := os.Getenv("PIPESIM_ARTIFACT_DIR")
		if dir == "" || !t.Failed() {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		var buf bytes.Buffer
		if err := obs.WriteFlightTrace(&buf, events); err != nil {
			t.Logf("artifact %s: %v", name, err)
			return
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Logf("artifact %s: %v", name, err)
			return
		}
		t.Logf("post-mortem artifact written to %s", path)
	})
}

// stuckProgram reads R7 with no load ever dispatched: the issue stage
// blocks forever on the empty Load Data Queue — a genuine machine-level
// deadlock (the program is wrong, not the simulator).
func stuckProgram(t *testing.T) *program.Image {
	t.Helper()
	img, err := asm.Assemble(`
        li   r1, 1
        add  r2, r7, r1
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestWatchdogReportsDeadlock(t *testing.T) {
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Fetch = strat
			cfg.TIBEntries = 4
			cfg.TIBLineBytes = 16
			cfg.WatchdogCycles = 2_000
			cfg.MaxCycles = 50_000_000
			sim, err := core.New(cfg, stuckProgram(t))
			if err != nil {
				t.Fatal(err)
			}
			_, err = sim.Run()
			var dl *core.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("Run err = %v, want *DeadlockError", err)
			}
			if dl.Cycle >= cfg.MaxCycles {
				t.Errorf("watchdog fired at cycle %d, not before MaxCycles", dl.Cycle)
			}
			if dl.Cycle-dl.LastProgress < cfg.WatchdogCycles {
				t.Errorf("window %d smaller than configured %d", dl.Cycle-dl.LastProgress, cfg.WatchdogCycles)
			}
			if dl.Strategy != strat.String() {
				t.Errorf("strategy = %q, want %q", dl.Strategy, strat.String())
			}
			// The diagnosis must carry machine state from every layer and
			// the retirement trace showing the LI that did retire.
			if dl.FetchState == "" || dl.CPUState == "" || dl.MemState == "" {
				t.Errorf("incomplete diagnosis: %+v", dl)
			}
			if !strings.Contains(dl.CPUState, "ldq 0/") {
				t.Errorf("CPU state does not show the empty LDQ: %s", dl.CPUState)
			}
			if len(dl.Trace) == 0 {
				t.Error("deadlock diagnosis has no retirement trace")
			}
			detail := dl.Detail()
			for _, want := range []string{"no forward progress", "fetch:", "cpu:", "mem:", "LI"} {
				if !strings.Contains(detail, want) {
					t.Errorf("Detail() missing %q:\n%s", want, detail)
				}
			}
		})
	}
}

// TestWatchdogDefaultsAreSane checks the zero-value window is large but
// below the MaxCycles default.
func TestWatchdogDefaultsAreSane(t *testing.T) {
	if core.DefaultWatchdogCycles >= 500_000_000 {
		t.Error("default watchdog not below the MaxCycles default")
	}
	if core.DefaultWatchdogCycles < 100_000 {
		t.Error("default watchdog small enough to trip on legitimate stalls")
	}
}

// panicRecorder is a retire-only probe that panics when it sees a
// retirement, simulating an internal inconsistency detected mid-cycle deep
// inside the simulator.
type panicRecorder struct{ after uint64 }

func (p *panicRecorder) Kinds() obs.Kinds { return obs.KindsOf(obs.KindRetire) }

func (p *panicRecorder) Event(e obs.Event) {
	if e.Cycle >= p.after {
		panic("injected simulator fault")
	}
}

func TestRunRecoversPanicsAsMachineCheck(t *testing.T) {
	cfg := core.DefaultConfig()
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetProbe(&panicRecorder{after: 20})
	_, err = sim.Run()
	var mce *core.MachineCheckError
	if !errors.As(err, &mce) {
		t.Fatalf("Run err = %v, want *MachineCheckError", err)
	}
	if mce.Cycle == 0 {
		t.Error("machine check lost the cycle number")
	}
	if mce.Strategy != "pipe" {
		t.Errorf("strategy = %q", mce.Strategy)
	}
	if got := mce.PanicValue; got != "injected simulator fault" {
		t.Errorf("panic value = %v", got)
	}
	if len(mce.Trace) == 0 {
		t.Error("machine check carries no retirement trace")
	}
	if mce.PC == 0 {
		t.Error("machine check lost the PC")
	}
	if !strings.Contains(mce.Stack, "Record") {
		t.Error("stack does not show the faulting frame")
	}
	for _, want := range []string{"machine check", "cycle", "pipe", "injected simulator fault"} {
		if !strings.Contains(mce.Error(), want) {
			t.Errorf("Error() missing %q: %s", want, mce.Error())
		}
	}
	detail := mce.Detail()
	for _, want := range []string{"config:", "last", "stack:"} {
		if !strings.Contains(detail, want) {
			t.Errorf("Detail() missing %q", want)
		}
	}
}

// TestRunStillCompletesWithUserTracer guards the ring/user-tracer fan-out:
// installing a tracer must not perturb results.
func TestRunStillCompletesWithUserTracer(t *testing.T) {
	base, err := core.New(core.DefaultConfig(), smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	stBase, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := core.New(core.DefaultConfig(), smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewFlightRecorder(64)
	traced.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), ring))
	stTraced, err := traced.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stBase.Cycles != stTraced.Cycles || stBase.CPU.Instructions != stTraced.CPU.Instructions {
		t.Errorf("tracer changed the run: %d/%d cycles, %d/%d instructions",
			stBase.Cycles, stTraced.Cycles, stBase.CPU.Instructions, stTraced.CPU.Instructions)
	}
	if ring.Total() != stTraced.CPU.Instructions {
		t.Errorf("user tracer saw %d retirements of %d", ring.Total(), stTraced.CPU.Instructions)
	}
}

// TestDeadlockErrorCarriesFlightRecorder checks the watchdog's post-mortem
// includes the flight recorder's recent-event tail, both as structured
// events and rendered into Detail().
func TestDeadlockErrorCarriesFlightRecorder(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.WatchdogCycles = 2_000
	sim, err := core.New(cfg, stuckProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run err = %v, want *DeadlockError", err)
	}
	if len(dl.Recent) == 0 {
		t.Fatal("deadlock error carries no flight-recorder events")
	}
	saveFlightArtifact(t, "deadlock-flight.json", dl.Recent)
	// The stuck program retires its LI before wedging, so the ring holds at
	// least one retirement with a cycle stamp.
	sawRetire := false
	for _, e := range dl.Recent {
		if e.Kind.String() == "retire" {
			sawRetire = true
		}
	}
	if !sawRetire {
		t.Errorf("flight recorder has no retire events: %v", dl.Recent)
	}
	detail := dl.Detail()
	for _, want := range []string{"flight recorder", "retire pc="} {
		if !strings.Contains(detail, want) {
			t.Errorf("Detail() missing %q:\n%s", want, detail)
		}
	}
}

// TestMachineCheckErrorCarriesFlightRecorder checks a recovered panic's
// post-mortem includes the flight-recorder tail.
func TestMachineCheckErrorCarriesFlightRecorder(t *testing.T) {
	cfg := core.DefaultConfig()
	sim, err := core.New(cfg, smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetProbe(&panicRecorder{after: 20})
	_, err = sim.Run()
	var mce *core.MachineCheckError
	if !errors.As(err, &mce) {
		t.Fatalf("Run err = %v, want *MachineCheckError", err)
	}
	if len(mce.Recent) == 0 {
		t.Fatal("machine check carries no flight-recorder events")
	}
	saveFlightArtifact(t, "machinecheck-flight.json", mce.Recent)
	detail := mce.Detail()
	for _, want := range []string{"flight recorder", "stack:"} {
		if !strings.Contains(detail, want) {
			t.Errorf("Detail() missing %q:\n%s", want, detail)
		}
	}
}

// TestFlightRecorderDisabled checks a negative depth switches the recorder
// off: errors then carry no events.
func TestFlightRecorderDisabled(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.FlightRecDepth = -1
	cfg.WatchdogCycles = 2_000
	sim, err := core.New(cfg, stuckProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.FlightEvents(); got != nil {
		t.Errorf("disabled recorder returned events: %v", got)
	}
	_, err = sim.Run()
	var dl *core.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run err = %v, want *DeadlockError", err)
	}
	if len(dl.Recent) != 0 {
		t.Errorf("disabled recorder still snapshotted %d events", len(dl.Recent))
	}
	if strings.Contains(dl.Detail(), "flight recorder") {
		t.Error("Detail() renders a flight-recorder section with the recorder off")
	}
}
