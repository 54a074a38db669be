package core_test

import (
	"reflect"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/kernels"
	"pipesim/internal/obs"
	"pipesim/internal/stats"
)

// retireCounter declares KindRetire alone and counts every event it is
// handed, whatever its kind, so a stray kind shows.
type retireCounter struct{ retires, stray uint64 }

func (c *retireCounter) Kinds() obs.Kinds { return obs.KindsOf(obs.KindRetire) }

func (c *retireCounter) Event(e obs.Event) {
	if e.Kind == obs.KindRetire {
		c.retires++
	} else {
		c.stray++
	}
}

// TestObserverSkipRule checks the one rule the attached probe's kinds
// decide, on the Livermore benchmark at T=6 with an 8-byte bus: the run
// skips ahead unless the probe consumes a per-cycle kind, and folds
// retirements only while no probe consumes KindRetire. Every observer
// leaves the statistics of the unobserved run.
func TestObserverSkipRule(t *testing.T) {
	img, err := kernels.Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Mem.AccessTime = 6
	cfg.Mem.BusWidthBytes = 8
	ranges, err := kernels.LoopRanges(img)
	if err != nil {
		t.Fatal(err)
	}
	counter := &retireCounter{}
	cases := []struct {
		name     string
		attach   func(*core.Simulator)
		perCycle bool // the probe consumes KindCycle or KindQueueDepth
		retire   bool // the probe consumes KindRetire
	}{
		{"none", func(*core.Simulator) {}, false, false},
		{"retire-only", func(s *core.Simulator) { s.SetProbe(counter) }, false, true},
		{"flight-recorder", func(s *core.Simulator) {
			s.SetProbe(obs.Only(obs.AllKinds&^obs.PerCycleKinds, obs.NewFlightRecorder(0)))
		}, false, true},
		{"flight-recorder+ring", func(s *core.Simulator) {
			s.SetProbe(obs.Multi{
				obs.Only(obs.AllKinds&^obs.PerCycleKinds, obs.NewFlightRecorder(0)),
				obs.Only(obs.KindsOf(obs.KindRetire), obs.NewFlightRecorder(core.RetireTraceDepth)),
			})
		}, false, true},
		{"probe-func", func(s *core.Simulator) { s.SetProbe(obs.ProbeFunc(func(obs.Event) {})) }, true, true},
		{"perloop", func(s *core.Simulator) {
			s.SetLoopRanges(ranges)
			s.SetProbe(obs.NewPerLoop(ranges))
		}, true, true},
		{"timeline", func(s *core.Simulator) { s.SetProbe(obs.NewTimeline()) }, true, true},
	}
	var base *stats.Sim
	var folded, foldedRetire uint64
	for i, c := range cases {
		sim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		c.attach(sim)
		st, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		skipped := sim.SkippedCycles()
		t.Logf("%s: %d cycles skipped", c.name, skipped)
		if (skipped > 0) == c.perCycle {
			t.Errorf("%s: %d cycles skipped, probe consumes a per-cycle kind: %v", c.name, skipped, c.perCycle)
		}
		switch {
		case i == 0:
			base, folded = st, skipped
		case !reflect.DeepEqual(st, base):
			t.Errorf("%s: statistics differ from the unobserved run:\n%+v\n%+v", c.name, st, base)
		}
		// Fold decisions depend only on the two rules, so every skipping
		// run consuming KindRetire folds the same cycles, fewer than the
		// unobserved run: only that one folds retirements.
		if c.retire && !c.perCycle {
			if foldedRetire == 0 {
				foldedRetire = skipped
			} else if skipped != foldedRetire {
				t.Errorf("%s: %d cycles folded, another retire-consuming run folded %d", c.name, skipped, foldedRetire)
			}
		}
	}
	if folded <= foldedRetire {
		t.Errorf("the unobserved run folded %d cycles, a run consuming KindRetire %d: no retire fold", folded, foldedRetire)
	}
	if counter.stray != 0 || counter.retires != base.CPU.Instructions {
		t.Errorf("the retire-only probe saw %d retirements of %d and %d events of other kinds",
			counter.retires, base.CPU.Instructions, counter.stray)
	}
}
