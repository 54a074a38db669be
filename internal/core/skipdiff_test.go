package core_test

// The skip-vs-step differential suite. Event-driven skip-ahead
// (core.Config.NoSkipAhead = false, the default) must be a pure wall-clock
// optimization: every statistic a run produces — cycle count, per-bucket
// attribution, fetch-engine counters, memory traffic, 3C miss classes —
// must be bit-identical to the same machine stepped cycle by cycle. These
// tests sweep the full Livermore benchmark and synthetic programs across
// the strategy/geometry/memory matrix and DeepEqual the complete stats.Sim
// from both paths.

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/kernels"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/synth"
)

// diffConfigs is the machine matrix the suite sweeps: every fetch
// strategy, the paper's cache sizes around the knee (64/128/256 B), both
// prefetch policies, slow and fast memory, and the introspection layer
// (which must classify identically when spans are folded).
func diffConfigs() []core.Config {
	base := core.DefaultConfig()
	mk := func(mut func(*core.Config)) core.Config {
		c := base
		mut(&c)
		return c
	}
	return []core.Config{
		base, // PIPE 16-16, 128 B, 1-cycle memory
		mk(func(c *core.Config) { // the benchmark configuration
			c.TruePrefetch = true
			c.Mem.AccessTime = 6
			c.Mem.BusWidthBytes = 8
			c.Mem.InstrPriority = true
			c.Mem.FPULatency = 4
		}),
		mk(func(c *core.Config) { c.CacheBytes = 64 }),
		mk(func(c *core.Config) { // 32-32 geometry, 256 B
			c.CacheBytes = 256
			c.LineBytes = 32
			c.IQBytes = 32
			c.IQBBytes = 32
		}),
		mk(func(c *core.Config) { c.DeepPrefetch = true }),
		mk(func(c *core.Config) { c.NativeFormat = true }),
		mk(func(c *core.Config) {
			c.Fetch = core.FetchConventional
			c.Mem.AccessTime = 6
			c.Mem.BusWidthBytes = 8
		}),
		mk(func(c *core.Config) {
			c.Fetch = core.FetchConventional
			c.Mem.Pipelined = true
		}),
		mk(func(c *core.Config) {
			c.Fetch = core.FetchTIB
			c.TIBEntries = 4
			c.TIBLineBytes = 16
		}),
		mk(func(c *core.Config) { // folded spans must classify misses identically
			c.CacheIntrospect = true
			c.Mem.AccessTime = 6
			c.Mem.BusWidthBytes = 8
		}),
	}
}

// runDiff runs cfg over img stepped and skipping and returns both stats
// plus the number of cycles the skipping run elided.
func runDiff(t *testing.T, cfg core.Config, img *program.Image) (skipped uint64) {
	t.Helper()
	stepCfg := cfg
	stepCfg.NoSkipAhead = true
	stepSim, err := core.New(stepCfg, img)
	if err != nil {
		t.Fatalf("New(step): %v", err)
	}
	stepSt, err := stepSim.Run()
	if err != nil {
		t.Fatalf("Run(step): %v", err)
	}
	skipCfg := cfg
	skipCfg.NoSkipAhead = false
	skipSim, err := core.New(skipCfg, img)
	if err != nil {
		t.Fatalf("New(skip): %v", err)
	}
	skipSt, err := skipSim.Run()
	if err != nil {
		t.Fatalf("Run(skip): %v", err)
	}
	if !reflect.DeepEqual(stepSt, skipSt) {
		t.Errorf("skip-ahead changed results (%d cycles folded):\nstep %+v\nskip %+v",
			skipSim.SkippedCycles(), stepSt, skipSt)
	}
	if stepSim.SkippedCycles() != 0 {
		t.Errorf("NoSkipAhead run still folded %d cycles", stepSim.SkippedCycles())
	}
	return skipSim.SkippedCycles()
}

// TestSkipDifferentialLivermore sweeps the full Livermore benchmark (all
// 14 kernels) across the machine matrix.
func TestSkipDifferentialLivermore(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark runs")
	}
	img, _, err := kernels.Program()
	if err != nil {
		t.Fatal(err)
	}
	var folded uint64
	for i, cfg := range diffConfigs() {
		folded += runDiff(t, cfg, img)
		if t.Failed() {
			t.Fatalf("config %d (%v) diverged", i, cfg.Fetch)
		}
	}
	if folded == 0 {
		t.Error("no config folded any cycles: the suite is not exercising skip-ahead")
	}
}

// TestSkipDifferentialSynth covers program shapes the Livermore catalog
// does not: tiny loops, delay-slot extremes, store-heavy bodies and
// random control flow from pinned seeds.
func TestSkipDifferentialSynth(t *testing.T) {
	var imgs []*program.Image
	for _, spec := range []synth.LoopSpec{
		{BodyInstr: 6, Iterations: 40},
		{BodyInstr: 12, Iterations: 30, Loads: 2, DelaySlots: 3},
		{BodyInstr: 16, Iterations: 25, Loads: 2, Stores: 2, DelaySlots: 1},
		{BodyInstr: 24, Iterations: 20, Loads: 4, Stores: 3, DelaySlots: 7},
	} {
		img, err := synth.Loop(spec)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	for seed := int64(1); seed <= 3; seed++ {
		img, err := synth.Random(rand.New(rand.NewSource(seed)), synth.RandomOptions{})
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	var folded uint64
	for i, img := range imgs {
		for j, cfg := range diffConfigs() {
			folded += runDiff(t, cfg, img)
			if t.Failed() {
				t.Fatalf("program %d, config %d diverged", i, j)
			}
		}
	}
	if folded == 0 {
		t.Error("no synth run folded any cycles: the suite is not exercising skip-ahead")
	}
}

// TestSkipDifferentialInterrupt pins the clamp semantics: an interrupt
// scheduled mid-stall must fire at the same cycle whether the run stepped
// to it or jumped to it.
func TestSkipDifferentialInterrupt(t *testing.T) {
	img, err := synth.Loop(synth.LoopSpec{BodyInstr: 12, Iterations: 50, Loads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The vector points at the loop entry; the handler contract is not
	// honored by a synthetic loop, so keep the run bounded and compare
	// whatever statistics the two paths produce — identical divergence is
	// still identity.
	for _, at := range []uint64{50, 137, 999} {
		cfg := core.DefaultConfig()
		cfg.Mem.AccessTime = 6
		cfg.Mem.BusWidthBytes = 8
		cfg.InterruptAt = at
		cfg.InterruptVector = img.Entry
		cfg.MaxCycles = 200_000
		cfg.WatchdogCycles = 50_000
		stepCfg := cfg
		stepCfg.NoSkipAhead = true
		stepSim, err := core.New(stepCfg, img)
		if err != nil {
			t.Fatal(err)
		}
		stepSt, stepErr := stepSim.Run()
		skipSim, err := core.New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		skipSt, skipErr := skipSim.Run()
		if (stepErr == nil) != (skipErr == nil) {
			t.Fatalf("InterruptAt=%d: step err %v, skip err %v", at, stepErr, skipErr)
		}
		if stepErr != nil {
			if stepErr.Error() != skipErr.Error() {
				t.Errorf("InterruptAt=%d: error diverged:\nstep %v\nskip %v", at, stepErr, skipErr)
			}
			continue
		}
		if !reflect.DeepEqual(stepSt, skipSt) {
			t.Errorf("InterruptAt=%d: results diverged:\nstep %+v\nskip %+v", at, stepSt, skipSt)
		}
	}
}

// TestWatchdogAfterRetireFold pins the watchdog against the retire fold: in
// stuckProgram the last instruction that ever retires does so in the first
// cycle of a folded span, and the watchdog fires WatchdogCycles later. The
// stepped and skipping runs must report the same deadlock — cycle, last
// progress, diagnosis and post-mortem tails. A run with a retire-only probe
// attached refuses that fold, so it must elide fewer cycles: that proves
// the retirement was folded rather than ticked.
func TestWatchdogAfterRetireFold(t *testing.T) {
	img := stuckProgram(t)
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		for _, access := range []int{1, 6} {
			cfg := core.DefaultConfig()
			cfg.Fetch = strat
			cfg.TIBEntries = 4
			cfg.TIBLineBytes = 16
			cfg.Mem.AccessTime = access
			cfg.WatchdogCycles = 500
			run := func(noSkip, tracer bool) (*core.DeadlockError, uint64) {
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
				_, err = sim.Run()
				var dl *core.DeadlockError
				if !errors.As(err, &dl) {
					t.Fatalf("%s T=%d: Run err = %v, want *DeadlockError", strat, access, err)
				}
				return dl, sim.SkippedCycles()
			}
			step, _ := run(true, false)
			skip, folded := run(false, false)
			_, foldedTraced := run(false, true)
			if !reflect.DeepEqual(step, skip) {
				t.Errorf("%s T=%d: deadlock diverged:\nstep %+v\nskip %+v", strat, access, step, skip)
			}
			if skip.Cycle-skip.LastProgress != cfg.WatchdogCycles {
				t.Errorf("%s T=%d: watchdog fired at %d, last progress %d, window %d",
					strat, access, skip.Cycle, skip.LastProgress, cfg.WatchdogCycles)
			}
			if folded <= foldedTraced {
				t.Errorf("%s T=%d: %d cycles folded, %d with a retire tracer: the last retirement was not folded",
					strat, access, folded, foldedTraced)
			}
		}
	}
}
