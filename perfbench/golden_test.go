package main

import (
	"context"
	"errors"
	"testing"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
	"pipesim/internal/sweep"
)

func testGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden("../GOLDEN_catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldenCatalogLoads(t *testing.T) {
	g := testGolden(t)
	if len(g.order) != 472 {
		t.Errorf("golden catalog has %d points, want 472", len(g.order))
	}
	if c, ok := g.cycles(pointID{"fig4a", "16-16", 128}); !ok || c == 0 {
		t.Errorf("fig4a/16-16/128 = %d, %v", c, ok)
	}
	if _, ok := g.cycles(pointID{"fig4a", "16-32", 16}); ok {
		t.Error("fig4a/16-32/16 (cache smaller than a line) reported valid")
	}
}

// TestSteppedMachines pins the sim-stepped rotation: the 28 valid Figure
// 4a machines, all distinct, each with a golden cycle count.
func TestSteppedMachines(t *testing.T) {
	ms, err := testGolden(t).figureMachines("fig4a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 28 {
		t.Fatalf("fig4a machines = %d, want 28", len(ms))
	}
	seen := map[pipesim.Config]bool{}
	for _, m := range ms {
		if seen[m.Cfg] {
			t.Errorf("%s duplicates a machine", m.ID)
		}
		seen[m.Cfg] = true
		if m.Cfg.MemAccessTime != 1 || m.Cfg.BusWidthBytes != 4 || m.Cfg.CacheStats {
			t.Errorf("%s: not a T=1, 4-byte-bus, uninstrumented machine: %+v", m.ID, m.Cfg)
		}
	}
}

// TestServeMixMachines checks the serve-mix key space: distinct machines
// whose golden values agree wherever the catalog repeats one.
func TestServeMixMachines(t *testing.T) {
	ms, err := testGolden(t).livermoreMachines()
	if err != nil {
		t.Fatal(err)
	}
	// 7 figure sweeps × 28 machines, plus 12 guaranteed-only and 12
	// priority-ablation machines; the true-prefetch ablations and
	// instruction-priority series repeat figure machines.
	if len(ms) != 7*28+12+12 {
		t.Errorf("livermore machines = %d, want %d", len(ms), 7*28+12+12)
	}
	seen := map[pipesim.Config]bool{}
	for _, m := range ms {
		if seen[m.Cfg] {
			t.Errorf("%s duplicates a machine", m.ID)
		}
		seen[m.Cfg] = true
		if err := m.Cfg.Validate(); err != nil {
			t.Errorf("%s: %v", m.ID, err)
		}
	}
}

// TestMachinesReproduceGolden simulates a sample of each workload's
// machines through the public API and the core replay path and compares
// with the golden catalog, pinning the configuration mapping.
func TestMachinesReproduceGolden(t *testing.T) {
	g := testGolden(t)
	ms, err := g.livermoreMachines()
	if err != nil {
		t.Fatal(err)
	}
	want := map[pointID]bool{
		{"fig4a", "conv", 64}:                      true,
		{"fig4a", "32-32", 512}:                    true,
		{"fig6b", "8-8", 32}:                       true,
		{"noprefetch", "T=6 guaranteed-only", 128}: true,
		{"priority", "conv data-priority", 256}:    true,
	}
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	img, err := sweep.BenchmarkImage()
	if err != nil {
		t.Fatal(err)
	}
	var sample []machine
	for _, m := range ms {
		if want[m.ID] {
			sample = append(sample, m)
		}
	}
	if len(sample) != len(want) {
		t.Fatalf("found %d of %d sample machines", len(sample), len(want))
	}
	r := &result{}
	cfgs, err := coreConfigs(context.Background(), &env{workers: 2}, r, sample)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != len(sample) || r.failed != 0 {
		t.Errorf("recording configurations: %d attempted, failures %v", r.attempted, r.failures)
	}
	for i, m := range sample {
		res, err := pipesim.Run(m.Cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", m.ID, err)
		}
		if err := checkCycles(m, res.Cycles, res.Instructions); err != nil {
			t.Error(err)
		}
		rp, err := replayOne(cfgs[i], img, nil, 0)
		if err != nil {
			t.Fatalf("%s replay: %v", m.ID, err)
		}
		if err := checkCycles(m, rp.st.Cycles, rp.st.CPU.Instructions); err != nil {
			t.Errorf("replay: %v", err)
		}
		if rp.folded == 0 || rp.folded >= rp.st.Cycles {
			t.Errorf("%s: folded %d of %d cycles", m.ID, rp.folded, rp.st.Cycles)
		}
	}
}

// TestTimingTierInstructions checks that the catalog's timing tier fails a
// Livermore simulation whose instruction count is not the benchmark's, and
// leaves other programs' simulations alone.
func TestTimingTierInstructions(t *testing.T) {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		t.Fatal(err)
	}
	tier := newTimingTier(img.Fingerprint(), nil)
	store := func(cfg core.Config, fp [32]byte, instructions uint64) {
		k := runcache.KeyFor(cfg, fp)
		tier.Lookup(k)
		tier.Store(k, cfg, &stats.Sim{CPU: stats.CPU{Instructions: instructions}})
	}
	store(core.Config{CacheBytes: 64}, img.Fingerprint(), pipesim.BenchmarkInstructions)
	store(core.Config{CacheBytes: 128}, [32]byte{1}, 42) // another program
	if len(tier.bad) != 0 {
		t.Fatalf("correct counts flagged: %v", tier.bad)
	}
	store(core.Config{CacheBytes: 256}, img.Fingerprint(), pipesim.BenchmarkInstructions-1)
	if len(tier.bad) != 1 {
		t.Errorf("a Livermore run with %d instructions: %d failures, want 1", pipesim.BenchmarkInstructions-1, len(tier.bad))
	}
}

// TestCheckSweep feeds the catalog checker a summary rebuilt from the
// golden values, then one with a wrong point and one with a failed
// experiment.
func TestCheckSweep(t *testing.T) {
	g := testGolden(t)
	build := func() *sweep.Summary {
		sum := &sweep.Summary{}
		var cur *sweep.Outcome
		for i, id := range g.order {
			if cur == nil || cur.Experiment.ID != id.Exp {
				sum.Outcomes = append(sum.Outcomes, sweep.Outcome{
					Experiment: sweep.Experiment{ID: id.Exp}, Result: &sweep.Result{ID: id.Exp}})
				cur = &sum.Outcomes[len(sum.Outcomes)-1]
			}
			res := cur.Result
			if n := len(res.Series); n == 0 || res.Series[n-1].Label != id.Series {
				res.Series = append(res.Series, sweep.Series{Label: id.Series})
			}
			s := &res.Series[len(res.Series)-1]
			v := g.values[i]
			s.Points = append(s.Points, sweep.Point{CacheBytes: id.X, Cycles: v.Cycles, Valid: v.Valid})
		}
		return sum
	}
	n, fails := g.checkSweep(build())
	if n != len(g.order) || len(fails) != 0 {
		t.Fatalf("golden-equal summary: %d attempted, failures %v", n, fails)
	}
	sum := build()
	sum.Outcomes[3].Result.Series[1].Points[2].Cycles++
	if _, fails := g.checkSweep(sum); len(fails) != 1 {
		t.Errorf("one wrong point: failures %v", fails)
	}
	sum = build()
	sum.Outcomes[2].Result, sum.Outcomes[2].Err = nil, errTest
	exp := sum.Outcomes[2].Experiment.ID
	points := 0
	for _, id := range g.order {
		if id.Exp == exp {
			points++
		}
	}
	if _, fails := g.checkSweep(sum); len(fails) != points {
		t.Errorf("failed experiment %s: %d failures, want %d", exp, len(fails), points)
	}
}

var errTest = errors.New("experiment crashed")
