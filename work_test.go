package pipesim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pipesim"
	"pipesim/internal/sweep"
)

// GOLDEN_work.json pins the exact work the simulator does, the way
// GOLDEN_catalog.json pins the cycles it reports: ticked and folded
// cycles, cache probes, prefetches and memory transactions are
// deterministic, so a host-independent performance change shows up here
// exactly. A change that alters the work on purpose regenerates
// the file (the failing test names the regenerated copy).
const workGoldenPath = "GOLDEN_work.json"

// workGolden is the GOLDEN_work.json document.
type workGolden struct {
	Schema  string      `json:"schema"`
	Entries []workEntry `json:"entries"`
}

// workEntry is the exact work of one Livermore run with skip-ahead on and
// no probe attached.
type workEntry struct {
	ID              string `json:"id"` // experiment/series/x: a GOLDEN_catalog.json point
	Cycles          uint64 `json:"cycles"`
	FoldedCycles    uint64 `json:"folded_cycles"` // elided by skip-ahead
	CacheProbes     uint64 `json:"cache_probes"`
	CacheHits       uint64 `json:"cache_hits"`
	Prefetches      uint64 `json:"prefetches"`
	MemTransactions uint64 `json:"mem_transactions"`
	InputBusCycles  uint64 `json:"input_bus_cycles"`
	Instructions    uint64 `json:"instructions"`
	// FlightWrites is 0: a run writes no flight recorder, whose tail is
	// rebuilt by replay only when a post-mortem is asked for.
	FlightWrites uint64 `json:"flight_writes"`
}

// workPoint is one machine of the work golden.
type workPoint struct {
	exp, variant string
	size         int
	cfg          pipesim.Config
}

// workPoints lists the 28 valid Figure 4a machines (T=1, 4-byte bus, where
// skip-ahead folds little) and the Figure 5b PIPE 16-16 machine with a
// 128-byte cache (T=6, 8-byte bus, where it folds much).
func workPoints(t *testing.T) []workPoint {
	t.Helper()
	var out []workPoint
	for _, v := range sweep.GridVariants() {
		for _, size := range sweep.CacheSizes {
			cfg := figureConfig(t, v, size, 1, 4)
			if cfg.Validate() != nil {
				continue // cache smaller than a line
			}
			out = append(out, workPoint{"fig4a", v, size, cfg})
		}
	}
	if len(out) != 28 {
		t.Fatalf("Figure 4a has %d valid machines, want 28", len(out))
	}
	return append(out, workPoint{"fig5b", "16-16", 128, figureConfig(t, "16-16", 128, 6, 8)})
}

// measureWork runs one machine and reads its work counters.
func measureWork(t *testing.T, p workPoint, prog *pipesim.Program) workEntry {
	t.Helper()
	sim, err := pipesim.NewSimulation(p.cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	core := pipesim.CoreSimulator(sim)
	e := workEntry{
		ID:             fmt.Sprintf("%s/%s/%d", p.exp, p.variant, p.size),
		Cycles:         res.Cycles,
		FoldedCycles:   core.SkippedCycles(),
		CacheProbes:    res.CacheHits + res.CacheMisses,
		CacheHits:      res.CacheHits,
		Prefetches:     res.Prefetches,
		InputBusCycles: res.InputBusCycles,
		Instructions:   res.Instructions,
	}
	for _, n := range res.MemAccepted {
		e.MemTransactions += n
	}
	return e
}

// TestWorkGolden gates GOLDEN_work.json exactly and checks that its cycles
// agree with GOLDEN_catalog.json. On drift it writes the regenerated file
// to $PIPESIM_ARTIFACT_DIR (or a temporary directory) and names it.
func TestWorkGolden(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]map[string]map[int]uint64{
		"fig4a": figureGolden(t, "fig4a"),
		"fig5b": figureGolden(t, "fig5b"),
	}
	got := workGolden{Schema: "pipesim-work/v1"}
	for _, p := range workPoints(t) {
		e := measureWork(t, p, prog)
		if want := catalog[p.exp][p.variant][p.size]; e.Cycles != want {
			t.Errorf("%s: %d cycles, GOLDEN_catalog.json has %d", e.ID, e.Cycles, want)
		}
		got.Entries = append(got.Entries, e)
	}

	var want workGolden
	raw, err := os.ReadFile(workGoldenPath)
	if err == nil {
		err = json.Unmarshal(raw, &want)
	}
	if err != nil {
		t.Errorf("reading %s: %v", workGoldenPath, err)
	}
	drifted := err != nil || want.Schema != got.Schema || len(want.Entries) != len(got.Entries)
	for i := 0; i < len(want.Entries) && i < len(got.Entries); i++ {
		if want.Entries[i] != got.Entries[i] {
			drifted = true
			t.Errorf("work drifted:\n  golden %+v\n  got    %+v", want.Entries[i], got.Entries[i])
		}
	}
	if !drifted {
		return
	}
	dir := os.Getenv("PIPESIM_ARTIFACT_DIR")
	if dir == "" {
		if dir, err = os.MkdirTemp("", "pipesim-work-"); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, workGoldenPath)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s does not match this simulator; regenerated file written to %s\n"+
		"if the change in work is intended: cp %s %s", workGoldenPath, path, path, workGoldenPath)
}
