package sweep

import (
	"bytes"
	"context"
	"testing"

	"pipesim/internal/mem"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
)

// TestFig5bFig6aIdenticalSeries: Figure 6a is the same machine as Figure 5b
// (the paper re-plots it at a different scale), so the two experiments must
// produce identical cycle series point for point — and with the run cache
// on, the second figure is answered from memoized results instead of
// re-simulating thirty configuration points.
func TestFig5bFig6aIdenticalSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps")
	}
	before := runcache.Default.Stats()
	a := fig(t, "fig5b")
	b := fig(t, "fig6a")
	if len(a.Series) != len(b.Series) {
		t.Fatalf("fig5b has %d series, fig6a %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		if sa.Label != sb.Label {
			t.Fatalf("series %d: label %q vs %q", i, sa.Label, sb.Label)
		}
		if len(sa.Points) != len(sb.Points) {
			t.Fatalf("series %q: %d points vs %d", sa.Label, len(sa.Points), len(sb.Points))
		}
		for j := range sa.Points {
			pa, pb := sa.Points[j], sb.Points[j]
			if pa.Valid != pb.Valid || pa.Cycles != pb.Cycles || pa.CacheBytes != pb.CacheBytes {
				t.Errorf("series %q point %d: fig5b {%d %d %v} != fig6a {%d %d %v}",
					sa.Label, j, pa.CacheBytes, pa.Cycles, pa.Valid, pb.CacheBytes, pb.Cycles, pb.Valid)
			}
		}
	}
	// The shared points were deduplicated through the run cache. Other
	// tests may have warmed it first (fig results are cached per test
	// binary), so only require that hits advanced — never that this test
	// saw the misses itself.
	after := runcache.Default.Stats()
	if runcache.Default.Enabled() && after.Hits == before.Hits {
		t.Error("identical fig5b/fig6a points produced no run-cache hits")
	}
}

// TestGoldenCyclesMatchSeed pins the simulated cycle counts of the paper's
// central figure to the values the seed's benchmark baseline recorded
// (commit b1a4cc1) before any performance work. Optimizations may make the simulator faster, never
// different: these numbers are the bit-identical contract every hot-loop
// change and every cache hit must honor.
func TestGoldenCyclesMatchSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	r := fig(t, "fig5b")
	golden := map[string]map[int]uint64{
		// The seed baseline's BenchmarkFigure5b metrics.
		"16-16": {16: 775093, 32: 775093, 64: 706309, 128: 646861, 256: 576816, 512: 552595},
		"conv":  {16: 949810, 32: 949810, 64: 830017, 128: 725701, 256: 603558, 512: 561634},
		"8-8":   {16: 919434, 32: 919434, 64: 777732, 128: 709953, 256: 595289, 512: 559373},
		"32-32": {32: 711592, 64: 680493, 128: 620132, 256: 567092, 512: 549528},
	}
	for label, points := range golden {
		s := series(t, r, label)
		for size, want := range points {
			if got := at(t, s, size); got != want {
				t.Errorf("%s at %dB: %d cycles, want seed value %d", label, size, got, want)
			}
		}
	}
}

// TestRunPipeCachedMatchesFresh runs one sweep point with the cache
// disabled and then twice with it enabled: all three results must be
// bit-identical, proving memoization never substitutes an approximate
// result.
func TestRunPipeCachedMatchesFresh(t *testing.T) {
	mcfg := mem.Config{AccessTime: 6, BusWidthBytes: 8, InstrPriority: true, FPULatency: 4}
	v := TableII[1]
	runcache.Default.SetEnabled(false)
	fresh, err := RunPipe(context.Background(), v, 128, mcfg, true)
	runcache.Default.SetEnabled(true)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := RunPipe(context.Background(), v, 128, mcfg, true)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := RunPipe(context.Background(), v, 128, mcfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if *fresh != *miss || *fresh != *hit {
		t.Errorf("cached results differ from fresh:\nfresh %+v\nmiss  %+v\nhit   %+v", fresh, miss, hit)
	}
}

// TestRunStoreServesRerun runs one cache-backed experiment twice over a
// fresh run store with the memory tier emptied before each run, as two
// processes sharing a -store-dir would. The rerun must simulate nothing
// (no store writes, one store hit per record the first run archived) and
// report the same metrics, per-point attribution and 3C cache block
// included: a store hit carries the complete statistics.
func TestRunStoreServesRerun(t *testing.T) {
	store, err := runstore.Open(t.TempDir(), runstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runcache.Default.SetStore(store)
	t.Cleanup(func() { runcache.Default.SetStore(nil) })
	e, ok := Lookup("slots")
	if !ok {
		t.Fatal("unknown experiment slots")
	}
	metrics := func() []byte {
		runcache.Default.Reset()
		sum := RunAll([]Experiment{e}, Options{Workers: 1})
		if err := sum.Err(); err != nil {
			t.Fatal(err)
		}
		sum.Elapsed = 0
		for i := range sum.Outcomes {
			sum.Outcomes[i].Elapsed = 0
		}
		var buf bytes.Buffer
		if err := sum.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	cold := metrics()
	c1 := store.Counters()
	warm := metrics()
	c2 := store.Counters()
	if c1.Writes == 0 {
		t.Fatal("first run archived nothing")
	}
	if w := c2.Writes - c1.Writes; w != 0 {
		t.Errorf("rerun wrote %d store records, want 0", w)
	}
	if h := c2.Hits - c1.Hits; h != c1.Writes {
		t.Errorf("rerun made %d store hits, want %d (one per archived run)", h, c1.Writes)
	}
	for _, block := range []string{`"attribution"`, `"cache"`} {
		if !bytes.Contains(warm, []byte(block)) {
			t.Errorf("rerun metrics lack the %s block", block)
		}
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("rerun metrics differ from the first run's:\nfirst %s\nrerun %s", cold, warm)
	}
}
