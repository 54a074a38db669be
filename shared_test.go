package pipesim_test

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"pipesim"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
)

// maxWarmAllocs bounds the allocations of a warm built-in program lookup.
// Rebuilding one loop costs about 75 and the benchmark about 1,000, so the
// bound catches a per-call rebuild coming back.
const maxWarmAllocs = 32

// Built-in programs are process-wide shared images: every call, from any
// goroutine, hands back the same image, while the loop metadata is a fresh
// copy the caller may modify.
func TestBuiltinProgramsAreShared(t *testing.T) {
	want, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	var wantLoops [14]*pipesim.Program
	for i := range wantLoops {
		if wantLoops[i], err = pipesim.LivermoreKernel(i + 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prog, loops, err := pipesim.LivermoreProgram()
			if err != nil {
				t.Error(err)
				return
			}
			if pipesim.ProgramImage(prog) != pipesim.ProgramImage(want) {
				t.Error("LivermoreProgram returned a different image")
			}
			loops[0].Name = "scribbled"
			for i, w := range wantLoops {
				k, err := pipesim.LivermoreKernel(i + 1)
				if err != nil {
					t.Error(err)
					return
				}
				if pipesim.ProgramImage(k) != pipesim.ProgramImage(w) {
					t.Errorf("LivermoreKernel(%d) returned a different image", i+1)
				}
			}
		}()
	}
	wg.Wait()
	if _, loops, _ := pipesim.LivermoreProgram(); loops[0].Name == "scribbled" {
		t.Error("LivermoreProgram's loop metadata is shared between callers")
	}
	img, err := sweep.BenchmarkImage()
	if err != nil {
		t.Fatal(err)
	}
	if img != pipesim.ProgramImage(want) {
		t.Error("sweep.BenchmarkImage and LivermoreProgram serve different images")
	}
}

func TestBuiltinProgramWarmAllocs(t *testing.T) {
	if _, _, err := pipesim.LivermoreProgram(); err != nil {
		t.Fatal(err)
	}
	if _, err := pipesim.LivermoreKernel(3); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { pipesim.LivermoreProgram() }); n > maxWarmAllocs {
		t.Errorf("warm LivermoreProgram: %.0f allocations, want <= %d", n, maxWarmAllocs)
	}
	if n := testing.AllocsPerRun(20, func() { pipesim.LivermoreKernel(3) }); n > maxWarmAllocs {
		t.Errorf("warm LivermoreKernel: %.0f allocations, want <= %d", n, maxWarmAllocs)
	}
}

// Run keys address archived run-store records, so they must survive any
// change to how images are built, shared or fingerprinted. The keys were
// recorded before built-in images became shared.
func TestLivermoreRunKeysPinned(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	conv := pipesim.DefaultConfig()
	conv.Strategy = pipesim.StrategyConventional
	conv.CacheBytes = 128
	for _, c := range []struct {
		name string
		cfg  pipesim.Config
		key  string
	}{
		{"default", pipesim.DefaultConfig(), "bd6effaa771ed985059d78dddee72f6416f63aa70251b675130d75d39e968464"},
		{"conv-128", conv, "54b6ba24e9edceea7f2622a152e744366942e9e22f189f1351237c6f5a0b1e99"},
	} {
		sim, err := pipesim.NewSimulation(c.cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if got := sim.Key(); got != c.key {
			t.Errorf("%s: run key %s, want %s", c.name, got, c.key)
		}
	}
}

// Concurrent archived runs of the one shared benchmark image reproduce the
// golden catalog's Figure 5a cycles (T=6, 4-byte bus), each machine run by
// two goroutines at once.
func TestSharedProgramConcurrentRunsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the benchmark on several machines")
	}
	golden := fig5aGolden(t)
	runcache.Default.Reset()
	t.Cleanup(runcache.Default.Reset)
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	type machine struct {
		variant string
		size    int
	}
	machines := []machine{{"conv", 32}, {"conv", 256}, {"16-16", 64}, {"16-16", 512}, {"32-32", 128}}
	var wg sync.WaitGroup
	for _, m := range machines {
		want, ok := golden[m.variant][m.size]
		if !ok {
			t.Fatalf("golden catalog has no fig5a %s/%d", m.variant, m.size)
		}
		cfg := pipesim.DefaultConfig()
		if m.variant == "conv" {
			cfg.Strategy = pipesim.StrategyConventional
			cfg.LineBytes = sweep.ConvLineBytes
		} else if cfg, err = pipesim.TableIIConfig(m.variant); err != nil {
			t.Fatal(err)
		}
		cfg.CacheBytes = m.size
		cfg.MemAccessTime = 6
		cfg.BusWidthBytes = 4
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, err := pipesim.RunArchived(context.Background(), cfg, prog)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Cycles != want {
					t.Errorf("fig5a %s/%d: %d cycles, golden %d", m.variant, m.size, res.Cycles, want)
				}
			}()
		}
	}
	wg.Wait()
}

// fig5aGolden reads the Figure 5a cycles from GOLDEN_catalog.json, indexed
// by series label and cache size.
func fig5aGolden(t *testing.T) map[string]map[int]uint64 {
	t.Helper()
	raw, err := os.ReadFile("GOLDEN_catalog.json")
	if err != nil {
		t.Fatal(err)
	}
	var cat struct {
		Outcomes []struct {
			ID     string `json:"id"`
			Series []struct {
				Label  string `json:"label"`
				Points []struct {
					X      int    `json:"x"`
					Cycles uint64 `json:"cycles"`
				} `json:"points"`
			} `json:"series"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[int]uint64{}
	for _, o := range cat.Outcomes {
		if o.ID != "fig5a" {
			continue
		}
		for _, s := range o.Series {
			out[s.Label] = map[int]uint64{}
			for _, p := range s.Points {
				out[s.Label][p.X] = p.Cycles
			}
		}
	}
	return out
}
