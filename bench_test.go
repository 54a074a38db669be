// Overhead ladders: each benchmark runs the same Livermore workload with
// one feature off and on, so the ratio between sub-benchmarks prices the
// feature on this host. They are plain `go test -bench` runs and gate
// nothing: exact work is gated by GOLDEN_work.json (TestWorkGolden), and
// host time by scripts/ab.sh, which compares perfbench runs of two
// revisions on one machine.
package pipesim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
	"pipesim/internal/tracing"
)

// uncached disables the process-wide run cache for one benchmark so it
// measures real simulation work. With memoization on, every iteration past
// the first would return a stored result and the timing would be
// meaningless as a simulator-speed baseline.
func uncached(b *testing.B) {
	b.Helper()
	runcache.Default.SetEnabled(false)
	b.Cleanup(func() { runcache.Default.SetEnabled(true) })
}

// BenchmarkSkipAhead is the skip-vs-step A/B ladder behind DESIGN §16's
// speedup table: the benchmark machine (16-16, T=6, 8-byte bus) at the
// paper's cache sizes around the knee, with the event-driven skip-ahead on
// (the default) and off. The ratio between the step and skip variants at
// each size is the fold win. The 128-byte skip run is the machine of
// GOLDEN_work.json's fig5b entry.
func BenchmarkSkipAhead(b *testing.B) {
	uncached(b)
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{64, 128, 256} {
		for _, mode := range []struct {
			name   string
			noSkip bool
		}{{"skip", false}, {"step", true}} {
			b.Run(fmt.Sprintf("%dB/%s", size, mode.name), func(b *testing.B) {
				cfg := pipesim.DefaultConfig()
				cfg.CacheBytes = size
				cfg.MemAccessTime = 6
				cfg.BusWidthBytes = 8
				cfg.FPULatency = 4
				cfg.NoSkipAhead = mode.noSkip
				var cycles uint64
				for i := 0; i < b.N; i++ {
					res, err := pipesim.Run(cfg, prog)
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(cycles), "sim_cycles")
			})
		}
	}
}

// nullProbe receives the full event stream and discards it — the cheapest
// possible attached probe, isolating the event-emission cost itself.
type nullProbe struct{ n uint64 }

func (p *nullProbe) Event(e pipesim.ProbeEvent) { p.n++ }

// BenchmarkProbeOverhead compares a full Livermore-benchmark run with no
// probe attached (only nil checks at the event sites) against the same run
// feeding a do-nothing probe and a timeline collector. The no-probe case is
// the observability layer's headline cost and must stay within noise of the
// pre-instrumentation simulator.
func BenchmarkProbeOverhead(b *testing.B) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	run := func(b *testing.B, observe func(s *pipesim.Simulation)) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			sim, err := pipesim.NewSimulation(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			if observe != nil {
				observe(sim)
			}
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("no-probe", func(b *testing.B) { run(b, nil) })
	b.Run("null-probe", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) { s.Observe(&nullProbe{}) })
	})
	b.Run("perloop", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) {
			if err := s.CollectPerLoop(); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("timeline", func(b *testing.B) {
		run(b, func(s *pipesim.Simulation) { s.Observe(pipesim.NewTimeline()) })
	})
}

// BenchmarkPostMortemReplay prices the failure path. A run keeps no flight
// recorder: when it deadlocks, the simulator replays it up to the failing
// cycle with the recorder attached. "off" disables post-mortems (negative
// depth), "on" is the default. The deadlock is a read of R7 with no load
// outstanding, caught by the watchdog after WatchdogCycles idle cycles;
// the failed run and its replay both fold that idle span, so the window
// size should barely move either.
func BenchmarkPostMortemReplay(b *testing.B) {
	prog, err := pipesim.Assemble(`
        li   r1, 1
        add  r2, r7, r1
        halt
`)
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []uint64{2_000, 1_000_000} {
		for _, pm := range []struct {
			name  string
			depth int
		}{{"off", -1}, {"on", 0}} {
			b.Run(fmt.Sprintf("watchdog-%d/%s", window, pm.name), func(b *testing.B) {
				cfg := pipesim.DefaultConfig()
				cfg.WatchdogCycles = window
				cfg.FlightRecorderDepth = pm.depth
				for i := 0; i < b.N; i++ {
					_, err := pipesim.Run(cfg, prog)
					var dl *pipesim.DeadlockError
					if !errors.As(err, &dl) {
						b.Fatalf("Run err = %v, want *DeadlockError", err)
					}
					if (pm.depth < 0) != (len(dl.Recent) == 0) {
						b.Fatalf("depth %d: post-mortem holds %d events", pm.depth, len(dl.Recent))
					}
				}
			})
		}
	}
}

// BenchmarkMissClassOverhead prices the cache-introspection layer. "off"
// is the default configuration — one nil check at each engine accounting
// site. "on" feeds every reference through the two shadow models (infinite
// seen-set and the equal-size FA-LRU, sharing one paged line table); that
// cost is only paid when Config.CacheStats is requested. "on-64B" is the
// worst case for the shadows: the thrashing small cache misses constantly,
// so the classification switch and hot-PC map run at peak rate. "conv-on"
// is the conventional always-prefetch cache with introspection on, which
// sees a reference every supplied instruction; with the PIPE inputs here
// and in BenchmarkSkipAhead it rounds out the profile scripts/pgo.sh
// records.
func BenchmarkMissClassOverhead(b *testing.B) {
	uncached(b)
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, cacheBytes int, on bool, conv bool) {
		cfg := pipesim.DefaultConfig()
		if conv {
			cfg.Strategy = pipesim.StrategyConventional
			cfg.LineBytes = sweep.ConvLineBytes
		}
		cfg.CacheBytes = cacheBytes
		cfg.CacheStats = on
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := pipesim.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("off", func(b *testing.B) { run(b, 128, false, false) })
	b.Run("on", func(b *testing.B) { run(b, 128, true, false) })
	b.Run("on-64B", func(b *testing.B) { run(b, 64, true, false) })
	b.Run("conv-on", func(b *testing.B) { run(b, 128, true, true) })
}

// BenchmarkRunHookOverhead guards the per-run metrics hook the same way
// BenchmarkProbeOverhead guards the probe layer: a full benchmark run with
// no hook installed (one atomic load per Run) against the same run firing
// a counting hook. The unset case is the library's default and must stay
// within noise of a build without the hook plumbing.
func BenchmarkRunHookOverhead(b *testing.B) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipesim.DefaultConfig()
	run := func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			res, err := pipesim.Run(cfg, prog)
			if err != nil {
				b.Fatal(err)
			}
			cycles = res.Cycles
		}
		b.ReportMetric(float64(cycles), "sim_cycles")
	}
	b.Run("no-hook", func(b *testing.B) {
		pipesim.SetRunHook(nil)
		run(b)
	})
	b.Run("counting-hook", func(b *testing.B) {
		var runs uint64
		pipesim.SetRunHook(func(ri pipesim.RunInfo) { runs++ })
		defer pipesim.SetRunHook(nil)
		run(b)
	})
}

// BenchmarkRunCacheHit measures a memoized run: the key hash, the LRU
// lookup and the copy-out — everything but the simulation. The gap to a
// simulated run (tens of milliseconds) is what the cache saves on every
// repeated configuration.
func BenchmarkRunCacheHit(b *testing.B) {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cache := runcache.New(16)
	if _, err := cache.Run(cfg, img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Run(cfg, img); err != nil {
			b.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Hits < uint64(b.N) {
		b.Fatalf("expected every iteration to hit, got %+v", s)
	}
}

// BenchmarkSpanOverhead prices the tracing layer at its two states. The
// "untraced" case is every library call path when no daemon is attached:
// StartSpan finds no span in the context and returns the nil no-op span —
// one context value lookup, no allocation. The "traced" case is a pipesimd
// request: a real child span started, annotated and ended. Neither runs
// per simulated cycle; spans bracket whole stages, so even the traced cost
// is amortized over millions of cycles.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, span := tracing.StartSpan(ctx, "stage")
			span.End()
		}
	})
	b.Run("traced", func(b *testing.B) {
		tr := tracing.New(4)
		ctx, root := tr.StartTrace(context.Background(), "bench", "bench", tracing.TraceContext{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, span := tracing.StartSpan(ctx, "stage")
			span.SetAttr("outcome", "hit")
			span.End()
		}
		b.StopTimer()
		root.End()
	})
}
