package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/sweep"
)

// steppedStats is what a sim-stepped measurement phase collected.
type steppedStats struct {
	runMS    passes  // per simulation
	passWall samples // seconds per rotation over the 28 machines
	rate     samples // simulated Minstr per host second of Run, per rotation
	opsRate  samples // simulations per wall second, per rotation
	passes   []work  // per rotation
}

// runStepped is the sim-stepped workload: one closed-loop caller runs the
// Livermore benchmark through pipesim.Run, no run cache, rotating in
// seeded order over the 28 valid Figure 4a machines (T=1, 4-byte bus),
// where skip-ahead folds few cycles and introspection is off.
func runStepped(ctx context.Context, e *env) (*result, error) {
	r := &result{}
	ms, err := e.golden.figureMachines("fig4a")
	if err != nil {
		return nil, err
	}
	if len(ms) != 28 {
		return nil, fmt.Errorf("fig4a has %d valid machines, want 28", len(ms))
	}
	var sp *spans
	if e.traced {
		sp = newSpans()
	}
	su := &setup{m: ms[0], sp: sp}
	if err := su.once(); err != nil {
		return nil, err
	}
	prog := su.prog
	// viaRun is the workload's operation: one pipesim.Run, checked.
	viaRun := func(m machine) (work, time.Duration, error) {
		start := time.Now()
		res, err := pipesim.Run(m.Cfg, prog)
		d := time.Since(start)
		var w work
		if err == nil {
			err = checkCycles(m, res.Cycles, res.Instructions)
			w.addResult(res)
		}
		return w, d, err
	}

	if !e.traced {
		var (
			tb  *tierBench
			rss float64
		)
		// Between rotations: one tier round and one more set-up, so both
		// sample the whole window. The peak RSS is read after the first
		// rotation, before the tier bench starts: its parallel store fill
		// and per-operation image builds would make the peak depend on
		// collection timing.
		between := func() error {
			if tb == nil {
				var err error
				if rss, err = peakRSSMiB(0); err != nil {
					return err
				}
				if tb, err = newTierBench(ctx, e, r, ms); err != nil {
					return err
				}
			}
			tb.round(ctx, e, r)
			return su.once()
		}
		st, err := steppedLoop(ctx, e, r, ms, e.seconds, minSamples(0.9), viaRun, between)
		if err != nil {
			return nil, err
		}
		if err := su.fill(); err != nil {
			return nil, err
		}
		r.counters = st.passes[0].counters("pass.")
		r.addMedian("setup_s", "s", su.seconds)
		r.add("peak_rss_mb", "MiB", rss, samples{rss})
		r.addMedian("sim_minstr_per_s", "Minstr/s", st.rate)
		r.addPercentile("run_ms_p50", "ms", st.runMS, 0.5)
		r.addPercentile("run_ms_p90", "ms", st.runMS, 0.9)
		r.addMedian("catalog_s", "s", st.passWall)
		r.addMedian("req_per_s", "1/s", st.opsRate)
		r.addPercentile("cold_ms_p50", "ms", st.runMS, 0.5)
		r.addPercentile("cold_ms_p90", "ms", st.runMS, 0.9)
		tb.report(ctx, e, r)
		return r, nil
	}

	// Traced: rotations alternate between bare and traced, and both replay
	// the machines through core.New + Simulator.Run, the path that yields
	// the skip-ahead fold counts. Traced rotations run under benchmark
	// spans and the CPU profiler. Alternation spreads host drift over both
	// kinds, so trace.overhead_ratio compares one path with itself.
	coreCfgs, err := coreConfigs(ctx, e, r, ms)
	if err != nil {
		return nil, err
	}
	cfgs := make(map[pointID]core.Config, len(ms))
	for i, m := range ms {
		cfgs[m.ID] = coreCfgs[i]
	}
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return nil, err
	}
	replay := func(sp *spans) func(machine) (work, time.Duration, error) {
		return func(m machine) (work, time.Duration, error) {
			rp, err := replayOne(cfgs[m.ID], img, sp, 0)
			var w work
			if err == nil {
				err = checkCycles(m, rp.st.Cycles, rp.st.CPU.Instructions)
				w.addStats(rp.st, rp.folded)
			}
			return w, rp.newDur + rp.runDur, err
		}
	}
	cacheBefore := runcache.Default.Stats()
	prof := &profiler{e: e}
	base, traced := &steppedStats{}, &steppedStats{}
	start := time.Now()
	for i := 0; i < 2 || !e.elapsed(start); i++ {
		if i%2 == 0 {
			st, err := steppedLoop(ctx, e, r, ms, 0, 1, replay(nil), nil)
			if err != nil {
				return nil, err
			}
			base.append(st)
			continue
		}
		if err := prof.start(); err != nil {
			return nil, err
		}
		st, err := steppedLoop(ctx, e, r, ms, 0, 1, replay(sp), nil)
		if perr := prof.stop(); err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
		traced.append(st)
	}
	requireSame(r, "sim-stepped rotation", append(append([]work(nil), base.passes...), traced.passes...))
	shares, err := prof.shares(ctx)
	if err != nil {
		return nil, err
	}
	l := newLayerMetrics()
	l.median("core.new_us", sp.durations("core.New"))
	runUS := sp.durations("Simulator.Run")
	runMS := make(samples, len(runUS))
	var runNS float64
	for i, us := range runUS {
		runMS[i] = us / 1e3
		runNS += us * 1e3
	}
	l.median("core.run_ms", runMS)
	// Every rotation does the same work, so the per-rotation counts go with
	// the mean run time per rotation.
	l.work(traced.passes[0], runNS/float64(len(traced.passes)))
	l.shares(shares)
	if err := su.fill(); err != nil {
		return nil, err
	}
	l.median("kernels.program_ms", su.programMS)
	cache := runcache.Default.Stats()
	l.count("runcache.hits", cache.Hits-cacheBefore.Hits)
	l.count("runcache.misses", cache.Misses-cacheBefore.Misses)
	l.ratio("trace.overhead_ratio", traced.runMS.flat().median(), base.runMS.flat().median())
	l.into(r)
	r.counters = traced.passes[0].counters("pass.")
	r.notes = append(r.notes, fmt.Sprintf("tracing overhead: traced core.New+Run median %.3f ms (%d runs) vs bare %.3f ms (%d runs), rotations alternating",
		traced.runMS.flat().median(), len(traced.runMS.flat()), base.runMS.flat().median(), len(base.runMS.flat())))
	return r, writeSpans(e, r, sp)
}

// append adds the rotations of o to s.
func (s *steppedStats) append(o *steppedStats) {
	s.runMS = append(s.runMS, o.runMS...)
	s.passWall = append(s.passWall, o.passWall...)
	s.rate = append(s.rate, o.rate...)
	s.opsRate = append(s.opsRate, o.opsRate...)
	s.passes = append(s.passes, o.passes...)
}

// steppedLoop rotates over ms in seeded order, one simulation at a time,
// until the window d has passed and at least minRuns simulations ran;
// rotations always complete, and between (when set) runs after each one,
// outside the rotation's timing. Per-rotation work counters must repeat
// exactly.
func steppedLoop(ctx context.Context, e *env, r *result, ms []machine, d time.Duration, minRuns int,
	run func(machine) (work, time.Duration, error), between func() error) (*steppedStats, error) {
	st := &steppedStats{}
	start := time.Now()
	for time.Since(start) < d || len(st.runMS.flat()) < minRuns {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		passStart := time.Now()
		var (
			pass  work
			runNS float64
		)
		var runMS samples
		for _, i := range e.rng.Perm(len(ms)) {
			w, dur, err := run(ms[i])
			r.check(err)
			pass.add(w)
			runNS += float64(dur.Nanoseconds())
			runMS = append(runMS, ms2(dur))
		}
		st.runMS = append(st.runMS, runMS)
		wall := time.Since(passStart).Seconds()
		st.passWall = append(st.passWall, wall)
		st.rate = append(st.rate, float64(pass.Instr)/(runNS/1e9)/1e6)
		st.opsRate = append(st.opsRate, float64(len(ms))/wall)
		st.passes = append(st.passes, pass)
		r.npasses++
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	requireSame(r, "sim-stepped rotation", st.passes)
	return st, nil
}

// add sums another set of counters into w.
func (w *work) add(o work) {
	w.Cycles += o.Cycles
	w.Folded += o.Folded
	w.Probes += o.Probes
	w.Hits += o.Hits
	w.Prefetches += o.Prefetches
	w.MemTx += o.MemTx
	w.BusBusy += o.BusBusy
	w.Instr += o.Instr
}

// writeSpans writes the traced run's spans as a Chrome-trace file and
// notes its path.
func writeSpans(e *env, r *result, sp *spans) error {
	path := filepath.Join(e.out, fmt.Sprintf("%s-%d-spans.json", e.workload, e.seed))
	if err := sp.writeChrome(path); err != nil {
		return err
	}
	r.notes = append(r.notes, "span file: "+path)
	return nil
}
