package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
	"pipesim/internal/sweep"
)

// timingTier is a run-cache second tier that stores nothing. The cache
// consults it on every memory miss (Lookup) and writes through to it right
// after the fresh simulation (Store), so the interval between the two is
// that point's simulation time. It also sums the work of each distinct
// simulated machine, keeps the Livermore ones' configurations for replay,
// and checks that every Livermore simulation retired the benchmark's
// instruction count.
type timingTier struct {
	benchFP [sha256.Size]byte // Livermore image fingerprint
	sp      *spans

	mu        sync.Mutex
	started   map[runcache.Key][]time.Time
	simMS     samples
	instr     uint64 // instructions of every simulation, duplicates included
	seen      map[runcache.Key]bool
	distinct  work          // every distinct simulated machine
	livermore work          // ... of those, the Livermore-image ones
	cfgs      []core.Config // the Livermore-image machines' configurations
	bad       []error       // Livermore simulations with a wrong instruction count
}

func newTimingTier(benchFP [sha256.Size]byte, sp *spans) *timingTier {
	return &timingTier{benchFP: benchFP, sp: sp,
		started: make(map[runcache.Key][]time.Time), seen: make(map[runcache.Key]bool)}
}

func (t *timingTier) Lookup(k runcache.Key) (stats.Sim, bool) {
	now := time.Now()
	t.mu.Lock()
	t.started[k] = append(t.started[k], now)
	t.mu.Unlock()
	return stats.Sim{}, false
}

func (t *timingTier) Store(k runcache.Key, cfg core.Config, st *stats.Sim) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	starts := t.started[k]
	if len(starts) == 0 {
		return
	}
	start := starts[0]
	t.started[k] = starts[1:]
	t.simMS = append(t.simMS, ms2(now.Sub(start)))
	t.sp.add(span{Name: "simulate", Start: start, Dur: now.Sub(start), Lane: 2, Parent: "sweep.RunAll"})
	t.instr += st.CPU.Instructions
	livermore := runcache.KeyFor(cfg, t.benchFP) == k
	if livermore && st.CPU.Instructions != pipesim.BenchmarkInstructions {
		t.bad = append(t.bad, fmt.Errorf("catalog simulation %s: %d instructions, want %d",
			k.String()[:12], st.CPU.Instructions, pipesim.BenchmarkInstructions))
	}
	if t.seen[k] {
		return
	}
	t.seen[k] = true
	t.distinct.addStats(st, 0)
	if livermore {
		t.livermore.addStats(st, 0)
		t.cfgs = append(t.cfgs, cfg)
	}
}

// catalogTracedPairs is how many untraced and traced catalogs a traced
// run alternates.
const catalogTracedPairs = 2

// catalogRun is one full catalog pass.
type catalogRun struct {
	wall time.Duration
	tier *timingTier
	exps []sweep.Outcome // per experiment: ID and elapsed only
	hits uint64          // run-cache memory hits (in-process dedupe)
	miss uint64
}

// catalogOnce runs the whole experiment catalog through sweep.RunAll with
// e.workers workers over an emptied run cache and checks every point
// against the golden catalog.
func catalogOnce(ctx context.Context, e *env, r *result, sp *spans) (*catalogRun, error) {
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return nil, err
	}
	runcache.Default.Reset()
	tier := newTimingTier(img.Fingerprint(), sp)
	runcache.Default.SetStore(tier)
	defer runcache.Default.SetStore(nil)
	before := runcache.Default.Stats()
	opt := sweep.Options{Workers: e.workers, Context: ctx}
	if sp != nil {
		opt.Progress = func(o sweep.Outcome, done, total int) {
			end := time.Now()
			sp.add(span{Name: "experiment " + o.Experiment.ID, Start: end.Add(-o.Elapsed), Dur: o.Elapsed,
				Lane: 1, Parent: "sweep.RunAll"})
		}
	}
	var sum *sweep.Summary
	wall := sp.time("sweep.RunAll", 0, func() { sum = sweep.RunAll(sweep.Experiments(), opt) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after := runcache.Default.Stats()
	attempted, failures := e.golden.checkSweep(sum)
	r.attempted += attempted
	for _, f := range failures {
		r.fail(errors.New(f))
	}
	for _, err := range tier.bad {
		r.fail(err)
	}
	r.npasses++
	// Keep only what the report needs: a catalog's full results are tens
	// of MiB, and holding them would make the heap, and with it RSS and
	// GC pauses, depend on how many catalogs fit the window.
	exps := make([]sweep.Outcome, len(sum.Outcomes))
	for i, o := range sum.Outcomes {
		exps[i] = sweep.Outcome{Experiment: sweep.Experiment{ID: o.Experiment.ID}, Elapsed: o.Elapsed}
	}
	return &catalogRun{wall: wall, tier: tier, exps: exps,
		hits: after.Hits - before.Hits, miss: after.Misses - before.Misses}, nil
}

// runCatalog is the catalog workload: the full 20-experiment catalog, as
// users reproduce the paper, repeated over a reset run cache.
func runCatalog(ctx context.Context, e *env) (*result, error) {
	r := &result{}
	ms, err := e.golden.figureMachines("fig4a")
	if err != nil {
		return nil, err
	}
	var sp *spans
	if e.traced {
		sp = newSpans()
	}
	su := &setup{m: ms[0], sp: sp}
	if err := su.once(); err != nil {
		return nil, err
	}

	if !e.traced {
		tb, err := newTierBench(ctx, e, r, ms)
		if err != nil {
			return nil, err
		}
		var (
			runs []*catalogRun
			rss  float64
		)
		start := time.Now()
		for len(runs) == 0 || !e.elapsed(start) {
			cr, err := catalogOnce(ctx, e, r, nil)
			if err != nil {
				return nil, err
			}
			runs = append(runs, cr)
			if len(runs) == 1 {
				// The peak of one catalog in a fresh process, as a user
				// running the experiments sees it. Later catalogs reuse
				// heap the first freed, and how much of it they touch
				// depends on collection timing.
				if rss, err = peakRSSMiB(0); err != nil {
					return nil, err
				}
			}
			// Collect the catalog's garbage first, so every tier round and
			// set-up starts from a comparable heap.
			runtime.GC()
			tb.round(ctx, e, r)
			if err := su.once(); err != nil {
				return nil, err
			}
		}
		if err := su.fill(); err != nil {
			return nil, err
		}
		var walls, rate, ptsRate samples
		var simMS passes
		var perRun []work
		for _, cr := range runs {
			s := cr.wall.Seconds()
			walls = append(walls, s)
			simMS = append(simMS, cr.tier.simMS)
			rate = append(rate, float64(cr.tier.instr)/s/1e6)
			ptsRate = append(ptsRate, float64(len(e.golden.order))/s)
			perRun = append(perRun, cr.tier.distinct)
		}
		requireSame(r, "catalog distinct machines", perRun)
		r.counters = perRun[0].counters("catalog.")
		last := runs[len(runs)-1]
		r.counters = append(r.counters, counter{"catalog.distinct_simulations", uint64(len(last.tier.seen))})
		r.notes = append(r.notes, fmt.Sprintf("in-process run-cache dedupe (last catalog, varies with worker interleaving): %d hits, %d misses",
			last.hits, last.miss))
		r.addMedian("setup_s", "s", su.seconds)
		r.add("peak_rss_mb", "MiB", rss, samples{rss})
		r.addMedian("sim_minstr_per_s", "Minstr/s", rate)
		r.addPercentile("run_ms_p50", "ms", simMS, 0.5)
		r.addPercentile("run_ms_p90", "ms", simMS, 0.9)
		r.addMedian("catalog_s", "s", walls)
		r.addMedian("req_per_s", "1/s", ptsRate)
		r.addPercentile("cold_ms_p50", "ms", simMS, 0.5)
		r.addPercentile("cold_ms_p90", "ms", simMS, 0.9)
		tb.report(ctx, e, r)
		return r, nil
	}

	// Traced: untraced catalogs alternate with catalogs under spans and the
	// CPU profiler, so host drift spreads over both kinds. Then the first
	// traced catalog's distinct Livermore machines are replayed through
	// core.New + Simulator.Run for the fold counts.
	prof := &profiler{e: e}
	var base, traced []*catalogRun
	var walls, tracedWalls samples
	for i := 0; i < catalogTracedPairs; i++ {
		cr, err := catalogOnce(ctx, e, r, nil)
		if err != nil {
			return nil, err
		}
		base, walls = append(base, cr), append(walls, cr.wall.Seconds())
		runtime.GC()
		if err := prof.start(); err != nil {
			return nil, err
		}
		cr, err = catalogOnce(ctx, e, r, sp)
		if perr := prof.stop(); err == nil {
			err = perr
		}
		if err != nil {
			return nil, err
		}
		traced, tracedWalls = append(traced, cr), append(tracedWalls, cr.wall.Seconds())
		runtime.GC()
	}
	var perRun []work
	for _, cr := range append(append([]*catalogRun(nil), base...), traced...) {
		perRun = append(perRun, cr.tier.distinct)
	}
	requireSame(r, "catalog distinct machines", perRun)
	shares, err := prof.shares(ctx)
	if err != nil {
		return nil, err
	}
	first := traced[0]
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return nil, err
	}
	replayStart := time.Now()
	w, newUS, runMS, runNS, err := replayAll(e, first.tier.cfgs, img, sp)
	if err != nil {
		return nil, err
	}
	sp.add(span{Name: "replay", Start: replayStart, Dur: time.Since(replayStart), Lane: 0})
	noFold := w
	noFold.Folded = 0
	if noFold != first.tier.livermore {
		r.fail(fmt.Errorf("replay work %+v differs from the catalog's %+v", noFold, first.tier.livermore))
	}
	l := newLayerMetrics()
	l.median("core.new_us", newUS)
	l.median("core.run_ms", runMS)
	l.work(w, runNS)
	l.shares(shares)
	if err := su.fill(); err != nil {
		return nil, err
	}
	l.median("kernels.program_ms", su.programMS)
	l.count("runcache.hits", first.hits)
	l.count("runcache.misses", first.miss)
	expS := make(map[string]samples)
	var idle samples
	for _, cr := range traced {
		var busy float64
		for _, o := range cr.exps {
			expS[o.Experiment.ID] = append(expS[o.Experiment.ID], o.Elapsed.Seconds())
			busy += o.Elapsed.Seconds()
		}
		idle = append(idle, float64(e.workers)*cr.wall.Seconds()-busy)
	}
	for id, s := range expS {
		l.median("sweep.experiment_s."+id, s)
	}
	l.median("sweep.idle_worker_s", idle)
	l.ratio("trace.overhead_ratio", tracedWalls.median(), walls.median())
	l.into(r)
	r.counters = append(first.tier.distinct.counters("catalog."), w.counters("replay.")...)
	r.counters = append(r.counters, counter{"replay.machines", uint64(len(first.tier.cfgs))})
	r.notes = append(r.notes, fmt.Sprintf("tracing overhead: traced catalog median %.3f s (%d catalogs) vs untraced %.3f s (%d catalogs), alternating",
		tracedWalls.median(), len(tracedWalls), walls.median(), len(walls)))
	return r, writeSpans(e, r, sp)
}
