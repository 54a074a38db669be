package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"pipesim"
	"pipesim/internal/core"
	"pipesim/internal/program"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/stats"
	"pipesim/internal/sweep"
)

// minSetups is the fewest set-up repetitions a run reports the median
// of.
const minSetups = 5

// setup is the in-process workloads' set-up: build the Livermore image
// (pipesim.LivermoreProgram) and run one warm-up simulation of a machine.
// Runs repeat it between measurement passes, so the reported median
// samples the whole run rather than its first second.
type setup struct {
	m         machine
	sp        *spans
	prog      *pipesim.Program // the last image built
	seconds   samples          // whole set-up
	programMS samples          // image build only
}

// once performs one set-up.
func (s *setup) once() error {
	start := time.Now()
	var (
		prog *pipesim.Program
		err  error
	)
	d := s.sp.time("pipesim.LivermoreProgram", 0, func() { prog, _, err = pipesim.LivermoreProgram() })
	if err != nil {
		return err
	}
	res, err := pipesim.Run(s.m.Cfg, prog)
	if err != nil {
		return fmt.Errorf("warm-up run %s: %w", s.m.ID, err)
	}
	if err := checkCycles(s.m, res.Cycles, res.Instructions); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	s.prog = prog
	s.seconds = append(s.seconds, time.Since(start).Seconds())
	s.programMS = append(s.programMS, ms2(d))
	return nil
}

// fill repeats the set-up until minSetups samples exist.
func (s *setup) fill() error {
	for len(s.seconds) < minSetups {
		if err := s.once(); err != nil {
			return err
		}
	}
	return nil
}

// checkCycles compares one simulated result with the golden catalog and
// the benchmark's fixed instruction count.
func checkCycles(m machine, cycles, instructions uint64) error {
	if cycles != m.Cycles {
		return fmt.Errorf("%s: %d cycles, golden %d", m.ID, cycles, m.Cycles)
	}
	if instructions != pipesim.BenchmarkInstructions {
		return fmt.Errorf("%s: %d instructions, want %d", m.ID, instructions, pipesim.BenchmarkInstructions)
	}
	return nil
}

// work sums the deterministic work counters of a set of simulations.
type work struct {
	Cycles     uint64 // simulated cycles (ticked + folded)
	Folded     uint64 // cycles elided by skip-ahead (replays only)
	Probes     uint64 // instruction-cache lookups
	Hits       uint64 // ... that hit
	Prefetches uint64 // prefetch requests issued off-chip
	MemTx      uint64 // requests accepted by the memory interface
	BusBusy    uint64 // cycles the input bus carried data
	Instr      uint64 // retired instructions
}

func (w *work) addStats(st *stats.Sim, folded uint64) {
	w.Cycles += st.Cycles
	w.Folded += folded
	w.Probes += st.Fetch.CacheHits + st.Fetch.CacheMisses
	w.Hits += st.Fetch.CacheHits
	w.Prefetches += st.Fetch.Prefetches
	for _, n := range st.Mem.Accepted {
		w.MemTx += n
	}
	w.BusBusy += st.Mem.InputBusCycles
	w.Instr += st.CPU.Instructions
}

func (w *work) addResult(r *pipesim.Result) {
	w.Cycles += r.Cycles
	w.Probes += r.CacheHits + r.CacheMisses
	w.Hits += r.CacheHits
	w.Prefetches += r.Prefetches
	for _, n := range r.MemAccepted {
		w.MemTx += n
	}
	w.BusBusy += r.InputBusCycles
	w.Instr += r.Instructions
}

// counters lists w as named exact counts.
func (w work) counters(prefix string) []counter {
	return []counter{
		{prefix + "sim_cycles", w.Cycles},
		{prefix + "core.folded_cycles", w.Folded},
		{prefix + "fetch.cache_probes", w.Probes},
		{prefix + "fetch.cache_hits", w.Hits},
		{prefix + "fetch.prefetches", w.Prefetches},
		{prefix + "mem.transactions", w.MemTx},
		{prefix + "mem.input_bus_cycles", w.BusBusy},
		{prefix + "instructions", w.Instr},
	}
}

// requireSame fails the run when the per-pass work counters drift: the
// simulator is deterministic, so every pass over the same machines must
// do exactly the same work.
func requireSame(r *result, what string, passes []work) {
	for i := 1; i < len(passes); i++ {
		if passes[i] != passes[0] {
			r.fail(fmt.Errorf("%s: work counters drifted between passes: %+v vs %+v", what, passes[0], passes[i]))
			return
		}
	}
}

// replayed is one machine simulated through core.New + Simulator.Run,
// the path that exposes skip-ahead's folded-cycle count.
type replayed struct {
	st     *stats.Sim
	folded uint64
	newDur time.Duration
	runDur time.Duration
}

// replayOne simulates cfg over img through the core package, recording
// core.New and Simulator.Run spans on lane.
func replayOne(cfg core.Config, img *program.Image, sp *spans, lane int) (replayed, error) {
	var (
		sim *core.Simulator
		out replayed
		err error
	)
	out.newDur = sp.time("core.New", lane, func() { sim, err = core.New(cfg, img) })
	if err != nil {
		return out, err
	}
	out.runDur = sp.time("Simulator.Run", lane, func() { out.st, err = sim.Run() })
	if err != nil {
		return out, err
	}
	out.folded = sim.SkippedCycles()
	return out, nil
}

// replayAll replays cfgs on e.workers goroutines and sums their work;
// timings go to the layer metrics' core.* samples.
func replayAll(e *env, cfgs []core.Config, img *program.Image, sp *spans) (w work, newUS, runMS samples, runNS float64, err error) {
	type item struct {
		rp  replayed
		err error
	}
	out := make([]item, len(cfgs))
	next := make(chan int)
	done := make(chan struct{})
	for lane := 0; lane < e.workers; lane++ {
		go func(lane int) {
			for i := range next {
				rp, err := replayOne(cfgs[i], img, sp, lane)
				out[i] = item{rp, err}
			}
			done <- struct{}{}
		}(lane)
	}
	for i := range cfgs {
		next <- i
	}
	close(next)
	for lane := 0; lane < e.workers; lane++ {
		<-done
	}
	for _, it := range out {
		if it.err != nil {
			return w, nil, nil, 0, it.err
		}
		w.addStats(it.rp.st, it.rp.folded)
		newUS = append(newUS, float64(it.rp.newDur.Nanoseconds())/1e3)
		runMS = append(runMS, float64(it.rp.runDur.Nanoseconds())/1e6)
		runNS += float64(it.rp.runDur.Nanoseconds())
	}
	return w, newUS, runMS, runNS, nil
}

// archiveAll simulates each machine once through pipesim.RunArchived on
// e.workers goroutines, with tier as the second tier of an emptied run
// cache, so every result is written through to it. Each result is checked
// against the golden catalog, as one operation of r. It returns each
// machine's run key (hex), "" where the run failed.
func archiveAll(ctx context.Context, e *env, r *result, tier runcache.Tier, ms []machine) []string {
	keys := make([]string, len(ms))
	errs := make([]error, len(ms))
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		for range ms {
			r.check(err)
		}
		return keys
	}
	defer attachTier(tier)()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				m := ms[i]
				res, src, err := pipesim.RunArchived(ctx, m.Cfg, prog)
				switch {
				case err != nil:
				case src != pipesim.RunSimulated:
					err = fmt.Errorf("archiving %s: source %s, want %s", m.ID, src, pipesim.RunSimulated)
				default:
					err = checkCycles(m, res.Cycles, res.Instructions)
					keys[i] = res.Key
				}
				errs[i] = err
			}
		}()
	}
	for i := range ms {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		r.check(err)
	}
	return keys
}

// attachTier installs tier as the second tier of an emptied run cache. The
// returned func removes it and empties the cache again, so measurement
// passes never see either.
func attachTier(tier runcache.Tier) (detach func()) {
	runcache.Default.Reset()
	runcache.Default.SetStore(tier)
	return func() {
		runcache.Default.SetStore(nil)
		runcache.Default.Reset()
	}
}

// cfgRecorder is a run-cache second tier that stores no results, only the
// internal configuration of each simulation written through it: the
// library's own translation of a public Config, keyed by run key (hex).
type cfgRecorder struct {
	mu   sync.Mutex
	cfgs map[string]core.Config
}

func (c *cfgRecorder) Lookup(runcache.Key) (stats.Sim, bool) { return stats.Sim{}, false }

func (c *cfgRecorder) Store(k runcache.Key, cfg core.Config, _ *stats.Sim) {
	c.mu.Lock()
	c.cfgs[k.String()] = cfg
	c.mu.Unlock()
}

// coreConfigs returns the internal configuration the library simulates
// for each machine, for replays through core.New. It simulates each
// machine once to record it (see archiveAll).
func coreConfigs(ctx context.Context, e *env, r *result, ms []machine) ([]core.Config, error) {
	rec := &cfgRecorder{cfgs: make(map[string]core.Config)}
	keys := archiveAll(ctx, e, r, rec, ms)
	out := make([]core.Config, len(ms))
	for i, k := range keys {
		cfg, ok := rec.cfgs[k]
		if !ok {
			return nil, fmt.Errorf("%s: no configuration recorded", ms[i].ID)
		}
		out[i] = cfg
	}
	return out, nil
}

// tierMemoryReps is how many times a tier round serves each machine from
// the memory tier, after serving it once from the store.
const tierMemoryReps = 20

// tierWindows is the fewest windows (see passes.percentile) that a run's
// tier rounds fill for every tier percentile.
const tierWindows = 3

// tierBench measures, in-process, the request pipesimd serves from its
// result tiers: build the Livermore image, then pipesim.RunArchived, which
// fingerprints the fresh image for the run key and serves the result from
// the memory LRU or from a persistent run store. That is the daemon's
// POST /v1/run handler without HTTP and JSON. Runs spread its rounds over
// the measurement window.
type tierBench struct {
	ms       []machine
	store    *runstore.Store
	memoryMS passes // per round
	storeMS  passes
}

// newTierBench opens a run store in the scratch directory and fills it by
// simulating each machine once, checking each result.
func newTierBench(ctx context.Context, e *env, r *result, ms []machine) (*tierBench, error) {
	dir, err := os.MkdirTemp(e.work, "tierbench-")
	if err != nil {
		return nil, err
	}
	st, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		return nil, err
	}
	archiveAll(ctx, e, r, st, ms)
	return &tierBench{ms: ms, store: st}, nil
}

// call serves one machine, timing the image build and RunArchived
// together, and checks the source and the result.
func (t *tierBench) call(ctx context.Context, r *result, m machine, want pipesim.RunSource) time.Duration {
	start := time.Now()
	var (
		res *pipesim.Result
		src pipesim.RunSource
	)
	prog, _, err := pipesim.LivermoreProgram()
	if err == nil {
		res, src, err = pipesim.RunArchived(ctx, m.Cfg, prog)
	}
	d := time.Since(start)
	switch {
	case err != nil:
	case src != want:
		err = fmt.Errorf("%s: RunArchived source %s, want %s", m.ID, src, want)
	default:
		err = checkCycles(m, res.Cycles, res.Instructions)
	}
	r.check(err)
	return d
}

// round reads every machine once from the store (the memory tier starts
// empty), then tierMemoryReps more times from memory, in seeded order.
func (t *tierBench) round(ctx context.Context, e *env, r *result) {
	defer attachTier(t.store)()
	var storeMS, memoryMS samples
	for _, i := range e.rng.Perm(len(t.ms)) {
		storeMS = append(storeMS, ms2(t.call(ctx, r, t.ms[i], pipesim.RunFromStore)))
	}
	for rep := 0; rep < tierMemoryReps; rep++ {
		for _, i := range e.rng.Perm(len(t.ms)) {
			memoryMS = append(memoryMS, ms2(t.call(ctx, r, t.ms[i], pipesim.RunFromMemory)))
		}
	}
	t.storeMS = append(t.storeMS, storeMS)
	t.memoryMS = append(t.memoryMS, memoryMS)
}

// report adds rounds until every tier percentile fills tierWindows
// windows, then reports the tier metrics.
func (t *tierBench) report(ctx context.Context, e *env, r *result) {
	for len(t.storeMS.flat()) < tierWindows*minSamples(0.9) || len(t.memoryMS.flat()) < tierWindows*minSamples(0.9) {
		t.round(ctx, e, r)
	}
	r.addPercentile("memory_ms_p50", "ms", t.memoryMS, 0.5)
	r.addPercentile("memory_ms_p90", "ms", t.memoryMS, 0.9)
	r.addPercentile("store_ms_p50", "ms", t.storeMS, 0.5)
	r.addPercentile("store_ms_p90", "ms", t.storeMS, 0.9)
}

// ms2 converts a duration to milliseconds.
func ms2(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// profiler takes in-process CPU profiles of separate intervals of one run
// and folds them together into per-package shares.
type profiler struct {
	e     *env
	fh    *os.File
	files []string
}

// start begins profiling an interval.
func (p *profiler) start() error {
	path := filepath.Join(p.e.out, fmt.Sprintf("%s-%d-cpu-%d.pprof", p.e.workload, p.e.seed, len(p.files)))
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(fh); err != nil {
		fh.Close()
		return err
	}
	p.fh = fh
	p.files = append(p.files, path)
	return nil
}

// stop ends the interval.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.fh.Close()
}

// shares folds every interval's profile.
func (p *profiler) shares(ctx context.Context) (map[string]float64, error) {
	return foldProfile(ctx, p.e.work, p.files...)
}

// layerMetrics holds the per-layer metrics of a traced run. Every name is
// reported on every workload; a layer a workload does not exercise reads 0
// with 0 samples.
type layerMetrics struct {
	order []string
	vals  map[string]metric
}

// layerNames lists the per-layer metrics with their units, in report
// order.
func layerNames() [][2]string {
	names := [][2]string{
		{"core.new_us", "us"}, {"core.run_ms", "ms"}, {"core.ns_per_ticked_cycle", "ns"},
		{"core.ticked_cycles", "count"}, {"core.folded_cycles", "count"}, {"core.fold_ratio", "ratio"},
	}
	for _, b := range profileBuckets {
		names = append(names, [2]string{"prof." + b + ".share", "ratio"})
	}
	names = append(names, [][2]string{
		{"fetch.cache_probes", "count"}, {"fetch.hit_ratio", "ratio"}, {"fetch.prefetches", "count"},
		{"mem.transactions", "count"}, {"mem.bus_busy_ratio", "ratio"},
		{"kernels.program_ms", "ms"}, {"pipesimd.build_us_p50", "us"},
		{"pipesimd.decode_us_p50", "us"}, {"pipesimd.encode_us_p50", "us"},
		{"runcache.lookup_us_p50.hit", "us"}, {"runcache.lookup_us_p50.store_hit", "us"},
		{"runcache.lookup_us_p50.miss", "us"}, {"runcache.hits", "count"}, {"runcache.misses", "count"},
		{"runstore.read_us_p50", "us"}, {"runstore.write_ms_p50", "ms"},
		{"runstore.hits", "count"}, {"runstore.writes", "count"},
	}...)
	for _, x := range sweep.Experiments() {
		names = append(names, [2]string{"sweep.experiment_s." + x.ID, "s"})
	}
	names = append(names, [2]string{"sweep.idle_worker_s", "s"}, [2]string{"trace.overhead_ratio", "ratio"})
	return names
}

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{vals: make(map[string]metric)}
	for _, nu := range layerNames() {
		l.order = append(l.order, nu[0])
		l.vals[nu[0]] = metric{Name: nu[0], Unit: nu[1]}
	}
	return l
}

// set records a value computed from samples s.
func (l *layerMetrics) set(name string, v float64, s samples) {
	m, ok := l.vals[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m.Value, m.N, m.Q = v, len(s), s.quartiles()
	l.vals[name] = m
}

// median records the median of s (nothing when s is empty).
func (l *layerMetrics) median(name string, s samples) {
	if len(s) > 0 {
		l.set(name, s.median(), s)
	}
}

// count records an exact count.
func (l *layerMetrics) count(name string, v uint64) {
	l.set(name, float64(v), samples{float64(v)})
}

// ratio records num/den (nothing when den is 0).
func (l *layerMetrics) ratio(name string, num, den float64) {
	if den != 0 {
		l.set(name, num/den, samples{num / den})
	}
}

// work records the simulator-layer counters of w; runNS is the summed
// Simulator.Run time behind it.
func (l *layerMetrics) work(w work, runNS float64) {
	ticked := w.Cycles - w.Folded
	l.count("core.ticked_cycles", ticked)
	l.count("core.folded_cycles", w.Folded)
	l.ratio("core.fold_ratio", float64(w.Folded), float64(w.Cycles))
	l.ratio("core.ns_per_ticked_cycle", runNS, float64(ticked))
	l.count("fetch.cache_probes", w.Probes)
	l.ratio("fetch.hit_ratio", float64(w.Hits), float64(w.Probes))
	l.count("fetch.prefetches", w.Prefetches)
	l.count("mem.transactions", w.MemTx)
	l.ratio("mem.bus_busy_ratio", float64(w.BusBusy), float64(w.Cycles))
}

// shares records folded CPU-profile shares.
func (l *layerMetrics) shares(sh map[string]float64) {
	for b, v := range sh {
		l.set("prof."+b+".share", v, samples{v})
	}
}

// into appends the metrics to r in report order.
func (l *layerMetrics) into(r *result) {
	for _, n := range l.order {
		r.metrics = append(r.metrics, l.vals[n])
	}
}
