// Package sweep defines the paper's experiments: for every figure and
// table in the evaluation section there is a runnable experiment that
// sweeps the relevant parameters over the Livermore-loop benchmark and
// produces the same rows/series the paper reports.
package sweep

import (
	"context"

	"fmt"
	"sort"
	"strings"

	"pipesim/internal/core"
	"pipesim/internal/isa"
	"pipesim/internal/kernels"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
	"pipesim/internal/synth"
)

// CacheSizes is the cache-size axis of the paper's figures.
var CacheSizes = []int{16, 32, 64, 128, 256, 512}

// PipeVariant is one Table II IQ/IQB configuration.
type PipeVariant struct {
	Name string
	Line int
	IQ   int
	IQB  int
}

// TableII lists the paper's simulated IQ and IQB configurations.
var TableII = []PipeVariant{
	{Name: "8-8", Line: 8, IQ: 8, IQB: 8},
	{Name: "16-16", Line: 16, IQ: 16, IQB: 16},
	{Name: "16-32", Line: 32, IQ: 16, IQB: 32},
	{Name: "32-32", Line: 32, IQ: 32, IQB: 32},
}

// ConvLineBytes is the conventional cache's line (tag) granularity used in
// the comparisons; fills are per-instruction sub-blocks.
const ConvLineBytes = 16

// Point is one simulation result in a series.
type Point struct {
	CacheBytes int
	Cycles     uint64
	Valid      bool // false when cache size < line size (no such machine)
	Stats      *stats.Sim
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Result is a rendered experiment.
type Result struct {
	ID          string
	Title       string
	Description string
	XLabel      string
	Series      []Series
}

// BenchmarkImage returns the process-wide Livermore benchmark image, the
// same one pipesim.LivermoreProgram serves (see kernels.Benchmark).
func BenchmarkImage() (*program.Image, error) { return kernels.Benchmark() }

// runPoint simulates one configuration point through the content-addressed
// run cache: repeated points (figures share machines, daemons repeat
// sweeps) return the memoized statistics without re-simulating. Experiments
// that attach tracers or probes must not use it — a cached result replays
// no events — and call core.New directly instead.
func runPoint(ctx context.Context, cfg core.Config, img *program.Image) (*stats.Sim, error) {
	return runcache.Default.RunCtx(ctx, cfg, img)
}

// memConfig assembles the paper's memory-system settings.
func memConfig(accessTime, busWidth int, pipelined bool) mem.Config {
	return mem.Config{
		AccessTime:    accessTime,
		BusWidthBytes: busWidth,
		Pipelined:     pipelined,
		InstrPriority: true,
		FPULatency:    4,
	}
}

// RunPipe simulates one PIPE configuration point on the benchmark.
func RunPipe(ctx context.Context, v PipeVariant, cacheBytes int, mcfg mem.Config, truePrefetch bool) (*stats.Sim, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Fetch:        core.FetchPIPE,
		CacheBytes:   cacheBytes,
		LineBytes:    v.Line,
		IQBytes:      v.IQ,
		IQBBytes:     v.IQB,
		TruePrefetch: truePrefetch,
		Mem:          mcfg,
		CPU:          core.DefaultConfig().CPU,
	}
	return runPoint(ctx, cfg, img)
}

// RunConv simulates one conventional-cache point on the benchmark.
func RunConv(ctx context.Context, cacheBytes int, mcfg mem.Config) (*stats.Sim, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Fetch:      core.FetchConventional,
		CacheBytes: cacheBytes,
		LineBytes:  ConvLineBytes,
		Mem:        mcfg,
		CPU:        core.DefaultConfig().CPU,
	}
	return runPoint(ctx, cfg, img)
}

// runPipeIntro is RunPipe with cache introspection enabled: the figure
// experiments run their points introspected so sweep summaries can report
// the 3C miss-class breakdown. Kept separate from RunPipe — introspection
// keys differently in the run cache, and the simulator benchmarks
// (perfbench's sim-stepped) measure the uninstrumented path.
func runPipeIntro(ctx context.Context, v PipeVariant, cacheBytes int, mcfg mem.Config, truePrefetch bool) (*stats.Sim, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Fetch:           core.FetchPIPE,
		CacheBytes:      cacheBytes,
		LineBytes:       v.Line,
		IQBytes:         v.IQ,
		IQBBytes:        v.IQB,
		TruePrefetch:    truePrefetch,
		Mem:             mcfg,
		CPU:             core.DefaultConfig().CPU,
		CacheIntrospect: true,
	}
	return runPoint(ctx, cfg, img)
}

// runConvIntro is RunConv with cache introspection enabled (see
// runPipeIntro).
func runConvIntro(ctx context.Context, cacheBytes int, mcfg mem.Config) (*stats.Sim, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Fetch:           core.FetchConventional,
		CacheBytes:      cacheBytes,
		LineBytes:       ConvLineBytes,
		Mem:             mcfg,
		CPU:             core.DefaultConfig().CPU,
		CacheIntrospect: true,
	}
	return runPoint(ctx, cfg, img)
}

// RunTIB simulates a Target Instruction Buffer point on the benchmark.
func RunTIB(ctx context.Context, entries, lineBytes int, mcfg mem.Config) (*stats.Sim, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Fetch:        core.FetchTIB,
		CacheBytes:   16, // unused by the TIB engine but validated
		LineBytes:    16,
		TIBEntries:   entries,
		TIBLineBytes: lineBytes,
		Mem:          mcfg,
		CPU:          core.DefaultConfig().CPU,
	}
	return runPoint(ctx, cfg, img)
}

// GridVariants lists the machine variants a grid sweep can name: the
// conventional cache plus every Table II PIPE arrangement. The order is
// the figures' presentation order.
func GridVariants() []string {
	out := []string{"conv"}
	for _, v := range TableII {
		out = append(out, v.Name)
	}
	return out
}

// GridConfig assembles the full core configuration for one figure-style
// grid point: a named variant ("conv" or a Table II name) at one cache
// size under the paper's memory-system settings. valid is false when the
// cache is smaller than the variant's line size (no such machine — the
// figures leave those cells blank). The returned configuration is exactly
// what RunConv/RunPipe simulate, so its runcache key identifies the point
// across processes (job checkpoints rely on that).
func GridConfig(variant string, cacheBytes, accessTime, busBytes int, pipelined, truePrefetch bool) (cfg core.Config, valid bool, err error) {
	mcfg := memConfig(accessTime, busBytes, pipelined)
	if variant == "conv" {
		cfg = core.Config{
			Fetch:      core.FetchConventional,
			CacheBytes: cacheBytes,
			LineBytes:  ConvLineBytes,
			Mem:        mcfg,
			CPU:        core.DefaultConfig().CPU,
		}
		return cfg, cacheBytes >= ConvLineBytes, nil
	}
	for _, v := range TableII {
		if v.Name != variant {
			continue
		}
		cfg = core.Config{
			Fetch:        core.FetchPIPE,
			CacheBytes:   cacheBytes,
			LineBytes:    v.Line,
			IQBytes:      v.IQ,
			IQBBytes:     v.IQB,
			TruePrefetch: truePrefetch,
			Mem:          mcfg,
			CPU:          core.DefaultConfig().CPU,
		}
		return cfg, cacheBytes >= v.Line, nil
	}
	return cfg, false, fmt.Errorf("sweep: unknown grid variant %q (want conv or a Table II name)", variant)
}

// figure runs one cache-size sweep: the conventional cache plus the four
// Table II PIPE configurations.
func figure(ctx context.Context, id, title string, accessTime, busWidth int, pipelined bool) (*Result, error) {
	mcfg := memConfig(accessTime, busWidth, pipelined)
	res := &Result{
		ID:    id,
		Title: title,
		Description: fmt.Sprintf("total cycles for the 150,575-instruction Livermore benchmark; "+
			"memory access time %d, input bus %d bytes, pipelined=%v, instruction priority, true prefetch",
			accessTime, busWidth, pipelined),
		XLabel: "cache size (bytes)",
	}
	conv := Series{Label: "conv"}
	for _, size := range CacheSizes {
		if size < ConvLineBytes {
			conv.Points = append(conv.Points, Point{CacheBytes: size})
			continue
		}
		st, err := runConvIntro(ctx, size, mcfg)
		if err != nil {
			return nil, err
		}
		conv.Points = append(conv.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
	}
	res.Series = append(res.Series, conv)
	for _, v := range TableII {
		s := Series{Label: v.Name}
		for _, size := range CacheSizes {
			if size < v.Line {
				s.Points = append(s.Points, Point{CacheBytes: size})
				continue
			}
			st, err := runPipeIntro(ctx, v, size, mcfg, true)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context) (*Result, error)
}

// Experiments returns every experiment, keyed by figure/table identifier.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: inner loop sizes", Run: runTable1},
		{ID: "table2", Title: "Table II: simulated IQ and IQB configurations", Run: runTable2},
		{ID: "fig4a", Title: "Figure 4a: T=1, non-pipelined, bus 4B", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig4a", "Figure 4a", 1, 4, false)
		}},
		{ID: "fig4b", Title: "Figure 4b: T=1, non-pipelined, bus 8B", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig4b", "Figure 4b", 1, 8, false)
		}},
		{ID: "fig5a", Title: "Figure 5a: T=6, non-pipelined, bus 4B", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig5a", "Figure 5a", 6, 4, false)
		}},
		{ID: "fig5b", Title: "Figure 5b: T=6, non-pipelined, bus 8B", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig5b", "Figure 5b", 6, 8, false)
		}},
		{ID: "fig6a", Title: "Figure 6a: T=6, bus 8B, non-pipelined (= Figure 5b)", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig6a", "Figure 6a", 6, 8, false)
		}},
		{ID: "fig6b", Title: "Figure 6b: T=6, bus 8B, pipelined", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "fig6b", "Figure 6b", 6, 8, true)
		}},
		{ID: "access2", Title: "Claim: T=2 behaves like T=6 (bus 4B)", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "access2", "Access time 2, bus 4B", 2, 4, false)
		}},
		{ID: "access3", Title: "Claim: T=3 behaves like T=6 (bus 4B)", Run: func(ctx context.Context) (*Result, error) {
			return figure(ctx, "access3", "Access time 3, bus 4B", 3, 4, false)
		}},
		{ID: "format", Title: "Extension: native 16/32-bit instruction format code density", Run: runFormat},
		{ID: "formatsim", Title: "Parameter 1: native 16/32-bit format, simulated timing", Run: runFormatSim},
		{ID: "noprefetch", Title: "Ablation: original-chip fetch guarantee (no true prefetch)", Run: runNoPrefetch},
		{ID: "priority", Title: "Ablation: instruction vs data priority at the memory interface", Run: runPriority},
		{ID: "tib", Title: "Extension: Target Instruction Buffer front end", Run: runTIBExp},
		{ID: "dcache", Title: "Extension: spending future density on an on-chip data cache", Run: runDCache},
		{ID: "knee", Title: "Analysis: the knee — cycles vs inner-loop size at a fixed cache", Run: runKnee},
		{ID: "perloop", Title: "Analysis: cycles spent in each Livermore loop", Run: runPerLoop},
		{ID: "iqsize", Title: "Parameters 7-8: IQ and IQB size sensitivity at a fixed line size", Run: runIQSize},
		{ID: "slots", Title: "Analysis: delay-slot count vs cycles (the PBR argument)", Run: runSlots},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(ctx context.Context) (*Result, error) {
	res := &Result{ID: "table1", Title: "Table I", XLabel: "loop number",
		Description: "inner loop sizes in bytes (generated workload vs the paper)"}
	s := Series{Label: "bytes"}
	for _, info := range kernels.TableI() {
		s.Points = append(s.Points, Point{CacheBytes: info.Index, Cycles: uint64(info.InnerBytes), Valid: true})
	}
	res.Series = []Series{s}
	return res, nil
}

func runTable2(ctx context.Context) (*Result, error) {
	res := &Result{ID: "table2", Title: "Table II", XLabel: "configuration",
		Description: "line / IQ / IQB sizes in bytes"}
	for _, v := range TableII {
		res.Series = append(res.Series, Series{Label: v.Name, Points: []Point{
			{CacheBytes: v.Line, Cycles: uint64(v.IQ), Valid: true},
			{CacheBytes: v.IQB, Cycles: uint64(v.IQB), Valid: true},
		}})
	}
	return res, nil
}

// runFormat is the paper's simulation parameter (1): the fixed 32-bit
// instruction format (used for all presented results) versus the PIPE
// chip's native 16/32-bit two-parcel format. The effect of the denser
// format is static: each inner loop occupies fewer bytes, so a given cache
// holds more of it. The experiment reports Table I in both encodings.
func runFormat(ctx context.Context) (*Result, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "format", Title: "Instruction-format code density",
		Description: "inner loop sizes: fixed 32-bit format vs the native 16/32-bit parcel format",
		XLabel:      "loop number"}
	fixed := Series{Label: "fixed-32 (B)"}
	native := Series{Label: "native (B)"}
	for _, info := range kernels.TableI() {
		words, err := kernels.LoopBody(img, info.Index)
		if err != nil {
			return nil, err
		}
		nb, err := isa.NativeBytes(words)
		if err != nil {
			return nil, err
		}
		fixed.Points = append(fixed.Points, Point{CacheBytes: info.Index, Cycles: uint64(info.InnerBytes), Valid: true})
		native.Points = append(native.Points, Point{CacheBytes: info.Index, Cycles: uint64(nb), Valid: true})
	}
	res.Series = []Series{fixed, native}
	return res, nil
}

// runFormatSim simulates the paper's parameter (1) dynamically: the same
// benchmark in the fixed 32-bit format versus the chip's native 16/32-bit
// parcel format, for the PIPE 16-16 machine and the conventional cache.
// The denser encoding acts like a larger effective cache.
func runFormatSim(ctx context.Context) (*Result, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "formatsim", Title: "Instruction format, simulated (T=6, bus 8B)",
		Description: "total cycles, fixed 32-bit vs native 16/32-bit encoding of the same benchmark",
		XLabel:      "cache size (bytes)"}
	for _, v := range []struct {
		label  string
		fetch  core.FetchStrategy
		line   int
		native bool
	}{
		{"pipe fixed", core.FetchPIPE, 16, false},
		{"pipe native", core.FetchPIPE, 16, true},
		{"conv fixed", core.FetchConventional, ConvLineBytes, false},
		{"conv native", core.FetchConventional, ConvLineBytes, true},
	} {
		s := Series{Label: v.label}
		for _, size := range CacheSizes {
			if size < v.line {
				s.Points = append(s.Points, Point{CacheBytes: size})
				continue
			}
			cfg := core.Config{
				Fetch:        v.fetch,
				CacheBytes:   size,
				LineBytes:    v.line,
				IQBytes:      16,
				IQBBytes:     16,
				TruePrefetch: true,
				NativeFormat: v.native,
				Mem:          memConfig(6, 8, false),
				CPU:          core.DefaultConfig().CPU,
			}
			st, err := runPoint(ctx, cfg, img)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

func runNoPrefetch(ctx context.Context) (*Result, error) {
	res := &Result{ID: "noprefetch", Title: "True prefetch ablation",
		Description: "PIPE 16-16; the original chip policy only fetches lines guaranteed to execute",
		XLabel:      "cache size (bytes)"}
	v := TableII[1] // 16-16
	for _, mode := range []struct {
		label string
		tp    bool
		T     int
	}{
		{"T=1 true-prefetch", true, 1},
		{"T=1 guaranteed-only", false, 1},
		{"T=6 true-prefetch", true, 6},
		{"T=6 guaranteed-only", false, 6},
	} {
		s := Series{Label: mode.label}
		for _, size := range CacheSizes {
			if size < v.Line {
				s.Points = append(s.Points, Point{CacheBytes: size})
				continue
			}
			st, err := RunPipe(ctx, v, size, memConfig(mode.T, 8, false), mode.tp)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

func runPriority(ctx context.Context) (*Result, error) {
	res := &Result{ID: "priority", Title: "Memory-interface priority ablation",
		Description: "PIPE 16-16 and conventional, T=6, bus 8B, non-pipelined",
		XLabel:      "cache size (bytes)"}
	for _, pr := range []struct {
		label string
		instr bool
	}{{"pipe instr-priority", true}, {"pipe data-priority", false}} {
		s := Series{Label: pr.label}
		mcfg := memConfig(6, 8, false)
		mcfg.InstrPriority = pr.instr
		for _, size := range CacheSizes {
			if size < 16 {
				s.Points = append(s.Points, Point{CacheBytes: size})
				continue
			}
			st, err := RunPipe(ctx, TableII[1], size, mcfg, true)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	for _, pr := range []struct {
		label string
		instr bool
	}{{"conv instr-priority", true}, {"conv data-priority", false}} {
		s := Series{Label: pr.label}
		mcfg := memConfig(6, 8, false)
		mcfg.InstrPriority = pr.instr
		for _, size := range CacheSizes {
			if size < ConvLineBytes {
				s.Points = append(s.Points, Point{CacheBytes: size})
				continue
			}
			st, err := RunConv(ctx, size, mcfg)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

func runTIBExp(ctx context.Context) (*Result, error) {
	res := &Result{ID: "tib", Title: "TIB front end",
		Description: "cycles vs TIB target-line size (4 entries) at T=1 and T=6, bus 8B; " +
			"the loop workload has one live branch target at a time, so capacity beyond " +
			"one entry does not matter — line size (how many instructions each target " +
			"supplies during redirect) does",
		XLabel: "TIB line bytes"}
	for _, T := range []int{1, 6} {
		for _, entries := range []int{1, 4} {
			s := Series{Label: fmt.Sprintf("T=%d e=%d", T, entries)}
			for _, lineBytes := range []int{8, 16, 32, 64} {
				st, err := RunTIB(ctx, entries, lineBytes, memConfig(T, 8, false))
				if err != nil {
					return nil, err
				}
				s.Points = append(s.Points, Point{CacheBytes: lineBytes, Cycles: st.Cycles, Valid: true, Stats: st})
			}
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// runDCache explores the paper's concluding suggestion: "the higher
// densities achieved in the mature technology can be used to expand the
// on-chip cache to include data". With the I-cache held at the PIPE 16-16
// arrangement, transistors go into a small data cache instead of a larger
// instruction cache; the sweep compares both uses of the same extra bytes.
func runDCache(ctx context.Context) (*Result, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "dcache", Title: "On-chip data cache (paper's future-density suggestion)",
		Description: "PIPE 16-16, T=6, bus 8B, non-pipelined; equal total on-chip cache bytes " +
			"spent either all on instructions or split between an instruction and a data cache",
		XLabel: "total on-chip cache bytes"}
	mcfg := memConfig(6, 8, false)
	run := func(icache, dcache int) (uint64, error) {
		cfg := core.Config{
			Fetch:        core.FetchPIPE,
			CacheBytes:   icache,
			LineBytes:    16,
			IQBytes:      16,
			IQBBytes:     16,
			TruePrefetch: true,
			Mem:          mcfg,
			CPU:          core.DefaultConfig().CPU,
		}
		cfg.CPU.DCacheBytes = dcache
		st, err := runPoint(ctx, cfg, img)
		if err != nil {
			return 0, err
		}
		return st.Cycles, nil
	}
	iSeries := Series{Label: "all i-cache"}
	dSeries := Series{Label: "i+d split"}
	for _, total := range []int{128, 256, 512, 1024} {
		ic, err := run(total, 0)
		if err != nil {
			return nil, err
		}
		iSeries.Points = append(iSeries.Points, Point{CacheBytes: total, Cycles: ic, Valid: true})
		dc, err := run(total/2, total/2)
		if err != nil {
			return nil, err
		}
		dSeries.Points = append(dSeries.Points, Point{CacheBytes: total, Cycles: dc, Valid: true})
	}
	res.Series = []Series{iSeries, dSeries}
	return res, nil
}

// runKnee isolates the paper's explanation for the knee of the cache-size
// curves ("the knee of the curve corresponds to the size of most of the
// inner loops"): a single synthetic loop of varying byte size runs on a
// fixed 128-byte cache. Cycles per iteration jump when the loop stops
// fitting.
func runKnee(ctx context.Context) (*Result, error) {
	res := &Result{ID: "knee", Title: "Cycles per iteration vs inner-loop size (128B cache)",
		Description: "synthetic loop, 500 iterations, T=6, bus 8B, non-pipelined; " +
			"the cost step sits at the cache size, explaining the knee of Figures 4-6",
		XLabel: "loop size (bytes)"}
	mcfg := memConfig(6, 8, false)
	for _, strat := range []struct {
		label string
		fetch core.FetchStrategy
	}{{"pipe 16-16", core.FetchPIPE}, {"conv", core.FetchConventional}} {
		s := Series{Label: strat.label}
		for _, bodyInstr := range []int{12, 16, 24, 32, 40, 48, 64, 96, 128} {
			img, err := synth.Loop(synth.LoopSpec{
				BodyInstr: bodyInstr, Iterations: 500, Loads: 2, Stores: 1, DelaySlots: 4,
			})
			if err != nil {
				return nil, err
			}
			cfg := core.Config{
				Fetch:        strat.fetch,
				CacheBytes:   128,
				LineBytes:    16,
				IQBytes:      16,
				IQBBytes:     16,
				TruePrefetch: true,
				Mem:          mcfg,
				CPU:          core.DefaultConfig().CPU,
			}
			st, err := runPoint(ctx, cfg, img)
			if err != nil {
				return nil, err
			}
			perIter := st.Cycles / 500
			s.Points = append(s.Points, Point{CacheBytes: bodyInstr * 4, Cycles: perIter, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runPerLoop breaks the benchmark's cycle count down per Livermore loop
// (the paper reports only the total; the breakdown shows which loop shapes
// each strategy handles well). Cache 128B, T=6, bus 8B — the paper's most
// contested regime.
func runPerLoop(ctx context.Context) (*Result, error) {
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	// Loop-start PCs, in program order; the program ends at HALT.
	var starts []uint32
	for i := 1; i <= 14; i++ {
		pc, ok := img.Lookup(fmt.Sprintf("ll%d.code", i))
		if !ok {
			return nil, fmt.Errorf("sweep: missing ll%d.code symbol", i)
		}
		starts = append(starts, pc)
	}
	res := &Result{ID: "perloop", Title: "Cycles per Livermore loop (128B cache, T=6, bus 8B)",
		Description: "cycle count attributed to each loop, per fetch strategy",
		XLabel:      "loop number"}
	for _, strat := range []struct {
		label string
		fetch core.FetchStrategy
		line  int
	}{{"pipe 16-16", core.FetchPIPE, 16}, {"conv", core.FetchConventional, ConvLineBytes}} {
		cfg := core.Config{
			Fetch:        strat.fetch,
			CacheBytes:   128,
			LineBytes:    strat.line,
			IQBytes:      16,
			IQBBytes:     16,
			TruePrefetch: true,
			Mem:          memConfig(6, 8, false),
			CPU:          core.DefaultConfig().CPU,
		}
		sim, err := core.New(cfg, img)
		if err != nil {
			return nil, err
		}
		entered := make([]uint64, len(starts))
		sim.SetProbe(obs.Only(obs.KindsOf(obs.KindRetire), obs.ProbeFunc(func(e obs.Event) {
			for i, pc := range starts {
				if e.Addr == pc && entered[i] == 0 {
					entered[i] = e.Cycle
				}
			}
		})))
		st, err := sim.Run()
		if err != nil {
			return nil, err
		}
		s := Series{Label: strat.label}
		for i := range starts {
			end := st.Cycles
			if i+1 < len(starts) {
				end = entered[i+1]
			}
			s.Points = append(s.Points, Point{CacheBytes: i + 1, Cycles: end - entered[i], Valid: true})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runSlots tests the prepare-to-branch argument of paper §3.1.3: the
// compiler can usually fill about four delay slots, and enough slots make
// branch-resolution latency — and, with a fast memory, even target-fetch
// latency — disappear. A fixed synthetic loop runs with 0..7 delay slots.
func runSlots(ctx context.Context) (*Result, error) {
	res := &Result{ID: "slots", Title: "Cycles vs PBR delay-slot count",
		Description: "synthetic 24-instruction loop, 2000 iterations, PIPE 16-16, 128B cache; " +
			"delay slots hide the branch resolution latency",
		XLabel: "delay slots"}
	for _, T := range []int{1, 6} {
		s := Series{Label: fmt.Sprintf("T=%d", T)}
		for slots := 0; slots <= isa.MaxDelaySlots; slots++ {
			img, err := synth.Loop(synth.LoopSpec{
				BodyInstr: 24, Iterations: 2000, Loads: 2, Stores: 1, DelaySlots: slots,
			})
			if err != nil {
				return nil, err
			}
			cfg := core.Config{
				Fetch:           core.FetchPIPE,
				CacheBytes:      128,
				LineBytes:       16,
				IQBytes:         16,
				IQBBytes:        16,
				TruePrefetch:    true,
				CacheIntrospect: true,
				Mem:             memConfig(T, 8, false),
				CPU:             core.DefaultConfig().CPU,
			}
			st, err := runPoint(ctx, cfg, img)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: slots, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// runIQSize sweeps the paper's last two simulation parameters — the IQ and
// IQB sizes — beyond the four Table II points, at a fixed 16-byte line.
func runIQSize(ctx context.Context) (*Result, error) {
	res := &Result{ID: "iqsize", Title: "IQ/IQB size sensitivity (line 16B, T=6, bus 8B)",
		Description: "total cycles vs cache size for IQ/IQB combinations at a fixed line size",
		XLabel:      "cache size (bytes)"}
	img, err := BenchmarkImage()
	if err != nil {
		return nil, err
	}
	combos := []struct {
		v    PipeVariant
		deep bool
	}{
		{PipeVariant{Name: "iq8/iqb16", Line: 16, IQ: 8, IQB: 16}, false},
		{PipeVariant{Name: "iq16/iqb16", Line: 16, IQ: 16, IQB: 16}, false},
		{PipeVariant{Name: "iq16/iqb32", Line: 16, IQ: 16, IQB: 32}, false},
		{PipeVariant{Name: "iq32/iqb32", Line: 16, IQ: 32, IQB: 32}, false},
		{PipeVariant{Name: "iqb32 deep", Line: 16, IQ: 16, IQB: 32}, true},
		{PipeVariant{Name: "iqb64 deep", Line: 16, IQ: 16, IQB: 64}, true},
	}
	mcfg := memConfig(6, 8, false)
	for _, c := range combos {
		s := Series{Label: c.v.Name}
		for _, size := range []int{32, 64, 128, 256} {
			cfg := core.Config{
				Fetch:        core.FetchPIPE,
				CacheBytes:   size,
				LineBytes:    c.v.Line,
				IQBytes:      c.v.IQ,
				IQBBytes:     c.v.IQB,
				TruePrefetch: true,
				DeepPrefetch: c.deep,
				Mem:          mcfg,
				CPU:          core.DefaultConfig().CPU,
			}
			st, err := runPoint(ctx, cfg, img)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{CacheBytes: size, Cycles: st.Cycles, Valid: true, Stats: st})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// CSV renders the result as comma-separated values with a header row, for
// plotting tools.
func (r *Result) CSV() string {
	var sb strings.Builder
	sb.WriteString(csvEscape(r.XLabel))
	for _, s := range r.Series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s.Label))
	}
	sb.WriteByte('\n')
	for _, x := range r.axis() {
		fmt.Fprintf(&sb, "%d", x)
		for _, s := range r.Series {
			sb.WriteByte(',')
			for _, p := range s.Points {
				if p.CacheBytes == x && p.Valid {
					fmt.Fprintf(&sb, "%d", p.Cycles)
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// axis returns the sorted x values appearing in any series.
func (r *Result) axis() []int {
	xs := map[int]bool{}
	for _, s := range r.Series {
		for _, p := range s.Points {
			xs[p.CacheBytes] = true
		}
	}
	var axis []int
	for x := range xs {
		axis = append(axis, x)
	}
	sort.Ints(axis)
	return axis
}

// Format renders the result as an aligned text table, one row per x value,
// one column per series.
func (r *Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.Title)
	if r.Description != "" {
		fmt.Fprintf(&sb, "  %s\n", r.Description)
	}
	axis := r.axis()
	fmt.Fprintf(&sb, "%-22s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteByte('\n')
	for _, x := range axis {
		fmt.Fprintf(&sb, "%-22d", x)
		for _, s := range r.Series {
			cell := ""
			for _, p := range s.Points {
				if p.CacheBytes == x {
					if p.Valid {
						cell = fmt.Sprintf("%d", p.Cycles)
					} else {
						cell = "-"
					}
				}
			}
			fmt.Fprintf(&sb, "%14s", cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
