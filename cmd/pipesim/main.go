// Command pipesim runs one simulation of the PIPE processor and prints the
// measurements.
//
// With no -asm flag it runs the paper's Livermore-loop benchmark:
//
//	pipesim -strategy pipe -cache 128 -line 16 -iq 16 -iqb 16 -access 6 -bus 8
//	pipesim -strategy conventional -cache 512 -access 1 -bus 4
//	pipesim -asm prog.s -strategy pipe
//
// Observability:
//
//	pipesim -json                  # machine-readable result (full Result struct)
//	pipesim -perloop               # per-Livermore-loop cycle/miss/stall table
//	pipesim -timeline trace.json   # Chrome-trace timeline (chrome://tracing, Perfetto)
//	pipesim -flightrec-dump fr.json  # flight-recorder tail as Chrome-trace JSON,
//	                                 # written even when the run fails (post-mortem);
//	                                 # after a successful run it re-simulates the run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"pipesim"
	"pipesim/internal/compare"
	"pipesim/internal/runstore"
	"pipesim/internal/version"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		diffMain(os.Args[2:])
		return
	}
	var (
		strategy  = flag.String("strategy", "pipe", "fetch strategy: pipe, conventional or tib")
		cache     = flag.Int("cache", 128, "instruction cache size in bytes")
		line      = flag.Int("line", 16, "cache line size in bytes")
		iq        = flag.Int("iq", 16, "PIPE instruction queue size in bytes")
		iqb       = flag.Int("iqb", 16, "PIPE instruction queue buffer size in bytes")
		noTP      = flag.Bool("no-true-prefetch", false, "use the original chip's guaranteed-execution fetch policy")
		deep      = flag.Bool("deep-prefetch", false, "refill the IQB whenever a line of space is free (beyond-paper extension)")
		native    = flag.Bool("native", false, "run in the native 16/32-bit parcel instruction format (paper parameter 1)")
		dcache    = flag.Int("dcache", 0, "on-chip data cache size in bytes (0 = none, the paper's machine)")
		tibN      = flag.Int("tib-entries", 4, "TIB entry count")
		access    = flag.Int("access", 1, "memory access time in cycles")
		bus       = flag.Int("bus", 4, "input bus width in bytes")
		pipelined = flag.Bool("pipelined", false, "pipelined external memory")
		dataPrio  = flag.Bool("data-priority", false, "give data requests priority over instruction fetches")
		asmPath   = flag.String("asm", "", "run a PIPE assembly file instead of the Livermore benchmark")
		kernel    = flag.Int("kernel", 0, "run a single Livermore loop (1..14) instead of the full benchmark")
		verbose   = flag.Bool("v", false, "print the full measurement breakdown")
		traceN    = flag.Uint64("trace", 0, "print the first N retired instructions (cycle, PC, disassembly)")
		jsonOut   = flag.Bool("json", false, "print the result as JSON instead of text")
		perloop   = flag.Bool("perloop", false, "collect and print per-Livermore-loop statistics (benchmark workloads only)")
		timeline  = flag.String("timeline", "", "write a Chrome-trace timeline of the run to this file")
		frDump    = flag.String("flightrec-dump", "", "write the flight recorder's recent-event tail to this file as Chrome-trace JSON (written on failure too; after a successful run, the run is simulated again to rebuild it)")
		frDepth   = flag.Int("flightrec-depth", 0, "flight recorder depth in events (0 = default 256, negative disables)")
		noSkip    = flag.Bool("no-skip-ahead", false, "step every cycle instead of event-driven skip-ahead (results are bit-identical; for A/B timing)")
		cstats    = flag.Bool("cachestats", false, "classify every cache miss (compulsory/capacity/conflict) and print the per-set heatmap and hot miss PCs")
		ctop      = flag.Int("cache-top", 0, "hot miss-PC table size with -cachestats (0 = default 10, negative keeps every PC)")
		storeDir  = flag.String("store-dir", "", "archive the completed run into this run-store directory")
		diffBase  = flag.String("diff-against", "", "after the run, print a compare report against this baseline (run key with -store-dir, or a result/record JSON file) instead of the normal output")
		showVer   = flag.Bool("version", false, "print module, version, VCS revision and dirty bit, then exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(version.Get())
		return
	}

	cfg := pipesim.DefaultConfig()
	cfg.Strategy = pipesim.Strategy(*strategy)
	cfg.CacheBytes = *cache
	cfg.LineBytes = *line
	cfg.IQBytes = *iq
	cfg.IQBBytes = *iqb
	cfg.TruePrefetch = !*noTP
	cfg.DeepPrefetch = *deep
	cfg.NativeFormat = *native
	cfg.DCacheBytes = *dcache
	cfg.TIBEntries = *tibN
	cfg.MemAccessTime = *access
	cfg.BusWidthBytes = *bus
	cfg.PipelinedMemory = *pipelined
	cfg.InstrPriority = !*dataPrio
	cfg.FlightRecorderDepth = *frDepth
	cfg.NoSkipAhead = *noSkip
	cfg.CacheStats = *cstats
	cfg.CacheTopPCs = *ctop

	var (
		prog *pipesim.Program
		err  error
	)
	switch {
	case *asmPath != "":
		src, rerr := os.ReadFile(*asmPath)
		if rerr != nil {
			fail(rerr)
		}
		prog, err = pipesim.Assemble(string(src))
	case *kernel != 0:
		prog, err = pipesim.LivermoreKernel(*kernel)
	default:
		prog, _, err = pipesim.LivermoreProgram()
	}
	if err != nil {
		fail(err)
	}

	sim, err := pipesim.NewSimulation(cfg, prog)
	if err != nil {
		fail(err)
	}
	if *traceN > 0 {
		sim.TraceTo(os.Stdout, *traceN)
	}
	if *perloop {
		if err := sim.CollectPerLoop(); err != nil {
			fail(err)
		}
	}
	var tl *pipesim.Timeline
	if *timeline != "" {
		tl = pipesim.NewTimeline()
		sim.Observe(tl)
	}
	res, err := sim.Run()
	// The flight-recorder dump is a post-mortem tool: write it before
	// reporting any run error, so a deadlocked or machine-checked run still
	// leaves its last moments on disk.
	if *frDump != "" {
		if derr := dumpFlight(*frDump, sim.RecentEvents()); derr != nil {
			fail(derr)
		}
	}
	if err != nil {
		fail(err)
	}
	if tl != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fail(err)
		}
		if _, err := tl.WriteTo(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "pipesim: wrote %d timeline events to %s\n", tl.Events(), *timeline)
	}
	if *storeDir != "" {
		store, serr := runstore.Open(*storeDir, runstore.Options{})
		if serr != nil {
			fail(serr)
		}
		if serr := sim.Archive(store); serr != nil {
			fail(serr)
		}
		fmt.Fprintf(os.Stderr, "pipesim: archived run %s to %s\n", res.Key[:12], *storeDir)
	}
	if *diffBase != "" {
		base := loadSide(*diffBase, *storeDir)
		if base.run == nil {
			fail(fmt.Errorf("-diff-against %s: baseline is not a single run", *diffBase))
		}
		rep := compare.Compare(*base.run, resultRun("this-run", res))
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fail(err)
			}
		} else {
			renderReport(rep)
		}
		return
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("cycles        %d\n", res.Cycles)
	fmt.Printf("instructions  %d\n", res.Instructions)
	fmt.Printf("CPI           %.3f\n", res.CPI())
	a := res.Attribution
	fmt.Printf("attribution   issue=%d fetch-starved=%d ldq-wait=%d queue-full=%d drain=%d other=%d\n",
		a.Issue, a.FetchStarved, a.LDQWait, a.QueueFull, a.Drain, a.Other)
	if res.PerLoop != nil {
		fmt.Printf("\n%-5s %-21s %10s %8s %12s %8s %8s %10s\n",
			"loop", "name", "cycles", "cyc%", "instructions", "misses", "flushes", "bus words")
		for _, l := range res.PerLoop {
			name := l.Name
			if l.Loop == 0 {
				name = "(outside)"
			}
			fmt.Printf("%-5d %-21s %10d %7.1f%% %12d %8d %8d %10d\n",
				l.Loop, name, l.Cycles, 100*float64(l.Cycles)/float64(res.Cycles),
				l.Instructions, l.CacheMisses, l.BranchFlush, l.OffChipWords)
		}
		fmt.Println()
	}
	if res.CacheStats != nil {
		printCacheStats(res)
	}
	if *verbose {
		fmt.Printf("branches      %d (%d taken, %d flushes)\n", res.Branches, res.TakenBranches, res.BranchFlushes)
		fmt.Printf("loads/stores  %d / %d\n", res.Loads, res.Stores)
		fmt.Printf("fpu ops       %d\n", res.FPUOps)
		fmt.Printf("stalls        ldq-empty=%d queue-full=%d fetch-empty=%d\n",
			res.StallLDQEmpty, res.StallQueueFull, res.StallFetchEmpty)
		fmt.Printf("icache        hits=%d misses=%d demand=%d prefetch=%d blocked=%d\n",
			res.CacheHits, res.CacheMisses, res.DemandFetches, res.Prefetches, res.PrefetchBlocks)
		var kinds []string
		for k := range res.MemAccepted {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Printf("bus traffic   ")
		for _, k := range kinds {
			fmt.Printf("%s=%d ", k, res.MemAccepted[k])
		}
		fmt.Printf("(words delivered %d)\n", res.WordsDelivered)
	}
}

// printCacheStats renders the introspection report: the 3C class breakdown,
// eviction counts, the per-set heatmap and the hot miss-PC table.
func printCacheStats(res *pipesim.Result) {
	cs := res.CacheStats
	total := cs.Misses()
	pct := func(n uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	fmt.Printf("\nmiss classes  compulsory=%d (%.1f%%) capacity=%d (%.1f%%) conflict=%d (%.1f%%)\n",
		cs.Compulsory, pct(cs.Compulsory), cs.Capacity, pct(cs.Capacity), cs.Conflict, pct(cs.Conflict))
	deadPct := 0.0
	if cs.Evictions > 0 {
		deadPct = 100 * float64(cs.DeadEvictions) / float64(cs.Evictions)
	}
	fmt.Printf("evictions     %d (%d dead on eviction, %.1f%%)\n", cs.Evictions, cs.DeadEvictions, deadPct)
	var maxMiss uint64
	for _, s := range cs.Sets {
		if s.Misses > maxMiss {
			maxMiss = s.Misses
		}
	}
	fmt.Printf("\n%-4s %10s %8s %10s %6s  %s\n", "set", "accesses", "misses", "evictions", "dead", "miss heat")
	for i, s := range cs.Sets {
		bar := ""
		if maxMiss > 0 {
			bar = barOf(int(20 * s.Misses / maxMiss))
		}
		fmt.Printf("%-4d %10d %8d %10d %6d  %s\n", i, s.Accesses, s.Misses, s.Evictions, s.DeadEvictions, bar)
	}
	if len(cs.HotPCs) > 0 {
		fmt.Printf("\n%-10s %8s  %s\n", "miss pc", "misses", "loop")
		for _, h := range cs.HotPCs {
			loc := "-"
			if h.Loop != 0 {
				loc = fmt.Sprintf("loop %d (%s)", h.Loop, h.Label)
			}
			fmt.Printf("%#-10x %8d  %s\n", h.PC, h.Misses, loc)
		}
	}
	fmt.Println()
}

func barOf(n int) string {
	if n < 1 {
		n = 1
	}
	b := make([]rune, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}

// dumpFlight writes a flight-recorder snapshot as Chrome-trace JSON.
func dumpFlight(path string, events []pipesim.ProbeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pipesim.WriteFlightTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pipesim: wrote %d flight-recorder events to %s\n", len(events), path)
	return nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pipesim: %v\n", err)
	os.Exit(1)
}
