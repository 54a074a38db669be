// Command experiments regenerates every table and figure from the paper's
// evaluation section (plus the ablations and extensions documented in
// DESIGN.md) and prints them as text tables.
//
// Experiments run on a fault-isolated parallel worker pool: a failing,
// panicking or timed-out experiment is reported in the final pass/fail
// summary without aborting the rest of the sweep, and the process exits
// non-zero only after every experiment has had its chance.
//
// Result tables go to stdout; diagnostics are structured log/slog records
// on stderr (text by default, JSON with -log json) so long sweeps can be
// tailed and scraped like any other service log.
//
// Usage:
//
//	experiments                    # run everything, one worker per CPU
//	experiments -list              # list experiment IDs
//	experiments -exp fig5b         # run one experiment
//	experiments -parallel 2        # limit the worker pool
//	experiments -timeout 2m        # per-experiment deadline
//	experiments -progress          # log each experiment as it finishes
//	experiments -metrics out.json  # write machine-readable sweep metrics
//	experiments -store-dir runs/   # archive every simulation; a rerun re-simulates only what is missing
//	experiments -log json          # JSON log records instead of text
//	experiments -runcache=false    # disable simulation-result memoization
//	experiments -version           # print build/VCS info and exit
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/sweep"
	"pipesim/internal/version"
)

func main() {
	var (
		exp      = flag.String("exp", "", "run a single experiment by ID (default: all)")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		csv      = flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
		plot     = flag.Bool("plot", false, "draw ASCII charts instead of aligned tables")
		parallel = flag.Int("parallel", 0, "number of concurrent experiments (0 = one per CPU)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "per-experiment deadline (0 = none)")
		progress = flag.Bool("progress", false, "log each experiment's status and wall time as it finishes")
		metrics  = flag.String("metrics", "", "write machine-readable sweep metrics (JSON) to this file")
		storeDir = flag.String("store-dir", "", "persistent run-archive directory: each simulation is archived as it finishes, and a rerun serves archived machines from disk (empty = disabled)")
		logMode  = flag.String("log", "text", "log handler: text or json")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		useCache = flag.Bool("runcache", true, "memoize simulation results by (config, program) content hash")
		showVer  = flag.Bool("version", false, "print module, version, VCS revision and dirty bit, then exit")
	)
	flag.Parse()
	if *storeDir != "" && !*useCache {
		// A disabled run cache bypasses its store tier too, so this pair
		// would archive nothing.
		fmt.Fprintln(os.Stderr, "experiments: -store-dir needs the run cache; drop -runcache=false")
		flag.Usage()
		os.Exit(2)
	}
	runcache.Default.SetEnabled(*useCache)

	if *showVer {
		fmt.Println(version.Get())
		return
	}

	log, err := newLogger(os.Stderr, *logMode, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range sweep.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}
	run := sweep.Experiments()
	if *exp != "" {
		e, ok := sweep.Lookup(*exp)
		if !ok {
			log.Error("unknown experiment", "id", *exp, "hint", "try -list")
			os.Exit(1)
		}
		run = []sweep.Experiment{e}
	}

	// -store-dir: the run store becomes the run cache's disk tier, so
	// every simulation is archived the moment it finishes and a rerun —
	// after an interruption or a clean exit alike — serves those machines
	// from disk. Runs that bypass the cache (perloop's traced machines)
	// always re-simulate.
	var store *runstore.Store
	if *storeDir != "" {
		if store, err = runstore.Open(*storeDir, runstore.Options{}); err != nil {
			log.Error("opening run store", "path", *storeDir, "err", err)
			os.Exit(1)
		}
		runcache.Default.SetStore(store)
	}

	v := version.Get()
	log.Info("sweep starting", "experiments", len(run), "parallel", *parallel,
		"timeout", *timeout, "revision", v.ShortRevision(), "go", v.GoVersion)

	opt := sweep.Options{Workers: *parallel, Timeout: *timeout}
	if *progress {
		opt.Progress = func(o sweep.Outcome, done, total int) {
			l := log.With("experiment", o.Experiment.ID, "done", done, "total", total,
				"elapsed", o.Elapsed.Round(time.Millisecond))
			if o.Err != nil {
				l.Error("experiment failed", "err", o.Err)
			} else {
				l.Info("experiment finished")
			}
		}
	}
	sum := sweep.RunAll(run, opt)
	if *useCache {
		rc := runcache.Default.Stats()
		sum.RunCache = &rc
	}
	if *metrics != "" {
		if err := writeMetrics(*metrics, sum); err != nil {
			log.Error("writing metrics", "path", *metrics, "err", err)
			os.Exit(1)
		}
		log.Info("wrote sweep metrics", "path", *metrics)
	}
	for _, o := range sum.Outcomes {
		if o.Err != nil {
			log.Error("experiment failed", "experiment", o.Experiment.ID, "err", o.Err)
			continue
		}
		switch {
		case *csv:
			fmt.Printf("# %s\n%s\n", o.Result.Title, o.Result.CSV())
		case *plot:
			fmt.Println(o.Result.Plot())
		default:
			fmt.Println(o.Result.Format())
		}
	}
	finished := []any{"passed", sum.Passed(), "total", len(sum.Outcomes),
		"elapsed", sum.Elapsed.Round(time.Millisecond)}
	if sum.RunCache != nil {
		finished = append(finished, "runcache_hits", sum.RunCache.Hits,
			"runcache_misses", sum.RunCache.Misses, "runcache_entries", sum.RunCache.Size)
	}
	if store != nil {
		sc := store.Counters()
		finished = append(finished, "store_hits", sc.Hits, "store_writes", sc.Writes)
		if sc.WriteErrors > 0 {
			// The store counts failed writes instead of failing the run.
			log.Warn("run store failed to archive some runs", "path", *storeDir,
				"write_errors", sc.WriteErrors)
		}
	}
	log.Info("sweep finished", finished...)
	if sum.Err() != nil {
		os.Exit(1)
	}
}

// newLogger builds the text or JSON slog handler selected on the command
// line (shared flag convention with cmd/pipesimd).
func newLogger(w *os.File, mode, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch mode {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log %q (want text or json)", mode)
	}
}

func writeMetrics(path string, sum *sweep.Summary) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sum.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
