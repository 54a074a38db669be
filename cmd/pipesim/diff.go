// The diff subcommand is the differential performance explainer's CLI:
//
//	pipesim diff -store-dir runs/ <key-a> <key-b>   # two archived runs
//	pipesim diff a.json b.json                      # result/record/sweep files
//	pipesim diff -fail-on-drift golden.json new.json  # CI drift gate
//
// Each operand is a 64-hex content-addressed run key (looked up in
// -store-dir) or a JSON file: an archived pipesim-runs/v1 record, a
// public `pipesim -json` Result, or a pipesim-sweep/v1 metrics document
// from `experiments -metrics`. Two sweep documents get the catalog
// point-by-point drift report; two runs get the pipesim-compare/v1
// explainer. A live run can diff itself against a baseline with
// `pipesim -diff-against <key-or-file>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"pipesim"
	"pipesim/internal/compare"
	"pipesim/internal/runcache"
	"pipesim/internal/runstore"
	"pipesim/internal/stats"
)

// diffSide is one resolved operand: exactly one of run/sweep is set.
type diffSide struct {
	run   *compare.Run
	sweep []byte // raw pipesim-sweep/v1 document
}

func diffMain(argv []string) {
	fs := flag.NewFlagSet("pipesim diff", flag.ExitOnError)
	storeDir := fs.String("store-dir", "", "run archive directory for key operands")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	outPath := fs.String("o", "", "also write the report JSON to this file")
	failOnDrift := fs.Bool("fail-on-drift", false, "exit 1 when the sides differ (CI gate)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pipesim diff [flags] <a> <b>\n\n"+
			"Each operand is a 64-hex run key (requires -store-dir), an archived\n"+
			"run record, a `pipesim -json` result file, or an `experiments\n"+
			"-metrics` sweep document. Flags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(argv)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}

	a := loadSide(fs.Arg(0), *storeDir)
	b := loadSide(fs.Arg(1), *storeDir)

	var (
		report  any
		dirty   bool
		summary string
	)
	switch {
	case a.sweep != nil && b.sweep != nil:
		r, err := compare.CompareSweepJSON(a.sweep, b.sweep)
		if err != nil {
			fail(err)
		}
		report, dirty, summary = r, !r.Clean(), r.Summary
		if !*jsonOut {
			renderCatalog(r)
		}
	case a.run != nil && b.run != nil:
		r := compare.Compare(*a.run, *b.run)
		report, dirty, summary = r, r.CycleDelta != 0, r.Summary
		if !*jsonOut {
			renderReport(r)
		}
	default:
		fail(fmt.Errorf("cannot diff a sweep document against a single run: %s vs %s", fs.Arg(0), fs.Arg(1)))
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fail(err)
		}
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if *failOnDrift && dirty {
		fmt.Fprintf(os.Stderr, "pipesim diff: drift detected: %s\n", summary)
		os.Exit(1)
	}
}

// loadSide resolves one operand to a comparison side.
func loadSide(arg, storeDir string) diffSide {
	if key, err := runcache.ParseKey(arg); err == nil {
		if storeDir == "" {
			fail(fmt.Errorf("operand %s.. is a run key; -store-dir is required to resolve it", arg[:12]))
		}
		store, err := runstore.Open(storeDir, runstore.Options{})
		if err != nil {
			fail(err)
		}
		rec, ok := store.Get(key)
		if !ok {
			fail(fmt.Errorf("run %s.. not found in %s", arg[:12], storeDir))
		}
		label := fmt.Sprintf("%s/%dB", rec.Config.Fetch, rec.Config.CacheBytes)
		run := compare.FromSim(label, rec.Key, &rec.Sim, rec.PerLoop)
		return diffSide{run: &run}
	}
	raw, err := os.ReadFile(arg)
	if err != nil {
		fail(err)
	}
	return sniffSide(filepath.Base(arg), raw)
}

// sniffSide classifies a JSON document by its schema field: an archived
// run record, a sweep metrics document, or (schema-less) a public Result.
func sniffSide(label string, raw []byte) diffSide {
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		fail(fmt.Errorf("%s: %w", label, err))
	}
	switch head.Schema {
	case runstore.Schema:
		var rec runstore.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
		}
		run := compare.FromSim(label, rec.Key, &rec.Sim, rec.PerLoop)
		return diffSide{run: &run}
	case "pipesim-sweep/v1":
		return diffSide{sweep: raw}
	case "":
		var res pipesim.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
		}
		if res.Cycles == 0 {
			fail(fmt.Errorf("%s: not a pipesim result, run record or sweep document", label))
		}
		run := resultRun(label, &res)
		return diffSide{run: &run}
	default:
		fail(fmt.Errorf("%s: unsupported schema %q", label, head.Schema))
		panic("unreachable")
	}
}

// resultRun adapts the public Result shape to a comparison side.
func resultRun(label string, res *pipesim.Result) compare.Run {
	run := compare.Run{
		Label:        label,
		Key:          res.Key,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		CacheHits:    res.CacheHits,
		CacheMisses:  res.CacheMisses,
		PerLoop:      res.PerLoop,
	}
	a := res.Attribution
	run.Buckets = [stats.NumCycleBuckets]uint64{
		stats.CycleIssue:        a.Issue,
		stats.CycleFetchStarved: a.FetchStarved,
		stats.CycleLDQWait:      a.LDQWait,
		stats.CycleQueueFull:    a.QueueFull,
		stats.CycleDrain:        a.Drain,
		stats.CycleOther:        a.Other,
	}
	if cs := res.CacheStats; cs != nil {
		run.Cache = &stats.CacheStats{Compulsory: cs.Compulsory, Capacity: cs.Capacity, Conflict: cs.Conflict}
	}
	return run
}

// renderReport prints the human explainer for a two-run comparison.
func renderReport(r *compare.Report) {
	fmt.Printf("%s\n\n", r.Summary)
	fmt.Printf("%-14s %12s %12s %12s\n", "", nameOf(r.A, "a"), nameOf(r.B, "b"), "delta")
	fmt.Printf("%-14s %12d %12d %+12d\n", "cycles", r.A.Cycles, r.B.Cycles, r.CycleDelta)
	if r.A.CPI != 0 || r.B.CPI != 0 {
		fmt.Printf("%-14s %12.3f %12.3f %+12.3f\n", "CPI", r.A.CPI, r.B.CPI, r.B.CPI-r.A.CPI)
	}
	if r.A.HitRatePct != 0 || r.B.HitRatePct != 0 {
		fmt.Printf("%-14s %11.1f%% %11.1f%% %+11.1fpp\n", "hit rate", r.A.HitRatePct, r.B.HitRatePct, r.HitRateDeltaPct)
	}
	fmt.Printf("\n%-14s %12s %12s %12s %8s\n", "attribution", "a", "b", "delta", "share")
	for _, d := range r.Attribution {
		fmt.Printf("%-14s %12d %12d %+12d %7.1f%%\n", d.Bucket, d.A, d.B, d.Delta, d.SharePct)
	}
	if len(r.MissClasses) > 0 {
		fmt.Printf("\n%-14s %12s %12s %12s\n", "miss class", "a", "b", "delta")
		for _, c := range r.MissClasses {
			fmt.Printf("%-14s %12d %12d %+12d\n", c.Class, c.A, c.B, c.Delta)
		}
	}
	if len(r.PerLoop) > 0 {
		fmt.Printf("\n%-5s %-21s %12s %12s %12s %8s %10s\n",
			"loop", "name", "a", "b", "delta", "share", "miss Δ")
		for i, l := range r.PerLoop {
			if i == 10 {
				fmt.Printf("(… %d more loops)\n", len(r.PerLoop)-i)
				break
			}
			name := l.Name
			if l.Loop == 0 {
				name = "(outside)"
			}
			fmt.Printf("%-5d %-21s %12d %12d %+12d %7.1f%% %+10d\n",
				l.Loop, name, l.A, l.B, l.Delta, l.SharePct, l.MissDelta)
		}
	}
	fmt.Println()
}

// renderCatalog prints the human drift report for two sweep documents.
func renderCatalog(r *compare.CatalogReport) {
	fmt.Printf("%s\n", r.Summary)
	for i, d := range r.Drift {
		if i == 10 {
			fmt.Printf("(… %d more drifted points)\n", len(r.Drift)-i)
			break
		}
		fmt.Printf("  drift    %s\n", d)
	}
	for i, d := range r.BlockDrift {
		if i == 10 {
			fmt.Printf("(… %d more drifted fields)\n", len(r.BlockDrift)-i)
			break
		}
		fmt.Printf("  drift    %s\n", d)
	}
	for i, p := range r.MissingInB {
		if i == 10 {
			fmt.Printf("(… %d more missing points)\n", len(r.MissingInB)-i)
			break
		}
		fmt.Printf("  missing  %s\n", p)
	}
	for i, p := range r.MissingInA {
		if i == 5 {
			fmt.Printf("(… %d more new points)\n", len(r.MissingInA)-i)
			break
		}
		fmt.Printf("  new      %s\n", p)
	}
}

func nameOf(ref compare.RunRef, fallback string) string {
	if ref.Label != "" {
		if len(ref.Label) > 12 {
			return ref.Label[:12]
		}
		return ref.Label
	}
	return fallback
}
