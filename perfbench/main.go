// Command perfbench is pipesim's performance benchmark. It measures one
// workload for a fixed time, checks every simulated result against the
// golden catalog, and prints a report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) report the per-layer metrics, write a Chrome-trace span file
// and CPU-profile shares, and compare their own wall time with an
// untraced phase of the same run. See README.md for the workloads and
// metrics. perfbench/run.sh builds this program and the pipesimd daemon
// from the checkout and runs it from the checkout root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pipesim/internal/version"
)

// env is one invocation's fixed inputs.
type env struct {
	daemon   string // pipesimd binary (serve-mix)
	work     string // scratch directory, removed at exit
	out      string // artifact directory (span file, profiles)
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workers  int // nproc: sweep workers and HTTP clients
	golden   *golden
	rng      *rand.Rand
}

// metric is one reported number with the samples it summarizes.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int        // samples behind Value
	Q     [3]float64 // quartiles of those samples
}

// result accumulates one invocation's outcome.
type result struct {
	attempted int
	failed    int
	failures  []string // the first few failures, described
	metrics   []metric
	counters  []counter // exact work counters, identical across passes
	notes     []string
	npasses   int // passes (rotations, catalogs or rounds) measured
}

// counter is one exact work count.
type counter struct {
	Name  string
	Value uint64
}

// maxFailureNotes bounds the failures described in the report.
const maxFailureNotes = 20

// check counts one attempted operation, failed when err is non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail counts a failure without a new attempt (a failed invariant of
// operations already counted).
func (r *result) fail(err error) {
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

// add reports a metric computed from samples s.
func (r *result) add(name, unit string, value float64, s samples) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: value, N: len(s), Q: s.quartiles()})
}

// addMedian reports the median of s.
func (r *result) addMedian(name, unit string, s samples) { r.add(name, unit, s.median(), s) }

// addPercentile reports the p-quantile of ps (see passes.percentile),
// failing the run when there are too few samples for it (fewer than
// minBeyond past it).
func (r *result) addPercentile(name, unit string, ps passes, p float64) {
	s := ps.flat()
	if err := checkPercentile(name, s, p); err != nil {
		r.fail(err)
	}
	r.add(name, unit, ps.percentile(p), s)
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: sim-stepped, catalog, serve-mix, or all (each in turn)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		daemon   = flag.String("pipesimd", "", "pipesimd binary (serve-mix)")
	)
	flag.Parse()
	workloads := map[string]func(context.Context, *env) (*result, error){
		"sim-stepped": runStepped,
		"catalog":     runCatalog,
		"serve-mix":   runServeMix,
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"sim-stepped", "catalog", "serve-mix"}
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
			fmt.Fprintf(os.Stderr, "perfbench: want -workload sim-stepped|catalog|serve-mix|all, -seconds > 0, -trace 0|1\n")
			return 2
		}
	}
	rootAbs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	g, err := loadGolden(filepath.Join(rootAbs, "GOLDEN_catalog.json"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	// Artifacts (span files, profiles) and per-run scratch live in the
	// checkout's build directory, which version control ignores.
	base := filepath.Join(rootAbs, ".bench_build", "perfbench")
	out := filepath.Join(base, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(base, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	// SIGINT/SIGTERM cancel the run; the daemon (serve-mix) is stopped on
	// the way out.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	runtime.GOMAXPROCS(runtime.NumCPU())
	for _, n := range names {
		e := &env{
			daemon: *daemon, work: work, out: out,
			workload: n, seed: *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			traced:  *trace == 1,
			workers: runtime.NumCPU(),
			golden:  g,
			rng:     rand.New(rand.NewPCG(*seed, 0x9e3779b97f4a7c15)),
		}
		start := time.Now()
		res, err := workloads[n](ctx, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", e.workload, err)
			return 1
		}
		printReport(e, res, time.Since(start))
	}
	return 0
}

// printReport writes the human-readable report, a provenance line and,
// last, the result object.
func printReport(e *env, r *result, total time.Duration) {
	mode := "untraced"
	if e.traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s (%s) seed %d: %d passes, %d operations, %d failed, %.1fs\n",
		e.workload, mode, e.seed, r.npasses, r.attempted, r.failed, total.Seconds())
	fmt.Printf("%-34s %14s %-9s %6s %14s %14s %14s\n", "metric", "value", "unit", "n", "q1", "median", "q3")
	for _, m := range r.metrics {
		fmt.Printf("%-34s %14.6g %-9s %6d %14.6g %14.6g %14.6g\n", m.Name, m.Value, m.Unit, m.N, m.Q[0], m.Q[1], m.Q[2])
	}
	if len(r.counters) > 0 {
		fmt.Println("exact work counters (identical across every pass of this run):")
		for _, c := range r.counters {
			fmt.Printf("  %-32s %d\n", c.Name, c.Value)
		}
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, f := range r.failures {
		fmt.Println("FAILED:", f)
	}

	type stat struct {
		Unit   string  `json:"unit"`
		Value  float64 `json:"value"`
		N      int     `json:"n"`
		Q1     float64 `json:"q1"`
		Median float64 `json:"median"`
		Q3     float64 `json:"q3"`
	}
	v := version.Get()
	prov := map[string]any{
		"schema":     "pipesim-perfbench/v1",
		"workload":   e.workload,
		"traced":     e.traced,
		"seed":       e.seed,
		"seconds":    e.seconds.Seconds(),
		"revision":   v.ShortRevision(),
		"go_version": v.GoVersion,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"passes":     r.npasses,
		"attempted":  r.attempted,
		"failed":     r.failed,
	}
	stats := make(map[string]stat, len(r.metrics))
	for _, m := range r.metrics {
		stats[m.Name] = stat{m.Unit, nanToZero(m.Value), m.N, nanToZero(m.Q[0]), nanToZero(m.Q[1]), nanToZero(m.Q[2])}
	}
	prov["metrics"] = stats
	counters := make(map[string]uint64, len(r.counters))
	for _, c := range r.counters {
		counters[c.Name] = c.Value
	}
	prov["counters"] = counters
	if line, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Println(string(line))
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = value{nanToZero(m.Value), m.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed++
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// nanToZero keeps the JSON encodable: a metric with no samples reads 0.
func nanToZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// cpuModel reads the host CPU model name.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) in MiB;
// pid 0 means this process.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// elapsed reports whether the measurement window starting at start is
// over.
func (e *env) elapsed(start time.Time) bool { return time.Since(start) >= e.seconds }

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
