package sweep

// This file is the fault-isolated parallel sweep runner. The paper's
// results come from sweeping a large parameter space; one bad point must
// not abort the whole experiment set. Each experiment runs on a worker
// goroutine behind its own panic recovery and deadline, and the runner
// returns every outcome — results for the experiments that finished,
// structured errors for the ones that did not.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pipesim/internal/eventbus"
	"pipesim/internal/runcache"
	"pipesim/internal/stats"
	"pipesim/internal/tracing"
)

// Options tunes the parallel runner. The zero value runs every experiment
// with one worker per CPU and no deadline.
type Options struct {
	// Workers is the number of concurrent experiments (<= 0 selects
	// runtime.NumCPU).
	Workers int
	// Timeout is the per-experiment deadline (<= 0 disables it). A timed
	// out experiment is reported as a *TimeoutError; its goroutine is
	// abandoned (experiment bodies are pure CPU work with no handle to
	// cancel, exactly like a wedged simulation) and the sweep moves on.
	Timeout time.Duration
	// Progress, when set, is called once per finished experiment with its
	// outcome and the running completion count. Calls are serialized on the
	// collector goroutine (no locking needed) but arrive in completion
	// order, not submission order.
	Progress func(o Outcome, done, total int)
	// Context, when set, is passed to every experiment body. A context
	// carrying a tracing span (a pipesimd sweep request) gets one child
	// span per experiment, named "experiment:<id>"; nil means
	// context.Background.
	Context context.Context
	// InjectFault, when set, is called inside each experiment's isolated
	// goroutine immediately before the body runs; a non-nil return is
	// reported as that experiment's error without running it. It exists
	// for chaos and soak testing only (killing selected points mid-sweep
	// to exercise checkpoint recovery); production callers leave it nil.
	InjectFault func(id string) error
	// Events, when set, receives one "sweep.experiment" event per
	// finished experiment (published from the collector goroutine, in
	// completion order, alongside Progress). Publishing never blocks:
	// the bus drops on slow consumers, so the sweep is unaffected by who
	// is watching.
	Events *eventbus.Bus
	// EventJob stamps published events with an owning job ID (set by the
	// durable-job layer; empty for ad-hoc sweeps).
	EventJob string
}

// KindExperiment is the event-bus kind of the per-experiment progress
// events RunAll publishes (see Options.Events).
const KindExperiment = "sweep.experiment"

// ExperimentEvent is the payload of a KindExperiment bus event.
type ExperimentEvent struct {
	ID       string  `json:"id"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	OK       bool    `json:"ok"`
	Error    string  `json:"error,omitempty"`
	ElapsedS float64 `json:"elapsed_s"`
}

// TimeoutError reports an experiment that exceeded the per-run deadline.
type TimeoutError struct {
	ID      string
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("sweep: experiment %s exceeded the %s deadline", e.ID, e.Timeout)
}

// PanicError reports an experiment that panicked outside the simulator core
// (the core converts its own panics to machine-check errors; this catches
// everything else, e.g. a bug in workload generation or result rendering).
type PanicError struct {
	ID    string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: experiment %s panicked: %v", e.ID, e.Value)
}

// Outcome is the result of one experiment under the runner: exactly one of
// Result and Err is set.
type Outcome struct {
	Experiment Experiment
	Result     *Result
	Err        error
	Elapsed    time.Duration
}

// Summary collects every outcome of one sweep, in the order the experiments
// were submitted.
type Summary struct {
	Outcomes []Outcome
	Elapsed  time.Duration

	// RunCache optionally carries the run cache's counters as of the end
	// of the sweep (cmd/experiments sets it from runcache.Default.Stats());
	// WriteJSON surfaces it so catalog metrics record how much simulation
	// the cache absorbed.
	RunCache *runcache.Counters
}

// Failed returns the outcomes that did not produce a result.
func (s *Summary) Failed() []Outcome {
	var out []Outcome
	for _, o := range s.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// Passed returns how many experiments completed successfully.
func (s *Summary) Passed() int { return len(s.Outcomes) - len(s.Failed()) }

// Err returns nil when every experiment passed, otherwise one error
// summarizing every failure.
func (s *Summary) Err() error {
	failed := s.Failed()
	if len(failed) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep: %d of %d experiments failed:", len(failed), len(s.Outcomes))
	for _, o := range failed {
		fmt.Fprintf(&sb, "\n  %s: %v", o.Experiment.ID, o.Err)
	}
	return fmt.Errorf("%s", sb.String())
}

// String renders the pass/fail table.
func (s *Summary) String() string {
	var sb strings.Builder
	for _, o := range s.Outcomes {
		status := "ok  "
		if o.Err != nil {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%s %-12s %8.2fs", status, o.Experiment.ID, o.Elapsed.Seconds())
		if o.Err != nil {
			fmt.Fprintf(&sb, "  %v", o.Err)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%d/%d passed in %.2fs\n", s.Passed(), len(s.Outcomes), s.Elapsed.Seconds())
	return sb.String()
}

// RunAll runs every experiment on a bounded worker pool, isolating each in
// its own goroutine with panic recovery and an optional deadline. It always
// returns a complete Summary: a failing — even crashing — experiment costs
// exactly its own slot, and every other result is still delivered.
func RunAll(exps []Experiment, opt Options) *Summary {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	start := time.Now()
	sum := &Summary{Outcomes: make([]Outcome, len(exps))}
	if len(exps) == 0 {
		return sum
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	type job struct {
		idx int
		exp Experiment
	}
	jobs := make(chan job)
	done := make(chan int)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				t0 := time.Now()
				res, err := runIsolated(ctx, j.exp, opt.Timeout, opt.InjectFault)
				sum.Outcomes[j.idx] = Outcome{
					Experiment: j.exp,
					Result:     res,
					Err:        err,
					Elapsed:    time.Since(t0),
				}
				done <- j.idx
			}
		}()
	}
	go func() {
		for i, e := range exps {
			jobs <- job{idx: i, exp: e}
		}
		close(jobs)
	}()
	for n := 1; n <= len(exps); n++ {
		idx := <-done
		if opt.Progress != nil {
			opt.Progress(sum.Outcomes[idx], n, len(exps))
		}
		if opt.Events != nil {
			o := sum.Outcomes[idx]
			ev := ExperimentEvent{
				ID:       o.Experiment.ID,
				Done:     n,
				Total:    len(exps),
				OK:       o.Err == nil,
				ElapsedS: o.Elapsed.Seconds(),
			}
			if o.Err != nil {
				ev.Error = o.Err.Error()
			}
			opt.Events.Publish(eventbus.Event{Kind: KindExperiment, Job: opt.EventJob, Data: ev})
		}
	}
	sum.Elapsed = time.Since(start)
	return sum
}

// BucketTotals is cycle attribution with stable lower_snake JSON names,
// shared by the sweep metrics file (Summary.WriteJSON) and the daemon's
// attribution counters — one schema across every serving-facing surface
// (see EXPERIMENTS.md).
// The fields mirror stats.CycleBucket and sum to the attributed cycles.
type BucketTotals struct {
	Issue        uint64 `json:"issue"`
	FetchStarved uint64 `json:"fetch_starved"`
	LDQWait      uint64 `json:"ldq_wait"`
	QueueFull    uint64 `json:"queue_full"`
	Drain        uint64 `json:"drain"`
	Other        uint64 `json:"other"`
}

// Total sums the buckets.
func (t BucketTotals) Total() uint64 {
	return t.Issue + t.FetchStarved + t.LDQWait + t.QueueFull + t.Drain + t.Other
}

// add accumulates one run's exact cycle attribution.
func (t *BucketTotals) add(b [stats.NumCycleBuckets]uint64) {
	t.Issue += b[stats.CycleIssue]
	t.FetchStarved += b[stats.CycleFetchStarved]
	t.LDQWait += b[stats.CycleLDQWait]
	t.QueueFull += b[stats.CycleQueueFull]
	t.Drain += b[stats.CycleDrain]
	t.Other += b[stats.CycleOther]
}

// merge accumulates another totals value.
func (t *BucketTotals) merge(o BucketTotals) {
	t.Issue += o.Issue
	t.FetchStarved += o.FetchStarved
	t.LDQWait += o.LDQWait
	t.QueueFull += o.QueueFull
	t.Drain += o.Drain
	t.Other += o.Other
}

// BucketTotals sums the cycle attribution of every simulated point of the
// outcome that carried full statistics. The second result is false when
// no point did (table-style experiments whose numbers are not cycle
// counts, or a failed experiment).
func (o *Outcome) BucketTotals() (BucketTotals, bool) {
	if o.Result == nil {
		return BucketTotals{}, false
	}
	return ResultTotals(o.Result)
}

// ResultTotals sums the cycle attribution of every point of a result that
// carried full statistics; ok is false when no point did.
func ResultTotals(r *Result) (t BucketTotals, ok bool) {
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Stats == nil {
				continue
			}
			t.add(p.Stats.CPU.CycleBuckets)
			ok = true
		}
	}
	return t, ok
}

// StatsTotals is the attribution of one simulated point.
func StatsTotals(st *stats.Sim) BucketTotals {
	var t BucketTotals
	t.add(st.CPU.CycleBuckets)
	return t
}

// CacheTotals aggregates the cache-introspection miss classes and eviction
// counts across simulated points, with the same stable lower_snake JSON
// names as the per-run Result.CacheStats block. Per-set heatmaps are
// per-machine data and are deliberately not aggregated here.
type CacheTotals struct {
	Compulsory    uint64 `json:"compulsory"`
	Capacity      uint64 `json:"capacity"`
	Conflict      uint64 `json:"conflict"`
	Evictions     uint64 `json:"evictions"`
	DeadEvictions uint64 `json:"dead_evictions"`
}

// Misses sums the three miss classes.
func (t CacheTotals) Misses() uint64 { return t.Compulsory + t.Capacity + t.Conflict }

// add accumulates one run's introspection block.
func (t *CacheTotals) add(c *stats.CacheStats) {
	t.Compulsory += c.Compulsory
	t.Capacity += c.Capacity
	t.Conflict += c.Conflict
	t.Evictions += c.Evictions
	t.DeadEvictions += c.DeadEvictions
}

// merge accumulates another totals value.
func (t *CacheTotals) merge(o CacheTotals) {
	t.Compulsory += o.Compulsory
	t.Capacity += o.Capacity
	t.Conflict += o.Conflict
	t.Evictions += o.Evictions
	t.DeadEvictions += o.DeadEvictions
}

// CacheTotals sums the miss-class breakdown of every simulated point of the
// outcome that ran with cache introspection. The second result is false
// when no point did (introspection off, a table-style experiment, or a
// failed experiment).
func (o *Outcome) CacheTotals() (CacheTotals, bool) {
	if o.Result == nil {
		return CacheTotals{}, false
	}
	return ResultCacheTotals(o.Result)
}

// ResultCacheTotals sums the miss classes of every introspected point of a
// result; ok is false when no point carried an introspection block.
func ResultCacheTotals(r *Result) (t CacheTotals, ok bool) {
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Stats == nil || p.Stats.Cache == nil {
				continue
			}
			t.add(p.Stats.Cache)
			ok = true
		}
	}
	return t, ok
}

// jsonPoint, jsonSeries and jsonOutcome shape the machine-readable sweep
// metrics: stable lower_snake field names, durations in seconds, errors as
// strings. The full per-point stats structures are deliberately omitted —
// the metrics file is for dashboards and regression tracking, not replay.
type jsonPoint struct {
	X      int    `json:"x"`
	Cycles uint64 `json:"cycles"`
	Valid  bool   `json:"valid"`
}

type jsonSeries struct {
	Label  string      `json:"label"`
	Points []jsonPoint `json:"points"`
}

type jsonOutcome struct {
	ID             string        `json:"id"`
	Title          string        `json:"title"`
	OK             bool          `json:"ok"`
	Error          string        `json:"error,omitempty"`
	ElapsedSeconds float64       `json:"elapsed_seconds"`
	Attribution    *BucketTotals `json:"attribution,omitempty"`
	Cache          *CacheTotals  `json:"cache,omitempty"`
	XLabel         string        `json:"x_label,omitempty"`
	Series         []jsonSeries  `json:"series,omitempty"`
}

type jsonSummary struct {
	Schema         string             `json:"schema"`
	Total          int                `json:"total"`
	Passed         int                `json:"passed"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Attribution    *BucketTotals      `json:"attribution,omitempty"`
	Cache          *CacheTotals       `json:"cache,omitempty"`
	RunCache       *runcache.Counters `json:"runcache,omitempty"`
	Outcomes       []jsonOutcome      `json:"outcomes"`
}

// MetricsSchema identifies the WriteJSON layout. New fields may be added;
// existing names, units and nesting stay stable within a major version
// (documented field-by-field in EXPERIMENTS.md).
const MetricsSchema = "pipesim-sweep/v1"

// WriteJSON writes the sweep's machine-readable metrics: per-experiment
// status, wall-clock time, cycle-attribution buckets and result series,
// plus the aggregate counts and the attribution summed over the whole
// sweep. The format is stable for scripting (see EXPERIMENTS.md) and
// shares its attribution naming with the BENCH_*.json baselines.
func (s *Summary) WriteJSON(w io.Writer) error {
	out := jsonSummary{
		Schema:         MetricsSchema,
		Total:          len(s.Outcomes),
		Passed:         s.Passed(),
		ElapsedSeconds: s.Elapsed.Seconds(),
		Outcomes:       make([]jsonOutcome, 0, len(s.Outcomes)),
	}
	var sweepTotals BucketTotals
	anyTotals := false
	var sweepCache CacheTotals
	anyCache := false
	for _, o := range s.Outcomes {
		jo := jsonOutcome{
			ID:             o.Experiment.ID,
			Title:          o.Experiment.Title,
			OK:             o.Err == nil,
			ElapsedSeconds: o.Elapsed.Seconds(),
		}
		if o.Err != nil {
			jo.Error = o.Err.Error()
		}
		if t, ok := o.BucketTotals(); ok {
			bt := t
			jo.Attribution = &bt
			sweepTotals.merge(t)
			anyTotals = true
		}
		if t, ok := o.CacheTotals(); ok {
			ct := t
			jo.Cache = &ct
			sweepCache.merge(t)
			anyCache = true
		}
		if o.Result != nil {
			jo.XLabel = o.Result.XLabel
			for _, sr := range o.Result.Series {
				js := jsonSeries{Label: sr.Label, Points: make([]jsonPoint, 0, len(sr.Points))}
				for _, p := range sr.Points {
					js.Points = append(js.Points, jsonPoint{X: p.CacheBytes, Cycles: p.Cycles, Valid: p.Valid})
				}
				jo.Series = append(jo.Series, js)
			}
		}
		out.Outcomes = append(out.Outcomes, jo)
	}
	if anyTotals {
		out.Attribution = &sweepTotals
	}
	if anyCache {
		out.Cache = &sweepCache
	}
	out.RunCache = s.RunCache
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runIsolated executes one experiment body behind panic recovery and an
// optional deadline. When ctx carries a tracing span the experiment gets a
// child span; the span ends when the body returns, even if the sweep has
// already timed the experiment out and moved on. The fault hook runs
// inside the isolated goroutine, so a panicking hook is contained too.
func runIsolated(ctx context.Context, e Experiment, timeout time.Duration, inject func(id string) error) (*Result, error) {
	type reply struct {
		res *Result
		err error
	}
	// Buffered so an abandoned (timed out) experiment can still finish and
	// let its goroutine exit.
	ch := make(chan reply, 1)
	go func() {
		ctx, span := tracing.StartSpan(ctx, "experiment:"+e.ID)
		defer span.End()
		defer func() {
			if p := recover(); p != nil {
				span.SetAttr("panic", fmt.Sprint(p))
				ch <- reply{err: &PanicError{ID: e.ID, Value: p, Stack: string(debug.Stack())}}
			}
		}()
		if inject != nil {
			if err := inject(e.ID); err != nil {
				span.SetAttr("error", err.Error())
				ch <- reply{err: err}
				return
			}
		}
		res, err := e.Run(ctx)
		if err != nil {
			span.SetAttr("error", err.Error())
		}
		ch <- reply{res: res, err: err}
	}()
	if timeout <= 0 {
		r := <-ch
		return r.res, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.res, r.err
	case <-timer.C:
		return nil, &TimeoutError{ID: e.ID, Timeout: timeout}
	}
}

// SortByID orders outcomes by experiment ID (RunAll already preserves
// submission order; this is for callers that merge several sweeps).
func SortByID(outcomes []Outcome) {
	sort.Slice(outcomes, func(i, j int) bool {
		return outcomes[i].Experiment.ID < outcomes[j].Experiment.ID
	})
}
