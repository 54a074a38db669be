package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pipesim/internal/stats"
)

// fake builds a lightweight experiment for runner tests (no simulation;
// the bodies ignore the context, so they keep the plain signature).
func fake(id string, run func() (*Result, error)) Experiment {
	return Experiment{ID: id, Title: "fake " + id, Run: func(context.Context) (*Result, error) { return run() }}
}

func passing(id string) Experiment {
	return fake(id, func() (*Result, error) { return &Result{ID: id}, nil })
}

func TestRunAllIsolatesFailures(t *testing.T) {
	exps := []Experiment{
		passing("ok1"),
		fake("boom", func() (*Result, error) { panic("experiment bug") }),
		fake("err", func() (*Result, error) { return nil, errors.New("bad point") }),
		passing("ok2"),
	}
	sum := RunAll(exps, Options{Workers: 2})
	if len(sum.Outcomes) != len(exps) {
		t.Fatalf("got %d outcomes, want %d", len(sum.Outcomes), len(exps))
	}
	// Submission order is preserved regardless of completion order.
	for i, o := range sum.Outcomes {
		if o.Experiment.ID != exps[i].ID {
			t.Errorf("outcome %d is %s, want %s", i, o.Experiment.ID, exps[i].ID)
		}
	}
	if sum.Passed() != 2 || len(sum.Failed()) != 2 {
		t.Errorf("passed %d failed %d, want 2/2", sum.Passed(), len(sum.Failed()))
	}
	// The panic is wrapped, attributed and carries the stack.
	var pe *PanicError
	if !errors.As(sum.Outcomes[1].Err, &pe) {
		t.Fatalf("outcome[1].Err = %v, want *PanicError", sum.Outcomes[1].Err)
	}
	if pe.ID != "boom" || pe.Value != "experiment bug" || !strings.Contains(pe.Stack, "runner_test") {
		t.Errorf("panic not attributed: %+v", pe)
	}
	// Successful experiments still delivered their results.
	if sum.Outcomes[0].Result == nil || sum.Outcomes[3].Result == nil {
		t.Error("passing experiments lost their results")
	}
	if err := sum.Err(); err == nil || !strings.Contains(err.Error(), "2 of 4") {
		t.Errorf("Summary.Err() = %v", err)
	}
	table := sum.String()
	for _, want := range []string{"ok  ", "FAIL", "boom", "2/4 passed"} {
		if !strings.Contains(table, want) {
			t.Errorf("summary table missing %q:\n%s", want, table)
		}
	}
}

func TestRunAllEmptyAndAllPass(t *testing.T) {
	if sum := RunAll(nil, Options{}); len(sum.Outcomes) != 0 || sum.Err() != nil {
		t.Errorf("empty sweep: %+v", sum)
	}
	exps := make([]Experiment, 20)
	for i := range exps {
		exps[i] = passing(fmt.Sprintf("e%02d", i))
	}
	sum := RunAll(exps, Options{Workers: 8})
	if sum.Err() != nil {
		t.Fatalf("Err() = %v", sum.Err())
	}
	if sum.Passed() != len(exps) {
		t.Errorf("passed %d of %d", sum.Passed(), len(exps))
	}
}

func TestRunAllTimeout(t *testing.T) {
	release := make(chan struct{})
	exps := []Experiment{
		passing("fast"),
		fake("stuck", func() (*Result, error) { <-release; return &Result{}, nil }),
	}
	sum := RunAll(exps, Options{Workers: 2, Timeout: 50 * time.Millisecond})
	close(release) // let the abandoned goroutine exit
	var te *TimeoutError
	if !errors.As(sum.Outcomes[1].Err, &te) {
		t.Fatalf("stuck outcome err = %v, want *TimeoutError", sum.Outcomes[1].Err)
	}
	if te.ID != "stuck" || te.Timeout != 50*time.Millisecond {
		t.Errorf("timeout not attributed: %+v", te)
	}
	if sum.Outcomes[0].Err != nil {
		t.Errorf("fast experiment caught in the deadline: %v", sum.Outcomes[0].Err)
	}
	if !strings.Contains(te.Error(), "deadline") {
		t.Errorf("Error() = %q", te.Error())
	}
}

func TestRunAllProgress(t *testing.T) {
	exps := []Experiment{
		passing("a"),
		fake("bad", func() (*Result, error) { return nil, errors.New("nope") }),
		passing("c"),
	}
	var (
		calls []string
		dones []int
	)
	sum := RunAll(exps, Options{Workers: 2, Progress: func(o Outcome, done, total int) {
		// Serialized on the collector goroutine: appending without a lock
		// here is itself part of the contract under test (go test -race).
		status := "ok"
		if o.Err != nil {
			status = "fail"
		}
		calls = append(calls, o.Experiment.ID+":"+status)
		dones = append(dones, done)
		if total != len(exps) {
			t.Errorf("total = %d, want %d", total, len(exps))
		}
	}})
	if len(calls) != len(exps) {
		t.Fatalf("progress called %d times, want %d (calls: %v)", len(calls), len(exps), calls)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Errorf("done counts = %v, want 1..%d in order", dones, len(exps))
			break
		}
	}
	seen := map[string]bool{}
	for _, c := range calls {
		seen[c] = true
	}
	for _, want := range []string{"a:ok", "bad:fail", "c:ok"} {
		if !seen[want] {
			t.Errorf("progress calls %v missing %q", calls, want)
		}
	}
	if sum.Passed() != 2 {
		t.Errorf("passed = %d, want 2", sum.Passed())
	}
}

func TestSummaryWriteJSON(t *testing.T) {
	exps := []Experiment{
		fake("fig5a", func() (*Result, error) {
			return &Result{
				ID: "fig5a", XLabel: "cache bytes",
				Series: []Series{{Label: "pipe", Points: []Point{
					{CacheBytes: 64, Cycles: 1234, Valid: true},
					{CacheBytes: 4, Valid: false},
				}}},
			}, nil
		}),
		fake("broken", func() (*Result, error) { return nil, errors.New("machine check") }),
	}
	sum := RunAll(exps, Options{Workers: 1})
	var buf strings.Builder
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Total          int     `json:"total"`
		Passed         int     `json:"passed"`
		ElapsedSeconds float64 `json:"elapsed_seconds"`
		Outcomes       []struct {
			ID             string  `json:"id"`
			OK             bool    `json:"ok"`
			Error          string  `json:"error"`
			ElapsedSeconds float64 `json:"elapsed_seconds"`
			XLabel         string  `json:"x_label"`
			Series         []struct {
				Label  string `json:"label"`
				Points []struct {
					X      int    `json:"x"`
					Cycles uint64 `json:"cycles"`
					Valid  bool   `json:"valid"`
				} `json:"points"`
			} `json:"series"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("metrics are not valid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Total != 2 || decoded.Passed != 1 {
		t.Errorf("total/passed = %d/%d, want 2/1", decoded.Total, decoded.Passed)
	}
	if len(decoded.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2", len(decoded.Outcomes))
	}
	ok, bad := decoded.Outcomes[0], decoded.Outcomes[1]
	if !ok.OK || ok.ID != "fig5a" || ok.XLabel != "cache bytes" {
		t.Errorf("passing outcome = %+v", ok)
	}
	if len(ok.Series) != 1 || len(ok.Series[0].Points) != 2 {
		t.Fatalf("series shape = %+v", ok.Series)
	}
	p := ok.Series[0].Points[0]
	if p.X != 64 || p.Cycles != 1234 || !p.Valid {
		t.Errorf("point = %+v, want x=64 cycles=1234 valid", p)
	}
	if bad.OK || bad.Error != "machine check" {
		t.Errorf("failing outcome = %+v", bad)
	}
}

// TestSummaryWriteJSONAttribution pins the schema tag and the
// cycle-attribution aggregation: experiments whose points carry stats get
// per-experiment bucket totals with the documented lower_snake names, the
// summary carries the sweep-wide sum, and stat-less experiments omit the
// field entirely.
func TestSummaryWriteJSONAttribution(t *testing.T) {
	withStats := func(id string, issue, starved uint64) Experiment {
		return fake(id, func() (*Result, error) {
			st := &stats.Sim{}
			st.CPU.CycleBuckets[stats.CycleIssue] = issue
			st.CPU.CycleBuckets[stats.CycleFetchStarved] = starved
			st.Cycles = issue + starved
			return &Result{ID: id, Series: []Series{{Label: "s", Points: []Point{
				{CacheBytes: 128, Cycles: st.Cycles, Valid: true, Stats: st},
			}}}}, nil
		})
	}
	sum := RunAll([]Experiment{
		withStats("a", 100, 7),
		withStats("b", 50, 3),
		passing("tableonly"),
	}, Options{Workers: 1})

	var buf strings.Builder
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema      string `json:"schema"`
		Attribution *struct {
			Issue        uint64 `json:"issue"`
			FetchStarved uint64 `json:"fetch_starved"`
		} `json:"attribution"`
		Outcomes []struct {
			ID          string          `json:"id"`
			Attribution json.RawMessage `json:"attribution"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Schema != MetricsSchema {
		t.Errorf("schema = %q, want %q", decoded.Schema, MetricsSchema)
	}
	if decoded.Attribution == nil {
		t.Fatal("summary attribution missing")
	}
	if decoded.Attribution.Issue != 150 || decoded.Attribution.FetchStarved != 10 {
		t.Errorf("summary attribution = %+v, want issue=150 fetch_starved=10", decoded.Attribution)
	}
	byID := map[string]json.RawMessage{}
	for _, o := range decoded.Outcomes {
		byID[o.ID] = o.Attribution
	}
	if len(byID["a"]) == 0 || len(byID["b"]) == 0 {
		t.Error("per-experiment attribution missing on stat-carrying outcomes")
	}
	if len(byID["tableonly"]) != 0 {
		t.Errorf("stat-less outcome emitted attribution: %s", byID["tableonly"])
	}

	// The BucketTotals helper is the daemon's metrics source; pin its
	// direct behaviour too.
	tot, ok := sum.Outcomes[0].BucketTotals()
	if !ok || tot.Total() != 107 {
		t.Errorf("BucketTotals = %+v ok=%v, want total 107", tot, ok)
	}
	if _, ok := sum.Outcomes[2].BucketTotals(); ok {
		t.Error("BucketTotals ok on a stat-less outcome")
	}
}

// TestSummaryWriteJSONCache pins the cache-introspection aggregation:
// experiments whose points ran with Config.CacheStats get per-experiment
// miss-class totals under "cache", the summary carries the sweep-wide sum,
// and uninstrumented experiments omit the field.
func TestSummaryWriteJSONCache(t *testing.T) {
	withCache := func(id string, comp, capa, conf uint64) Experiment {
		return fake(id, func() (*Result, error) {
			st := &stats.Sim{}
			st.Cache = &stats.CacheStats{
				Compulsory: comp, Capacity: capa, Conflict: conf,
				Evictions: comp + capa + conf, DeadEvictions: conf,
			}
			return &Result{ID: id, Series: []Series{{Label: "s", Points: []Point{
				{CacheBytes: 64, Cycles: 1, Valid: true, Stats: st},
			}}}}, nil
		})
	}
	sum := RunAll([]Experiment{
		withCache("a", 10, 200, 30),
		withCache("b", 5, 100, 15),
		passing("plain"),
	}, Options{Workers: 1})

	var buf strings.Builder
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cache *struct {
			Compulsory    uint64 `json:"compulsory"`
			Capacity      uint64 `json:"capacity"`
			Conflict      uint64 `json:"conflict"`
			Evictions     uint64 `json:"evictions"`
			DeadEvictions uint64 `json:"dead_evictions"`
		} `json:"cache"`
		Outcomes []struct {
			ID    string          `json:"id"`
			Cache json.RawMessage `json:"cache"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cache == nil {
		t.Fatal("summary cache totals missing")
	}
	if decoded.Cache.Compulsory != 15 || decoded.Cache.Capacity != 300 || decoded.Cache.Conflict != 45 {
		t.Errorf("summary cache = %+v, want 15/300/45", decoded.Cache)
	}
	if decoded.Cache.Evictions != 360 || decoded.Cache.DeadEvictions != 45 {
		t.Errorf("summary evictions = %d/%d, want 360/45", decoded.Cache.Evictions, decoded.Cache.DeadEvictions)
	}
	byID := map[string]json.RawMessage{}
	for _, o := range decoded.Outcomes {
		byID[o.ID] = o.Cache
	}
	if len(byID["a"]) == 0 || len(byID["b"]) == 0 {
		t.Error("per-experiment cache totals missing on introspected outcomes")
	}
	if len(byID["plain"]) != 0 {
		t.Errorf("uninstrumented outcome emitted cache totals: %s", byID["plain"])
	}

	// Pin the helper the daemon folds from directly.
	ct, ok := sum.Outcomes[0].CacheTotals()
	if !ok || ct.Misses() != 240 {
		t.Errorf("CacheTotals = %+v ok=%v, want 240 misses", ct, ok)
	}
	if _, ok := sum.Outcomes[2].CacheTotals(); ok {
		t.Error("CacheTotals ok on an uninstrumented outcome")
	}
}
