package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipesim"
	"pipesim/internal/runcache"
	"pipesim/internal/tracing"
)

// smallLoop terminates in a few hundred cycles — fast enough to run for
// real inside handler tests.
const smallLoop = `
        li    r1, 10
        li    r2, 0
        setb  b0, loop
loop:   addi  r2, r2, 1
        addi  r1, r1, -1
        pbr   ne, r1, b0, 2
        nop
        nop
        halt
`

// deadlockAsm reads R7 with no load outstanding: the machine wedges and
// the watchdog diagnoses it (same program as TestPublicWatchdogDeadlock).
const deadlockAsm = `
        li   r1, 1
        add  r2, r7, r1
        halt
`

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, serverOptions{runLimit: time.Minute})
}

func newTestServerOpts(t *testing.T, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	// The run cache (and its optional store tier) is process-global;
	// start every test server against an empty one so cached results from
	// earlier tests cannot change which runs actually simulate.
	runcache.Default.SetStore(nil)
	runcache.Default.Reset()
	s, err := newServer(slog.New(slog.NewTextHandler(io.Discard, nil)), opts)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(func() {
		pipesim.SetRunHook(nil)
		runcache.Default.SetStore(nil)
	})
	if s.jobs != nil {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.jobs.Close(ctx)
		})
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func decodeErr(t *testing.T, body string) apiError {
	t.Helper()
	var ae apiError
	if err := json.Unmarshal([]byte(body), &ae); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, body)
	}
	return ae
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", resp.StatusCode, body)
	}

	// Not warmed yet: readiness must fail so load balancers hold traffic.
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold readyz = %d, want 503", resp.StatusCode)
	}
	if err := s.warm(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("warm readyz = %d, want 200", resp.StatusCode)
	}
	// Draining flips it back: in-flight work finishes but no new traffic.
	s.drain()
	if resp, _ := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
}

func TestRunEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run = %d\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
	var rr runResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if rr.Result == nil || rr.Result.Cycles == 0 {
		t.Fatalf("run result = %+v, want non-zero cycles", rr.Result)
	}
	if rr.Result.Attribution.Total() != rr.Result.Cycles {
		t.Errorf("attribution total %d != cycles %d",
			rr.Result.Attribution.Total(), rr.Result.Cycles)
	}

	// The run hook fed the metrics registry.
	snap := s.metrics.reg.Snapshot()
	if got := snap[`pipesimd_runs_total{strategy="pipe",outcome="ok"}`]; got != 1 {
		t.Errorf("runs_total = %v, want 1 (snapshot keys: %v)", got, keysLike(snap, "pipesimd_runs_total"))
	}
	if got := snap[`pipesimd_attribution_cycles_total{bucket="issue"}`]; got <= 0 {
		t.Errorf("attribution issue cycles = %v, want > 0", got)
	}
	if got := snap[`pipesimd_http_requests_total{route="/v1/run",code="200"}`]; got != 1 {
		t.Errorf("http_requests_total = %v, want 1", got)
	}

	// Config overlay: an absent field keeps its default, a present one
	// overrides. A 64-byte cache must cost more cycles than the default 128.
	resp, body = post(t, ts.URL+"/v1/run",
		`{"asm": `+quote(smallLoop)+`, "config": {"CacheBytes": 64}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("overlay run = %d\n%s", resp.StatusCode, body)
	}
}

// TestRunEndpointCacheStats: the same 3C breakdown the CLI prints comes
// back through POST /v1/run (cache_stats in the result) and lands in the
// pipesimd_cache_miss_total class counters, with the per-class counts
// summing exactly to the run's miss total.
func TestRunEndpointCacheStats(t *testing.T) {
	s, ts := newTestServer(t)

	// Without the knob: no block, no class counters.
	resp, body := post(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain run = %d\n%s", resp.StatusCode, body)
	}
	var rr runResponse
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result.CacheStats != nil {
		t.Error("plain run returned cache_stats")
	}

	resp, body = post(t, ts.URL+"/v1/run",
		`{"asm": `+quote(smallLoop)+`, "config": {"CacheStats": true, "CacheBytes": 64}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("introspected run = %d\n%s", resp.StatusCode, body)
	}
	rr = runResponse{}
	if err := json.Unmarshal([]byte(body), &rr); err != nil {
		t.Fatal(err)
	}
	cs := rr.Result.CacheStats
	if cs == nil {
		t.Fatalf("introspected run missing cache_stats:\n%s", body)
	}
	if got := cs.Misses(); got != rr.Result.CacheMisses {
		t.Errorf("classes sum to %d, want CacheMisses = %d", got, rr.Result.CacheMisses)
	}
	if len(cs.Sets) != 64/16 {
		t.Errorf("heatmap has %d sets, want 4", len(cs.Sets))
	}

	// The run hook folded the same counts into /metrics.
	snap := s.metrics.reg.Snapshot()
	var fromMetrics float64
	for _, class := range []string{"compulsory", "capacity", "conflict"} {
		fromMetrics += snap[`pipesimd_cache_miss_total{class="`+class+`"}`]
	}
	if uint64(fromMetrics) != cs.Misses() {
		t.Errorf("metrics classes sum to %v, want %d", fromMetrics, cs.Misses())
	}
}

func TestRunEndpointErrors(t *testing.T) {
	s, ts := newTestServer(t)

	cases := []struct {
		name   string
		body   string
		code   int
		kind   string
		detail string
	}{
		{"malformed json", `{"asm": `, http.StatusBadRequest, errKindBadRequest, ""},
		{"unknown field", `{"nope": 1}`, http.StatusBadRequest, errKindBadRequest, "nope"},
		{"unknown overlay field", `{"config": {"Nope": 1}}`, http.StatusBadRequest, errKindBadRequest, "Nope"},
		{"asm and kernel", `{"asm": "halt", "kernel": 3}`, http.StatusBadRequest, errKindBadRequest, "mutually exclusive"},
		{"bad table", `{"table_ii": "9-9"}`, http.StatusBadRequest, errKindBadRequest, ""},
		{"bad asm", `{"asm": "frobnicate r1"}`, http.StatusBadRequest, errKindBadRequest, ""},
		{"invalid config", `{"asm": "halt", "config": {"CacheBytes": 3}}`,
			http.StatusBadRequest, errKindInvalidConfig, "CacheBytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/run", tc.body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d\n%s", resp.StatusCode, tc.code, body)
			}
			ae := decodeErr(t, body)
			if ae.Kind != tc.kind {
				t.Errorf("kind = %q, want %q (%s)", ae.Kind, tc.kind, ae.Error)
			}
			if tc.detail != "" && !strings.Contains(ae.Error, tc.detail) {
				t.Errorf("error %q missing %q", ae.Error, tc.detail)
			}
		})
	}

	snap := s.metrics.reg.Snapshot()
	if got := snap[`pipesimd_errors_total{kind="invalid_config"}`]; got != 1 {
		t.Errorf("invalid_config errors = %v, want 1", got)
	}
	if got := snap[`pipesimd_errors_total{kind="bad_request"}`]; got != 6 {
		t.Errorf("bad_request errors = %v, want 6", got)
	}
}

func TestRunEndpointDeadlock(t *testing.T) {
	s, ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/run",
		`{"asm": `+quote(deadlockAsm)+`, "config": {"WatchdogCycles": 2000}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("deadlock run = %d, want 500\n%s", resp.StatusCode, body)
	}
	ae := decodeErr(t, body)
	if ae.Kind != errKindDeadlock {
		t.Errorf("kind = %q, want %q (%s)", ae.Kind, errKindDeadlock, ae.Error)
	}
	snap := s.metrics.reg.Snapshot()
	if got := snap[`pipesimd_errors_total{kind="deadlock"}`]; got != 1 {
		t.Errorf("deadlock errors = %v, want 1", got)
	}
	if got := snap[`pipesimd_runs_total{strategy="pipe",outcome="deadlock"}`]; got != 1 {
		t.Errorf("runs_total{outcome=deadlock} = %v, want 1", got)
	}
}

func TestSweepEndpoint(t *testing.T) {
	s, ts := newTestServer(t)

	// slots runs real (small) simulations so its outcomes carry per-cycle
	// attribution stats; table1 is pure bookkeeping and would not.
	resp, body := get(t, ts.URL+"/v1/sweep?exp=slots")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d\n%s", resp.StatusCode, body)
	}
	var sum struct {
		Schema string `json:"schema"`
		Total  int    `json:"total"`
		Passed int    `json:"passed"`
		Cache  *struct {
			Compulsory uint64 `json:"compulsory"`
			Capacity   uint64 `json:"capacity"`
			Conflict   uint64 `json:"conflict"`
		} `json:"cache"`
		Outcomes []struct {
			ID string `json:"id"`
			OK bool   `json:"ok"`
		} `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("sweep response not JSON: %v\n%s", err, body)
	}
	if sum.Total != 1 || sum.Passed != 1 || sum.Outcomes[0].ID != "slots" {
		t.Errorf("sweep summary = %+v", sum)
	}
	// slots runs with cache introspection: the summary carries the
	// aggregated 3C breakdown and the daemon folds it into /metrics.
	if sum.Cache == nil {
		t.Fatalf("sweep summary missing cache totals:\n%s", body)
	}
	wantMisses := sum.Cache.Compulsory + sum.Cache.Capacity + sum.Cache.Conflict
	if wantMisses == 0 {
		t.Error("sweep cache totals are all zero")
	}
	snap := s.metrics.reg.Snapshot()
	if got := snap[`pipesimd_sweep_experiments_total{outcome="ok"}`]; got != 1 {
		t.Errorf("sweep_experiments_total = %v, want 1", got)
	}
	if got := snap[`pipesimd_attribution_cycles_total{bucket="issue"}`]; got <= 0 {
		t.Errorf("sweep attribution issue cycles = %v, want > 0", got)
	}
	var fromMetrics float64
	for _, class := range []string{"compulsory", "capacity", "conflict"} {
		fromMetrics += snap[`pipesimd_cache_miss_total{class="`+class+`"}`]
	}
	if uint64(fromMetrics) != wantMisses {
		t.Errorf("metrics classes sum to %v, want the summary's %d", fromMetrics, wantMisses)
	}

	if resp, body := get(t, ts.URL+"/v1/sweep?exp=nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown experiment = %d\n%s", resp.StatusCode, body)
	}
	if resp, _ := get(t, ts.URL+"/v1/sweep?parallel=bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad parallel = %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts.URL+"/v1/sweep?timeout=never"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout = %d, want 400", resp.StatusCode)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments = %d", resp.StatusCode)
	}
	var items []struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal([]byte(body), &items); err != nil {
		t.Fatalf("experiments response not JSON: %v", err)
	}
	found := false
	for _, it := range items {
		if it.ID == "table1" {
			found = true
		}
	}
	if !found {
		t.Errorf("experiment list missing table1: %+v", items)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Generate a little traffic so counters are non-zero.
	post(t, ts.URL+"/v1/run", `{"asm": `+quote(smallLoop)+`}`)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE pipesimd_http_requests_total counter",
		"# TYPE pipesimd_http_request_seconds histogram",
		"# TYPE pipesimd_http_in_flight gauge",
		"pipesimd_build_info{",
		`pipesimd_runs_total{strategy="pipe",outcome="ok"} 1`,
		"pipesimd_run_cycles_bucket{",
		`pipesimd_attribution_cycles_total{bucket="issue"}`,
		`pipesimd_http_requests_total{route="/v1/run",code="200"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/version")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version = %d", resp.StatusCode)
	}
	var v struct {
		Module string `json:"Module"`
	}
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("version response not JSON: %v\n%s", err, body)
	}
	if v.Module == "" {
		t.Errorf("version module empty: %s", body)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline = %d", resp.StatusCode)
	}
	_ = body
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/v1/run")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", resp.StatusCode)
	}
}

// quote JSON-encodes a string for embedding in a request body.
func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// keysLike lists snapshot keys with a prefix, for test failure messages.
func keysLike(snap map[string]float64, prefix string) []string {
	var out []string
	for k := range snap {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// The default-program and kernel /v1/run requests resolve a shared image,
// so the "build" stage allocates a handful of objects, not the ~100 a loop
// rebuild or the ~1,000 a benchmark rebuild costs.
func TestBuildRunConfigReusesBuiltinImages(t *testing.T) {
	ctx, root := tracing.New(0).StartTrace(context.Background(), "POST /v1/run", "allocs", tracing.TraceContext{})
	defer root.End()
	for _, req := range []runRequest{{}, {TableII: "16-16"}, {Kernel: 7}} {
		if _, _, kind, err := buildRunConfig(ctx, req); err != nil {
			t.Fatalf("%+v: %s: %v", req, kind, err)
		}
		if n := testing.AllocsPerRun(20, func() { buildRunConfig(ctx, req) }); n > 32 {
			t.Errorf("%+v: buildRunConfig made %.0f allocations, want <= 32", req, n)
		}
	}
}
