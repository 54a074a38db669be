package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipesim"
	"pipesim/internal/runstore"
	"pipesim/internal/sweep"
)

// Per client and round: keys first touched from the pre-populated store,
// keys never seen (simulated), and extra requests repeating any of the
// client's keys (served from memory). With two clients, every round holds
// a whole p90 window (100 samples) of store hits and of memory hits, so
// the reported tail is a median over as many windows as there are rounds.
const (
	smStorePerClient   = 100
	smColdPerClient    = 40
	smRepeatsPerClient = 250
)

// Expected /v1/run sources.
const (
	srcSimulated = "simulated"
	srcMemory    = "memory"
	srcStore     = "store"
)

// smKey is one distinct /v1/run request: a golden Livermore machine with
// cache introspection off or on (a different run key, the same cycles).
type smKey struct {
	m    machine
	cfg  pipesim.Config
	body []byte
}

// smRequest is one request of a client's sequence with its expected
// source.
type smRequest struct {
	key  int
	want string
}

// smPlan assigns each client a disjoint set of keys: store keys are
// pre-populated in the run store, cold keys never are.
type smPlan struct {
	keys    []smKey
	clients []smClient
}

type smClient struct{ store, cold []int }

// newPlan builds the key space from the golden machines and deals each of
// clients its disjoint store and cold keys in seeded order.
func newPlan(ms []machine, clients int, rng *rand.Rand) (*smPlan, error) {
	p := &smPlan{}
	for _, m := range ms {
		for _, introspect := range []bool{false, true} {
			cfg := m.Cfg
			cfg.CacheStats = introspect
			body, err := json.Marshal(map[string]any{"config": cfg})
			if err != nil {
				return nil, err
			}
			p.keys = append(p.keys, smKey{m: m, cfg: cfg, body: body})
		}
	}
	per := smStorePerClient + smColdPerClient
	if clients*per > len(p.keys) {
		return nil, fmt.Errorf("%d clients need %d distinct keys, the golden catalog gives %d", clients, clients*per, len(p.keys))
	}
	perm := rng.Perm(len(p.keys))
	for c := 0; c < clients; c++ {
		own := perm[c*per : (c+1)*per]
		p.clients = append(p.clients, smClient{store: own[:smStorePerClient], cold: own[smStorePerClient:]})
	}
	return p, nil
}

// Phases of a round, in order. Every client finishes a phase before any
// starts the next, so each source is timed without the others competing
// for the two CPUs: a store hit never waits behind a simulation, and a
// simulator change cannot move memory-hit latency through contention.
const (
	phaseStore  = iota // first touches of pre-populated keys
	phaseCold          // first touches of never-seen keys
	phaseMemory        // repeats, all served from memory
	numPhases
)

// sequence is client c's requests for one round, by phase: its store keys
// and its cold keys once each in seeded order, then smRepeatsPerClient
// repeats of keys drawn at random from both.
func (p *smPlan) sequence(rng *rand.Rand, c int) [numPhases][]smRequest {
	cl := p.clients[c]
	var out [numPhases][]smRequest
	for _, i := range rng.Perm(len(cl.store)) {
		out[phaseStore] = append(out[phaseStore], smRequest{key: cl.store[i], want: srcStore})
	}
	for _, i := range rng.Perm(len(cl.cold)) {
		out[phaseCold] = append(out[phaseCold], smRequest{key: cl.cold[i], want: srcSimulated})
	}
	own := append(append([]int(nil), cl.store...), cl.cold...)
	for i := 0; i < smRepeatsPerClient; i++ {
		out[phaseMemory] = append(out[phaseMemory], smRequest{key: own[rng.IntN(len(own))], want: srcMemory})
	}
	return out
}

// machines returns the plan's keys as machines: each key's configuration
// with its golden cycles.
func (p *smPlan) machines(keys []int) []machine {
	out := make([]machine, len(keys))
	for i, k := range keys {
		out[i] = machine{ID: p.keys[k].m.ID, Cfg: p.keys[k].cfg, Cycles: p.keys[k].m.Cycles}
	}
	return out
}

// populateStore simulates every client's store keys in-process and writes
// them to a run store at dir — the archive each round's daemon starts
// from.
func populateStore(ctx context.Context, e *env, r *result, dir string, p *smPlan) error {
	st, err := runstore.Open(dir, runstore.Options{})
	if err != nil {
		return err
	}
	var keys []int
	for _, c := range p.clients {
		keys = append(keys, c.store...)
	}
	archiveAll(ctx, e, r, st, p.machines(keys))
	if n := st.Len(); n != len(keys) {
		return fmt.Errorf("populated run store holds %d records, want %d", n, len(keys))
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// daemon is one pipesimd process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration // exec to the first /readyz 200
	exited chan struct{}
}

// startDaemon execs pipesimd over storeDir on a free loopback port and
// waits for /readyz. A port lost to a race is retried.
func startDaemon(ctx context.Context, e *env, storeDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
		d.cmd = exec.Command(e.daemon, "-addr", "127.0.0.1:"+port, "-store-dir", storeDir,
			"-parallel", strconv.Itoa(e.workers))
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.workers))
		start := time.Now()
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting pipesimd: %w", err)
		}
		go func() {
			d.cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.awaitReady(ctx, start); lastErr == nil {
			return d, nil
		}
		d.stop()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// awaitReady polls /readyz until it answers 200.
func (d *daemon) awaitReady(ctx context.Context, start time.Time) error {
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		select {
		case <-d.exited:
			return errors.New("pipesimd exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return nil
			}
		}
		if time.Since(start) > 30*time.Second {
			return errors.New("pipesimd not ready after 30s")
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if the
// drain takes too long.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// runReply is the part of a /v1/run response the benchmark checks.
type runReply struct {
	Source string `json:"source"`
	Result struct {
		Cycles       uint64
		Instructions uint64
	} `json:"result"`
}

// post sends one /v1/run request and decodes the reply.
func (d *daemon) post(ctx context.Context, client *http.Client, body []byte, id string) (*runReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var rep runReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: decoding reply: %w", id, err)
	}
	return &rep, nil
}

// get fetches a path and returns the body.
func (d *daemon) get(ctx context.Context, client *http.Client, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// scrapeCounters reads the daemon's run-cache and run-store counters from
// /metrics.
func (d *daemon) scrapeCounters(ctx context.Context, client *http.Client) (map[string]uint64, error) {
	body, err := d.get(ctx, client, "/metrics")
	if err != nil {
		return nil, err
	}
	want := map[string]string{
		"pipesimd_runcache_hits_total":   "runcache.hits",
		"pipesimd_runcache_misses_total": "runcache.misses",
		"pipesimd_runstore_hits_total":   "runstore.hits",
		"pipesimd_runstore_misses_total": "runstore.misses",
		"pipesimd_runstore_writes_total": "runstore.writes",
	}
	out := make(map[string]uint64, len(want))
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		if name, ok := want[f[0]]; ok {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", f[0], err)
			}
			out[name] = uint64(v)
		}
	}
	if len(out) != len(want) {
		return nil, fmt.Errorf("/metrics lacks run-cache/run-store counters (found %d of %d)", len(out), len(want))
	}
	return out, nil
}

// stageTimes are one traced request's daemon-side stage durations, read
// from its span tree (GET /v1/trace/{id}).
type stageTimes struct {
	decode, build, encode time.Duration // encode: root self time
	lookup                time.Duration
	outcome               string        // runcache.lookup outcome: hit, store-hit or miss
	write                 time.Duration // cold only: run − lookup − simulate
}

// traceStages fetches a request's trace, copies its spans into sp and
// extracts the stage times.
func (d *daemon) traceStages(ctx context.Context, client *http.Client, id string, sent time.Time, lane int, sp *spans) (stageTimes, error) {
	var st stageTimes
	var body []byte
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if body, err = d.get(ctx, client, "/v1/trace/"+id); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return st, err
	}
	var td struct {
		RootSpanID string `json:"root_span_id"`
		Start      string `json:"start"`
		Spans      []struct {
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_span_id"`
			Name     string `json:"name"`
			StartUS  int64  `json:"start_us"`
			DurUS    int64  `json:"duration_us"`
			Attrs    []struct {
				Key   string `json:"key"`
				Value string `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &td); err != nil {
		return st, fmt.Errorf("trace %s: %w", id, err)
	}
	t0, err := time.Parse(time.RFC3339Nano, td.Start)
	if err != nil {
		t0 = sent
	}
	fromUS := func(v int64) time.Duration { return time.Duration(v) * time.Microsecond }
	names := make(map[string]string, len(td.Spans))
	for _, s := range td.Spans {
		names[s.SpanID] = s.Name
	}
	var root, run, simulate time.Duration
	var children [][2]int64 // direct children of the root, µs
	for _, s := range td.Spans {
		args := make(map[string]string, len(s.Attrs))
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		sp.add(span{Name: s.Name, Start: t0.Add(fromUS(s.StartUS)), Dur: fromUS(s.DurUS), Lane: lane,
			Proc: "pipesimd", Parent: names[s.ParentID], Args: args})
		switch {
		case s.SpanID == td.RootSpanID:
			root = fromUS(s.DurUS)
		case s.Name == "decode":
			st.decode = fromUS(s.DurUS)
		case s.Name == "build":
			st.build = fromUS(s.DurUS)
		case s.Name == "run":
			run = fromUS(s.DurUS)
		case s.Name == "runcache.lookup":
			st.lookup, st.outcome = fromUS(s.DurUS), args["outcome"]
		case s.Name == "simulate":
			simulate = fromUS(s.DurUS)
		}
		if s.ParentID == td.RootSpanID {
			children = append(children, [2]int64{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	// The root's self time is the handler's own work after the run: the
	// response encode. Children may overlap (the run-cache spans hang off
	// the root beside the "run" span that contains them).
	st.encode = root - fromUS(covered(children))
	if st.outcome == "miss" {
		st.write = run - st.lookup - simulate
	}
	return st, nil
}

// roundStats is what one serve-mix round measured.
type roundStats struct {
	wall     time.Duration
	setup    time.Duration
	rssMiB   float64
	latency  map[string]samples // ms by expected source
	all      samples            // ms, every request
	simInstr uint64             // instructions of simulated replies
	counts   map[string]uint64  // daemon counters after the round
	stages   []stageTimes       // traced rounds only
	profile  string             // daemon CPU profile path, when taken
}

// serveRound runs one round: a fresh daemon over a pristine copy of the
// pre-populated store, e.workers closed-loop clients each sending its
// seeded sequence phase by phase, every reply checked for status, source, cycles and
// instruction count. Traced rounds also pull every request's trace and,
// with profileSecs > 0, a daemon CPU profile.
func serveRound(ctx context.Context, e *env, r *result, p *smPlan, pristine string, round int,
	sp *spans, profileSecs int) (*roundStats, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("round-%d", round))
	if err := copyDir(pristine, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	seqs := make([][numPhases][]smRequest, len(p.clients))
	for c := range seqs {
		seqs[c] = p.sequence(e.rng, c)
	}
	d, err := startDaemon(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	transport := &http.Transport{MaxIdleConnsPerHost: e.workers + 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	rs := &roundStats{setup: d.ready, latency: make(map[string]samples)}
	profDone := make(chan error, 1)
	if profileSecs > 0 {
		rs.profile = filepath.Join(e.out, fmt.Sprintf("%s-%d-pipesimd-round%d.pprof", e.workload, e.seed, round))
		go func() {
			body, err := d.get(ctx, client, "/debug/pprof/profile?seconds="+strconv.Itoa(profileSecs))
			if err == nil {
				err = os.WriteFile(rs.profile, body, 0o644)
			}
			profDone <- err
		}()
	}

	type clientOut struct {
		lat      []float64
		want     []string
		errs     []error
		simInstr uint64
		stages   []stageTimes
	}
	outs := make([]clientOut, len(p.clients))
	send := func(c, ph int) {
		o := &outs[c]
		for i, q := range seqs[c][ph] {
			k := p.keys[q.key]
			id := fmt.Sprintf("r%d-p%d-c%d-%d", round, ph, c, i)
			sent := time.Now()
			rep, err := d.post(ctx, client, k.body, id)
			lat := time.Since(sent)
			switch {
			case err != nil:
			case rep.Source != q.want:
				err = fmt.Errorf("%s %s: source %q, want %q", id, k.m.ID, rep.Source, q.want)
			default:
				err = checkCycles(k.m, rep.Result.Cycles, rep.Result.Instructions)
			}
			if err == nil && rep.Source == srcSimulated {
				o.simInstr += rep.Result.Instructions
			}
			o.lat = append(o.lat, ms2(lat))
			o.want = append(o.want, q.want)
			o.errs = append(o.errs, err)
			if sp != nil {
				sp.add(span{Name: "POST /v1/run", Start: sent, Dur: lat, Lane: c,
					Args: map[string]string{"id": id, "want": q.want}})
				st, err := d.traceStages(ctx, client, id, sent, c, sp)
				if err != nil {
					o.errs[len(o.errs)-1] = errors.Join(o.errs[len(o.errs)-1], err)
				}
				o.stages = append(o.stages, st)
			}
			if ctx.Err() != nil {
				return
			}
		}
	}
	start := time.Now()
	for ph := 0; ph < numPhases; ph++ {
		var wg sync.WaitGroup
		for c := range p.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				send(c, ph)
			}(c)
		}
		wg.Wait()
	}
	rs.wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, o := range outs {
		for i, lat := range o.lat {
			r.check(o.errs[i])
			rs.latency[o.want[i]] = append(rs.latency[o.want[i]], lat)
			rs.all = append(rs.all, lat)
		}
		rs.simInstr += o.simInstr
		rs.stages = append(rs.stages, o.stages...)
	}
	if profileSecs > 0 {
		if err := <-profDone; err != nil {
			return nil, fmt.Errorf("daemon profile: %w", err)
		}
	}
	if rs.counts, err = d.scrapeCounters(ctx, client); err != nil {
		return nil, err
	}
	if rs.rssMiB, err = peakRSSMiB(d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	r.npasses++
	return rs, nil
}

// expectedCounts is what the daemon's counters must read after one round:
// the sources are fixed by the plan, so the counts are exact.
func (p *smPlan) expectedCounts() map[string]uint64 {
	var store, cold uint64
	for _, c := range p.clients {
		store += uint64(len(c.store))
		cold += uint64(len(c.cold))
	}
	repeats := uint64(len(p.clients) * smRepeatsPerClient)
	return map[string]uint64{
		"runcache.hits":   repeats,
		"runcache.misses": store + cold,
		"runstore.hits":   store,
		"runstore.misses": cold,
		"runstore.writes": cold,
	}
}

// checkCounts fails the run when a round's daemon counters differ from
// the plan's exact expectation.
func checkCounts(r *result, p *smPlan, rs *roundStats) {
	for name, want := range p.expectedCounts() {
		if got := rs.counts[name]; got != want {
			r.fail(fmt.Errorf("daemon counter %s = %d after a round, want %d", name, got, want))
		}
	}
}

// runServeMix is the serve-mix workload: a pipesimd daemon on loopback
// with a run store, driven by e.workers closed-loop HTTP clients sending a
// seeded interleaving of store hits, fresh simulations and memory hits.
func runServeMix(ctx context.Context, e *env) (*result, error) {
	if e.daemon == "" {
		return nil, errors.New("serve-mix needs -pipesimd")
	}
	r := &result{}
	ms, err := e.golden.livermoreMachines()
	if err != nil {
		return nil, err
	}
	p, err := newPlan(ms, e.workers, e.rng)
	if err != nil {
		return nil, err
	}
	pristine, err := os.MkdirTemp(e.work, "pristine-")
	if err != nil {
		return nil, err
	}
	if err := populateStore(ctx, e, r, pristine, p); err != nil {
		return nil, err
	}
	var rounds, traced []*roundStats // untraced and traced rounds
	lat := func(src string) passes {
		var ps passes
		for _, rs := range rounds {
			ps = append(ps, rs.latency[src])
		}
		return ps
	}
	enough := func() bool {
		return len(lat(srcSimulated).flat()) >= minSamples(0.9) && len(lat(srcStore).flat()) >= minSamples(0.9) &&
			len(lat(srcMemory).flat()) >= minSamples(0.9)
	}
	// A traced run alternates untraced rounds with rounds that pull every
	// request's daemon trace, the first of them under a daemon CPU profile,
	// so host drift spreads over both kinds.
	var sp *spans
	if e.traced {
		sp = newSpans()
	}
	start := time.Now()
	for i := 0; len(rounds) == 0 || time.Since(start) < e.seconds || (!e.traced && !enough()) || (e.traced && len(traced) == 0); i++ {
		if e.traced && i%2 == 1 {
			profileSecs := 0
			if len(traced) == 0 {
				profileSecs = max(1, int(rounds[0].wall.Seconds()+0.5))
			}
			rs, err := serveRound(ctx, e, r, p, pristine, i, sp, profileSecs)
			if err != nil {
				return nil, err
			}
			checkCounts(r, p, rs)
			traced = append(traced, rs)
			continue
		}
		rs, err := serveRound(ctx, e, r, p, pristine, i, nil, 0)
		if err != nil {
			return nil, err
		}
		checkCounts(r, p, rs)
		rounds = append(rounds, rs)
	}
	var setup, rss, walls, rate, reqRate samples
	var all passes
	for _, rs := range rounds {
		setup = append(setup, rs.setup.Seconds())
		rss = append(rss, rs.rssMiB)
		walls = append(walls, rs.wall.Seconds())
		rate = append(rate, float64(rs.simInstr)/rs.wall.Seconds()/1e6)
		reqRate = append(reqRate, float64(len(rs.all))/rs.wall.Seconds())
		all = append(all, rs.all)
	}
	exact := rounds[0].counts
	for _, name := range sortedKeys(exact) {
		r.counters = append(r.counters, counter{"round." + name, exact[name]})
	}
	if !e.traced {
		r.addMedian("setup_s", "s", setup)
		r.addMedian("peak_rss_mb", "MiB", rss)
		r.addMedian("sim_minstr_per_s", "Minstr/s", rate)
		r.addPercentile("run_ms_p50", "ms", all, 0.5)
		r.addPercentile("run_ms_p90", "ms", all, 0.9)
		r.addMedian("catalog_s", "s", walls)
		r.addMedian("req_per_s", "1/s", reqRate)
		r.addPercentile("cold_ms_p50", "ms", lat(srcSimulated), 0.5)
		r.addPercentile("cold_ms_p90", "ms", lat(srcSimulated), 0.9)
		r.addPercentile("memory_ms_p50", "ms", lat(srcMemory), 0.5)
		r.addPercentile("memory_ms_p90", "ms", lat(srcMemory), 0.9)
		r.addPercentile("store_ms_p50", "ms", lat(srcStore), 0.5)
		r.addPercentile("store_ms_p90", "ms", lat(srcStore), 0.9)
		return r, nil
	}

	// Traced: the stage times of the traced rounds, then a replay of the
	// cold machines through core.New + Simulator.Run for the
	// simulator-layer counters.
	shares, err := foldProfile(ctx, e.work, traced[0].profile)
	if err != nil {
		return nil, err
	}
	var build, decode, encode, read, write samples
	lookups := map[string]samples{}
	incomplete, requests := 0, 0
	for _, rs := range traced {
		for _, st := range rs.stages {
			requests++
			build = append(build, us(st.build))
			decode = append(decode, us(st.decode))
			encode = append(encode, us(st.encode))
			if st.outcome == "" {
				incomplete++ // the daemon's trace held no runcache.lookup span
				continue
			}
			lookups[st.outcome] = append(lookups[st.outcome], us(st.lookup))
			switch st.outcome {
			case "store-hit":
				read = append(read, us(st.lookup))
			case "miss":
				write = append(write, us(st.write)/1e3)
			}
		}
	}
	var coldKeys []int
	for _, c := range p.clients {
		coldKeys = append(coldKeys, c.cold...)
	}
	coldMachines := p.machines(coldKeys)
	cold, err := coreConfigs(ctx, e, r, coldMachines)
	if err != nil {
		return nil, err
	}
	img, err := sweep.BenchmarkImage()
	if err != nil {
		return nil, err
	}
	w, newUS, runMS, runNS, err := replayAll(e, cold, img, sp)
	if err != nil {
		return nil, err
	}
	var want uint64
	for _, m := range coldMachines {
		want += m.Cycles
	}
	if w.Cycles != want {
		r.fail(fmt.Errorf("replayed cold machines: %d cycles, golden %d", w.Cycles, want))
	}
	var programMS samples
	for i := 0; i < minSetups; i++ {
		var perr error
		d := sp.time("pipesim.LivermoreProgram", 0, func() { _, _, perr = pipesim.LivermoreProgram() })
		if perr != nil {
			return nil, perr
		}
		programMS = append(programMS, ms2(d))
	}
	var tracedWalls samples
	for _, rs := range traced {
		tracedWalls = append(tracedWalls, rs.wall.Seconds())
	}
	l := newLayerMetrics()
	l.median("core.new_us", newUS)
	l.median("core.run_ms", runMS)
	l.work(w, runNS)
	l.shares(shares)
	l.median("kernels.program_ms", programMS)
	l.median("pipesimd.build_us_p50", build)
	l.median("pipesimd.decode_us_p50", decode)
	l.median("pipesimd.encode_us_p50", encode)
	l.median("runcache.lookup_us_p50.hit", lookups["hit"])
	l.median("runcache.lookup_us_p50.store_hit", lookups["store-hit"])
	l.median("runcache.lookup_us_p50.miss", lookups["miss"])
	l.median("runstore.read_us_p50", read)
	l.median("runstore.write_ms_p50", write)
	for _, name := range []string{"runcache.hits", "runcache.misses", "runstore.hits", "runstore.writes"} {
		l.count(name, traced[0].counts[name])
	}
	l.ratio("trace.overhead_ratio", tracedWalls.median(), walls.median())
	l.into(r)
	r.counters = append(r.counters, w.counters("replay.cold.")...)
	if incomplete > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%d of %d daemon traces held no runcache.lookup span; left out of the lookup and run-store timings",
			incomplete, requests))
	}
	r.notes = append(r.notes, fmt.Sprintf("tracing overhead: traced round median %.3f s (%d rounds) vs untraced %.3f s (%d rounds), alternating",
		tracedWalls.median(), len(traced), walls.median(), len(rounds)))
	return r, writeSpans(e, r, sp)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
