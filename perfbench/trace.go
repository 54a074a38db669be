package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer (or copied from the daemon's own trace of a request).
type span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Lane   int    // Chrome-trace thread: worker or client index
	Proc   string // "perfbench" or "pipesimd"
	Parent string // name of the enclosing span, "" at the root
	Args   map[string]string
}

// spans keeps every span in memory until the benchmark ends; a nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	items []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished span.
func (s *spans) add(sp span) {
	if s == nil {
		return
	}
	if sp.Proc == "" {
		sp.Proc = "perfbench"
	}
	s.mu.Lock()
	s.items = append(s.items, sp)
	s.mu.Unlock()
}

// time runs f inside a span named name and returns f's duration; with a
// nil recorder it only measures.
func (s *spans) time(name string, lane int, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	s.add(span{Name: name, Start: start, Dur: d, Lane: lane})
	return d
}

// durations returns the durations of every span with the given name, in
// µs.
func (s *spans) durations(name string) samples {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out samples
	for _, sp := range s.items {
		if sp.Name == name {
			out = append(out, float64(sp.Dur.Nanoseconds())/1e3)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto).
func (s *spans) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	pids := map[string]int{"perfbench": 1, "pipesimd": 2}
	s.mu.Lock()
	events := make([]event, 0, len(s.items))
	for _, sp := range s.items {
		args := sp.Args
		if sp.Parent != "" {
			args = make(map[string]string, len(sp.Args)+1)
			for k, v := range sp.Args {
				args[k] = v
			}
			args["parent"] = sp.Parent
		}
		events = append(events, event{
			Name: sp.Name, Ph: "X",
			Ts:  float64(sp.Start.Sub(s.t0).Nanoseconds()) / 1e3,
			Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid: pids[sp.Proc], Tid: sp.Lane, Args: args,
		})
	}
	s.mu.Unlock()
	raw, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// covered is the total length of the union of intervals, given as
// [start, end) pairs: the part of a parent span its children cover, when
// children may overlap.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	first := true
	for _, x := range iv {
		switch {
		case first || x[0] >= end:
			total += x[1] - x[0]
			end, first = x[1], false
		case x[1] > end:
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// profileBuckets are the per-package CPU-profile shares reported as
// prof.<bucket>.share: the simulator's layers, the serving stack's codecs
// and transport, the Go runtime, and everything else.
var profileBuckets = []string{
	"core", "cpu", "fetch", "cache", "mem", "obs", "kernels", "program",
	"runcache", "runstore", "net", "json", "runtime", "other",
}

// bucketOf maps a fully qualified function name from a profile to its
// share bucket. The package path is everything before the first "." that
// follows the last "/" of the name proper (type arguments of generic
// functions may contain paths of their own). Assembly routines without a
// package belong to the runtime.
func bucketOf(fn string) string {
	name := fn
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	dot := strings.Index(name[strings.LastIndex(name, "/")+1:], ".")
	if dot < 0 {
		return "runtime"
	}
	pkg := name[:strings.LastIndex(name, "/")+1+dot]
	if rest, ok := strings.CutPrefix(pkg, "pipesim/internal/"); ok {
		switch rest {
		case "core", "cpu", "fetch", "cache", "mem", "obs", "kernels", "program", "runcache", "runstore":
			return rest
		case "queue": // the CPU's architectural data queues
			return "cpu"
		case "trace": // the retirement ring, an always-on observer
			return "obs"
		case "isa", "asm":
			return "program"
		}
		return "other"
	}
	switch {
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" || pkg == "crypto/tls":
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "syscall" || pkg == "sync" || pkg == "sync/atomic" || pkg == "internal/poll":
		return "runtime"
	}
	return "other"
}

// foldProfile merges CPU profiles and folds them into per-bucket shares of
// the flat (self) sample time, using the toolchain's pprof
// (`go tool pprof -top`).
func foldProfile(ctx context.Context, tmpDir string, paths ...string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, paths...)
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", filepath.Base(paths[0]), err, strings.TrimSpace(errb.String()))
	}
	return parsePprofTop(out.String())
}

// parsePprofTop sums the flat% column of `pprof -top` output by bucket.
// The shares are fractions of the profile's total sample time.
func parsePprofTop(text string) (map[string]float64, error) {
	shares := make(map[string]float64, len(profileBuckets))
	for _, b := range profileBuckets {
		shares[b] = 0
	}
	header := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			header = true
			continue
		}
		if !header || len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat%% in %q", sc.Text())
		}
		shares[bucketOf(f[5])] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no sample table in output")
	}
	return shares, nil
}
