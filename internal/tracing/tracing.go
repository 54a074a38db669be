// Package tracing is a dependency-free request-scoped span tracer, in the
// Dapper / OpenTelemetry mold but scaled to this repository's needs: a
// pipesimd request becomes one trace; the stages it passes through —
// decode, validation, simulation run, runcache lookup, each sweep
// experiment — become spans with monotonic-clock durations and
// parent/child links. Completed traces are kept in a bounded LRU keyed by
// request ID and exported as JSON (GET /v1/trace/{id}) or Chrome-trace
// format, and a per-span completion hook feeds stage-latency histograms in
// internal/metrics.
//
// Propagation is context-based and nil-safe: StartSpan on a context with
// no tracer returns a no-op span, so library code (sweep, runcache) can be
// instrumented unconditionally without the daemon attached — the cost is
// one context value lookup per instrumented call, nothing per simulated
// cycle. Inbound W3C traceparent headers are honored: a request carrying
// one joins the caller's trace ID, so pipesim spans line up under the
// caller's distributed trace.
package tracing

import (
	"container/list"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schema tags exported traces, bumped when the JSON layout changes.
const Schema = "pipesim-trace/v1"

// MaxSpansPerTrace caps one trace's span count: a runaway sweep cannot
// balloon a trace past ~512 spans; further spans still run (and fire the
// OnSpanEnd hook) but are dropped from the export, counted in
// TraceData.DroppedSpans.
const MaxSpansPerTrace = 512

// DefaultTraceCapacity bounds the completed-trace LRU of a tracer built
// with New. At ~100 bytes a span and a few dozen spans per trace, the
// default keeps memory flat regardless of traffic.
const DefaultTraceCapacity = 256

// TraceID and SpanID are W3C Trace Context identifiers.
type TraceID [16]byte

// SpanID is the 8-byte span identifier.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports the invalid all-zeros ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports the invalid all-zeros ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// TraceContext is the inbound propagation state parsed from a W3C
// traceparent header: the caller's trace ID and the caller span the
// request's root span becomes a child of.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"). It accepts any version byte except ff,
// per the spec's forward-compatibility rule, and rejects all-zero IDs.
func ParseTraceparent(h string) (TraceContext, bool) {
	var tc TraceContext
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tc, false
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(h[0:2])); err != nil || version[0] == 0xff {
		return tc, false
	}
	if version[0] == 0 && len(h) != 55 {
		return tc, false // version 00 has no trailing fields
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(h[3:35])); err != nil {
		return tc, false
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(h[36:52])); err != nil {
		return tc, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return tc, false
	}
	if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
		return tc, false
	}
	tc.Sampled = flags[0]&1 != 0
	return tc, true
}

// Attr is one key/value annotation on a span. Values are strings: span
// attributes are for humans reading a trace, not for metric math.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Tracer creates traces and retains completed ones in a bounded LRU keyed
// by request ID. Safe for concurrent use.
type Tracer struct {
	capacity int
	onEnd    atomic.Value // func(*Span)

	mu    sync.Mutex
	ll    *list.List               // front = most recently completed; values are *TraceData
	items map[string]*list.Element // by request ID
}

// New returns a tracer retaining up to capacity completed traces
// (capacity <= 0 selects DefaultTraceCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// OnSpanEnd installs a hook called synchronously whenever any span of this
// tracer ends — the bridge to stage-latency metrics. The hook must be safe
// for concurrent use; nil removes it.
func (t *Tracer) OnSpanEnd(fn func(*Span)) { t.onEnd.Store(fn) }

// StartTrace begins a new trace rooted at a span named name, keyed by
// requestID. A non-zero parent (from ParseTraceparent) joins the caller's
// trace: the trace keeps the caller's trace ID and the root span links to
// the caller's span. The returned context carries the root span for
// StartSpan callees.
func (t *Tracer) StartTrace(ctx context.Context, name, requestID string, parent TraceContext) (context.Context, *Span) {
	tr := &liveTrace{tracer: t, requestID: requestID, start: time.Now()}
	if parent.TraceID.IsZero() {
		tr.id = randomTraceID()
	} else {
		tr.id = parent.TraceID
		tr.remote = true
	}
	root := &Span{tr: tr, id: randomSpanID(), parent: parent.SpanID, name: name, start: tr.start}
	tr.root = root
	return WithSpan(ctx, root), root
}

// Get returns the completed trace for requestID, marking it most recently
// used. Nil-safe: a nil tracer never has traces.
func (t *Tracer) Get(requestID string) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[requestID]
	if !ok {
		return nil, false
	}
	t.ll.MoveToFront(el)
	return el.Value.(*TraceData), true
}

// Len returns how many completed traces are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// keep inserts a finalized trace, evicting the least recently used beyond
// capacity. A repeated request ID replaces the previous trace.
func (t *Tracer) keep(d *TraceData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[d.RequestID]; ok {
		el.Value = d
		t.ll.MoveToFront(el)
		return
	}
	if t.ll.Len() >= t.capacity {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.items, oldest.Value.(*TraceData).RequestID)
	}
	t.items[d.RequestID] = t.ll.PushFront(d)
}

// liveTrace accumulates one in-flight trace.
type liveTrace struct {
	tracer    *Tracer
	id        TraceID
	requestID string
	start     time.Time
	remote    bool // trace ID inherited from an inbound traceparent

	root *Span // set by StartTrace before any use

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

// Span is one timed operation within a trace. End it exactly once; all
// methods are safe on a nil span (the no-op span StartSpan returns when no
// tracer is attached), so instrumented code needs no conditionals.
type Span struct {
	tr     *liveTrace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	dur   time.Duration
	ended bool
}

// Name returns the span's operation name ("" on the no-op span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's monotonic duration, valid after End.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// TraceID returns the containing trace's ID (zero on the no-op span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// SetAttr annotates the span. Safe at any point before or after End (late
// attributes on the root span still export: finalization snapshots happen
// at End, so prefer setting attributes before ending).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End stops the span's clock (monotonic, via time.Since), fires the
// tracer's OnSpanEnd hook, and records the span into its trace. Ending the
// root span finalizes the trace into the tracer's LRU. Second and later
// calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	data := SpanData{
		SpanID:  s.id.String(),
		Name:    s.name,
		StartUS: s.start.Sub(s.tr.start).Microseconds(),
		DurUS:   s.dur.Microseconds(),
		Attrs:   append([]Attr(nil), s.attrs...),
	}
	s.mu.Unlock()
	if !s.parent.IsZero() {
		data.ParentID = s.parent.String()
	}

	tr := s.tr
	tr.mu.Lock()
	if len(tr.spans) < MaxSpansPerTrace {
		tr.spans = append(tr.spans, data)
	} else {
		tr.dropped++
	}
	tr.mu.Unlock()

	if fn, _ := tr.tracer.onEnd.Load().(func(*Span)); fn != nil {
		fn(s)
	}
	if s == tr.root {
		tr.finalize()
	}
}

// finalize freezes the accumulated spans into a TraceData and hands it to
// the tracer's LRU. Called once, from the root span's End.
func (tr *liveTrace) finalize() {
	tr.mu.Lock()
	d := &TraceData{
		Schema:       Schema,
		TraceID:      tr.id.String(),
		RootSpanID:   tr.root.id.String(),
		RequestID:    tr.requestID,
		RemoteParent: tr.remote,
		Start:        tr.start.UTC().Format(time.RFC3339Nano),
		DurUS:        tr.root.Duration().Microseconds(),
		Spans:        tr.spans,
		DroppedSpans: tr.dropped,
	}
	tr.spans = nil
	tr.mu.Unlock()
	tr.tracer.keep(d)
}

// SpanData is the exported form of one completed span. Start offsets are
// microseconds from the trace's start, durations are monotonic
// microseconds — the two sum consistently with the trace's DurUS.
type SpanData struct {
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	DurUS    int64  `json:"duration_us"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// TraceData is one completed trace as served by GET /v1/trace/{id}.
type TraceData struct {
	Schema       string     `json:"schema"`
	TraceID      string     `json:"trace_id"`
	RootSpanID   string     `json:"root_span_id"`
	RequestID    string     `json:"request_id"`
	RemoteParent bool       `json:"remote_parent,omitempty"`
	Start        string     `json:"start"`
	DurUS        int64      `json:"duration_us"`
	Spans        []SpanData `json:"spans"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
}

// WriteJSON writes the trace in its native (OTLP-style) JSON form.
func (d *TraceData) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// chromeSpan mirrors the Chrome trace event format's complete ("X") event.
type chromeSpan struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes the trace as Chrome-trace JSON (chrome://tracing /
// Perfetto): each span a complete event at its start offset. All spans
// share one thread row; the UI nests them by time containment, which
// matches the parent/child structure for synchronous stage spans.
func (d *TraceData) WriteChrome(w io.Writer) error {
	events := make([]chromeSpan, 0, len(d.Spans)+1)
	for _, s := range d.Spans {
		dur := s.DurUS
		if dur <= 0 {
			dur = 1
		}
		args := map[string]string{"span_id": s.SpanID}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeSpan{
			Name: s.Name, Ph: "X", Ts: s.StartUS, Dur: dur, Pid: 1, Tid: 1, Args: args,
		})
	}
	out := struct {
		TraceEvents     []chromeSpan `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ms"}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SpanBreakdown summarizes a trace's non-root spans as "name=duration"
// terms, longest first — the payload of pipesimd's slow-request log line.
func (d *TraceData) SpanBreakdown() string {
	type term struct {
		name string
		dur  int64
	}
	terms := make([]term, 0, len(d.Spans))
	for _, s := range d.Spans {
		if s.SpanID == d.RootSpanID {
			continue
		}
		terms = append(terms, term{s.Name, s.DurUS})
	}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].dur > terms[j].dur })
	var sb []byte
	for i, t := range terms {
		if i > 0 {
			sb = append(sb, ' ')
		}
		sb = fmt.Appendf(sb, "%s=%s", t.name, time.Duration(t.dur)*time.Microsecond)
	}
	return string(sb)
}

// randomTraceID and randomSpanID draw non-zero identifiers from the
// process-wide PRNG; math/rand/v2's global generator is seeded per process
// and safe for concurrent use, and trace IDs need uniqueness, not secrecy.
func randomTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		put64(id[0:8], rand.Uint64())
		put64(id[8:16], rand.Uint64())
	}
	return id
}

func randomSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		put64(id[:], rand.Uint64())
	}
	return id
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> uint(56-8*i))
	}
}
