package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	if got := tc.TraceID.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace ID = %s", got)
	}
	if got := tc.SpanID.String(); got != "00f067aa0ba902b7" {
		t.Errorf("span ID = %s", got)
	}
	if !tc.Sampled {
		t.Error("sampled flag lost")
	}

	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted invalid traceparent %q", h)
		}
	}
	// Future versions may carry trailing fields.
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future"); !ok {
		t.Error("rejected a forward-compatible future-version header")
	}
}

func TestTraceLifecycle(t *testing.T) {
	tr := New(4)
	ctx, root := tr.StartTrace(context.Background(), "POST /v1/run", "req-1", TraceContext{})
	if SpanFrom(ctx) != root {
		t.Fatal("context does not carry the root span")
	}
	_, child := StartSpan(ctx, "run")
	child.SetAttr("cycles", "123")
	child.End()
	root.End()

	td, ok := tr.Get("req-1")
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if td.Schema != Schema || td.RequestID != "req-1" || td.RemoteParent {
		t.Errorf("trace header wrong: %+v", td)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(td.Spans))
	}
	var rootData, childData *SpanData
	for i := range td.Spans {
		if td.Spans[i].SpanID == td.RootSpanID {
			rootData = &td.Spans[i]
		} else {
			childData = &td.Spans[i]
		}
	}
	if rootData == nil || childData == nil {
		t.Fatalf("root/child not distinguishable: %+v", td.Spans)
	}
	if childData.ParentID != rootData.SpanID {
		t.Errorf("child parent = %s, want the root %s", childData.ParentID, rootData.SpanID)
	}
	// Durations must be consistent: the child is contained in the root, and
	// the trace's duration is the root's.
	if childData.StartUS < rootData.StartUS || childData.DurUS > rootData.DurUS {
		t.Errorf("child span not contained in root: child %d+%dus, root %d+%dus",
			childData.StartUS, childData.DurUS, rootData.StartUS, rootData.DurUS)
	}
	if td.DurUS != rootData.DurUS {
		t.Errorf("trace duration %dus != root span %dus", td.DurUS, rootData.DurUS)
	}
	if len(childData.Attrs) != 1 || childData.Attrs[0].Key != "cycles" {
		t.Errorf("child attrs lost: %+v", childData.Attrs)
	}
}

func TestRemoteParentJoinsCallerTrace(t *testing.T) {
	parent, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	tr := New(4)
	_, root := tr.StartTrace(context.Background(), "req", "req-2", parent)
	if root.TraceID() != parent.TraceID {
		t.Errorf("trace did not join the caller's trace ID")
	}
	root.End()
	td, _ := tr.Get("req-2")
	if !td.RemoteParent {
		t.Error("remote_parent not flagged")
	}
	if td.Spans[0].ParentID != parent.SpanID.String() {
		t.Errorf("root parent = %s, want the caller's span %s", td.Spans[0].ParentID, parent.SpanID)
	}
}

func TestNoopSpansOnUntracedContext(t *testing.T) {
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "anything")
	if span != nil {
		t.Fatal("untraced StartSpan must return the nil no-op span")
	}
	if ctx2 != ctx {
		t.Error("untraced StartSpan must not grow the context")
	}
	// All nil-span methods must be safe no-ops.
	span.SetAttr("k", "v")
	span.End()
	if span.Name() != "" || span.Duration() != 0 || !span.TraceID().IsZero() {
		t.Error("nil span must read as zero values")
	}
}

func TestTracerLRUEviction(t *testing.T) {
	tr := New(2)
	for i := 0; i < 3; i++ {
		_, root := tr.StartTrace(context.Background(), "req", fmt.Sprintf("req-%d", i), TraceContext{})
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("retained %d traces, want the capacity 2", tr.Len())
	}
	if _, ok := tr.Get("req-0"); ok {
		t.Error("oldest trace not evicted")
	}
	for _, id := range []string{"req-1", "req-2"} {
		if _, ok := tr.Get(id); !ok {
			t.Errorf("trace %s evicted early", id)
		}
	}
	// A repeated request ID replaces, not duplicates.
	_, root := tr.StartTrace(context.Background(), "req", "req-2", TraceContext{})
	root.End()
	if tr.Len() != 2 {
		t.Errorf("repeat request ID grew the LRU to %d", tr.Len())
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(1)
	ctx, root := tr.StartTrace(context.Background(), "req", "req-big", TraceContext{})
	for i := 0; i < MaxSpansPerTrace+10; i++ {
		_, s := StartSpan(ctx, "stage")
		s.End()
	}
	root.End()
	td, _ := tr.Get("req-big")
	if len(td.Spans) != MaxSpansPerTrace {
		t.Errorf("exported %d spans, want the cap %d", len(td.Spans), MaxSpansPerTrace)
	}
	// The root ended after the cap was hit, so it is among the dropped.
	if td.DroppedSpans != 11 {
		t.Errorf("dropped %d spans, want 11", td.DroppedSpans)
	}
}

func TestOnSpanEndHook(t *testing.T) {
	tr := New(1)
	var names []string
	tr.OnSpanEnd(func(s *Span) { names = append(names, s.Name()) })
	ctx, root := tr.StartTrace(context.Background(), "req", "req-h", TraceContext{})
	_, s := StartSpan(ctx, "stage")
	s.End()
	s.End() // second End must not re-fire
	root.End()
	if len(names) != 2 || names[0] != "stage" || names[1] != "req" {
		t.Errorf("hook saw %v, want [stage req]", names)
	}
	if s.Duration() <= 0 {
		t.Error("ended span has no duration")
	}
}

func TestWriteChromeAndBreakdown(t *testing.T) {
	tr := New(1)
	ctx, root := tr.StartTrace(context.Background(), "req", "req-c", TraceContext{})
	_, a := StartSpan(ctx, "decode")
	a.End()
	_, b := StartSpan(ctx, "run")
	time.Sleep(2 * time.Millisecond)
	b.End()
	root.End()
	td, _ := tr.Get("req-c")

	var buf bytes.Buffer
	if err := td.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not Chrome-trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Errorf("chrome export has %d events, want 3", len(doc.TraceEvents))
	}

	breakdown := td.SpanBreakdown()
	if !strings.Contains(breakdown, "run=") || !strings.Contains(breakdown, "decode=") {
		t.Errorf("breakdown missing stages: %q", breakdown)
	}
	if strings.Contains(breakdown, "req=") {
		t.Errorf("breakdown includes the root span: %q", breakdown)
	}
	if !strings.HasPrefix(breakdown, "run=") {
		t.Errorf("breakdown not longest-first: %q", breakdown)
	}

	buf.Reset()
	if err := td.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back TraceData
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("native JSON does not round-trip: %v", err)
	}
	if back.TraceID != td.TraceID || len(back.Spans) != 3 {
		t.Errorf("round-trip lost data: %+v", back)
	}
}

func TestNilTracerGet(t *testing.T) {
	var tr *Tracer
	if _, ok := tr.Get("x"); ok {
		t.Error("nil tracer returned a trace")
	}
	if tr.Len() != 0 {
		t.Error("nil tracer has nonzero length")
	}
}

// TestRandomIDsDistinct: every byte of a drawn ID carries randomness, so
// 10,000 span IDs and 10,000 trace IDs are all distinct.
func TestRandomIDsDistinct(t *testing.T) {
	const n = 10000
	spans := make(map[SpanID]bool, n)
	traces := make(map[TraceID]bool, n)
	for range n {
		spans[randomSpanID()] = true
		traces[randomTraceID()] = true
	}
	if len(spans) != n || len(traces) != n {
		t.Errorf("distinct IDs: %d span, %d trace; want %d of each", len(spans), len(traces), n)
	}
}
