package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestFlightRecorderRetainsMostRecent(t *testing.T) {
	r := NewFlightRecorder(4)
	if len(r.buf) != 4 {
		t.Fatalf("depth = %d, want 4", len(r.buf))
	}
	for i := 0; i < 10; i++ {
		r.Event(Event{Kind: KindRetire, Cycle: uint64(i), Addr: uint32(i)})
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("Events retained %d, want 4", len(ev))
	}
	// Oldest first: the ring must hold exactly the last four records.
	for i, e := range ev {
		if want := uint64(6 + i); e.Cycle != want {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	clock := uint64(7)
	r := NewFlightRecorder(8)
	p := &Stamper{Clock: &clock, Target: r}
	p.Event(Event{Kind: KindCacheMiss, Addr: 0x40})
	p.Event(Event{Kind: KindCacheHit, Addr: 0x44})
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("Events retained %d, want 2", len(ev))
	}
	if ev[0].Kind != KindCacheMiss || ev[1].Kind != KindCacheHit {
		t.Errorf("order wrong: %v then %v", ev[0].Kind, ev[1].Kind)
	}
	if ev[0].Cycle != 7 {
		t.Errorf("cycle stamp = %d, want the clock value 7", ev[0].Cycle)
	}
}

// TestFlightRecorderDropsPerCycleKinds checks that, restricted as the
// post-mortem restricts it, the recorder gives the two per-cycle-rate kinds
// no ring slots and does not count them as retained.
func TestFlightRecorderDropsPerCycleKinds(t *testing.T) {
	r := NewFlightRecorder(4)
	p := Only(AllKinds&^PerCycleKinds, r)
	for kind := Kind(0); kind < numKinds; kind++ {
		p.Event(Event{Kind: kind, Cycle: 1})
		p.Event(Event{Kind: KindRetire, Cycle: 2})
		p.Event(Event{Kind: kind, Cycle: 3})
	}
	if want := uint64(3*numKinds - 4); r.Total() != want {
		t.Errorf("Total = %d, want %d", r.Total(), want)
	}
	for _, e := range r.Events() {
		if e.Kind == KindCycle || e.Kind == KindQueueDepth {
			t.Errorf("retained a per-cycle event: %v", e)
		}
	}
}

func TestFlightRecorderDepthRounding(t *testing.T) {
	if d := len(NewFlightRecorder(5).buf); d != 8 {
		t.Errorf("depth 5 rounded to %d, want 8", d)
	}
	if d := len(NewFlightRecorder(0).buf); d != DefaultFlightRecDepth {
		t.Errorf("depth 0 = %d, want the default %d", d, DefaultFlightRecDepth)
	}
}

func TestNilFlightRecorderReads(t *testing.T) {
	var r *FlightRecorder
	if r.Events() != nil || r.Total() != 0 {
		t.Error("nil recorder read-side methods must be zero-valued no-ops")
	}
}

func TestEventStringFormats(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindRetire, Cycle: 12, Addr: 0x40}, "[12] retire pc=0x00040"},
		{Event{Kind: KindCacheMiss, Cycle: 3, Addr: 0x100}, "[3] cache-miss addr=0x00100"},
		{Event{Kind: KindBusBusy, Cycle: 9, Addr: 0x80, Value: 2}, "[9] bus-busy addr=0x00080 words=2"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestRecordsJSONRendering(t *testing.T) {
	events := []Event{
		{Kind: KindRetire, Cycle: 5, Addr: 0x44},
		{Kind: KindBusBusy, Cycle: 6, Addr: 0x80, Value: 4},
	}
	recs := Records(events)
	if len(recs) != 2 {
		t.Fatalf("Records = %d entries", len(recs))
	}
	if recs[0].Kind != "retire" || recs[0].Addr != "0x00044" {
		t.Errorf("retire record = %+v", recs[0])
	}
	if recs[1].Value != 4 {
		t.Errorf("bus-busy record lost the word count: %+v", recs[1])
	}
	if Records(nil) != nil {
		t.Error("Records(nil) must be nil for omitempty")
	}
	if _, err := json.Marshal(recs); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestWriteFlightTraceIsChromeJSON(t *testing.T) {
	events := []Event{
		{Kind: KindFetchIssue, Cycle: 1, Addr: 0x40},
		{Kind: KindCacheMiss, Cycle: 1, Addr: 0x40},
		{Kind: KindMemAccept, Cycle: 2, Addr: 0x40},
		{Kind: KindFetchComplete, Cycle: 8, Addr: 0x40},
		{Kind: KindRetire, Cycle: 9, Addr: 0x40},
	}
	var buf bytes.Buffer
	if err := WriteFlightTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid Chrome-trace JSON: %v\n%s", err, buf.String())
	}
	// The replay must render the post-mortem-only kinds (cache miss, memory
	// accept, retire) that the live timeline does not emit as instants.
	for _, want := range []string{"cache-miss", "mem-accept", "retire"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("flight trace missing %q events:\n%s", want, buf.String())
		}
	}
}
