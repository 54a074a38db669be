package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"pipesim/internal/stats"
)

type record struct {
	events []Event
}

func (r *record) Event(e Event) { r.events = append(r.events, e) }

func TestStamperFillsCycle(t *testing.T) {
	var clock uint64
	rec := &record{}
	s := &Stamper{Clock: &clock, Target: rec}
	clock = 7
	s.Event(Event{Kind: KindRetire, Addr: 0x100})
	clock = 9
	s.Event(Event{Kind: KindRetire, Addr: 0x104, Cycle: 999}) // emitter-set cycles are overwritten
	if len(rec.events) != 2 {
		t.Fatalf("forwarded %d events, want 2", len(rec.events))
	}
	if rec.events[0].Cycle != 7 || rec.events[1].Cycle != 9 {
		t.Errorf("stamped cycles %d, %d; want 7, 9", rec.events[0].Cycle, rec.events[1].Cycle)
	}
	if rec.events[0].Addr != 0x100 {
		t.Errorf("payload not preserved: Addr = %#x", rec.events[0].Addr)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &record{}, &record{}
	m := Multi{a, b}
	m.Event(Event{Kind: KindCacheHit})
	m.Event(Event{Kind: KindCacheMiss})
	if len(a.events) != 2 || len(b.events) != 2 {
		t.Errorf("probes received %d and %d events, want 2 each", len(a.events), len(b.events))
	}
}

func TestCounter(t *testing.T) {
	c := &Counter{}
	for i := 0; i < 3; i++ {
		c.Event(Event{Kind: KindCycle, Arg: uint32(stats.CycleIssue)})
	}
	c.Event(Event{Kind: KindCacheMiss})
	if c.Counts[KindCycle] != 3 {
		t.Errorf("cycle count = %d, want 3", c.Counts[KindCycle])
	}
	if c.Counts[KindCacheMiss] != 1 || c.Counts[KindCacheHit] != 0 {
		t.Errorf("counts = %v", c.Counts)
	}
}

func TestKindAndQueueNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "kind(?)" || k.String() == "" {
			t.Errorf("Kind %d has no name", k)
		}
	}
	if got := Kind(200).String(); got != "kind(?)" {
		t.Errorf("out-of-range kind name = %q", got)
	}
	for q := Queue(0); q < NumQueues; q++ {
		if q.String() == "queue(?)" || q.String() == "" {
			t.Errorf("Queue %d has no name", q)
		}
	}
	if got := Queue(200).String(); got != "queue(?)" {
		t.Errorf("out-of-range queue name = %q", got)
	}
}

// TestPerLoopAttribution drives the collector with a synthetic stream:
// two loops with an outside region between them, checking every event
// lands on the loop that was current when it happened.
func TestPerLoopAttribution(t *testing.T) {
	ranges := []LoopRange{
		{Loop: 1, Name: "hydro", Start: 0x100, End: 0x200},
		{Loop: 2, Name: "iccg", Start: 0x200, End: 0x300},
	}
	p := NewPerLoop(ranges)

	cycle := func(bucket stats.CycleBucket) Event {
		return Event{Kind: KindCycle, Arg: uint32(bucket)}
	}
	stream := []Event{
		cycle(stats.CycleOther), // prologue: outside
		{Kind: KindLoopEnter, Arg: 1},
		{Kind: KindRetire, Addr: 0x100},
		cycle(stats.CycleIssue),
		{Kind: KindCacheMiss, Addr: 0x120},
		cycle(stats.CycleFetchStarved),
		{Kind: KindBusBusy, Value: 4},
		{Kind: KindRetire, Addr: 0x104},
		{Kind: KindLoopExit, Arg: 1},
		cycle(stats.CycleDrain), // between loops: outside
		{Kind: KindLoopEnter, Arg: 2},
		{Kind: KindRetire, Addr: 0x200},
		cycle(stats.CycleIssue),
		{Kind: KindBranchFlush, Addr: 0x200},
		{Kind: KindCacheHit, Addr: 0x204},
		{Kind: KindLoopExit, Arg: 2},
	}
	for _, e := range stream {
		p.Event(e)
	}

	got := p.Stats()
	if len(got) != 3 {
		t.Fatalf("Stats returned %d entries, want 3 (outside + 2 loops)", len(got))
	}
	outside, hydro, iccg := got[0], got[1], got[2]
	if outside.Cycles != 2 || outside.Instructions != 0 {
		t.Errorf("outside = %+v, want 2 cycles, 0 instructions", outside)
	}
	if hydro.Cycles != 2 || hydro.Instructions != 2 || hydro.CacheMisses != 1 || hydro.OffChipWords != 4 {
		t.Errorf("hydro = %+v, want 2 cycles, 2 instructions, 1 miss, 4 words", hydro)
	}
	if hydro.Buckets[stats.CycleIssue] != 1 || hydro.Buckets[stats.CycleFetchStarved] != 1 {
		t.Errorf("hydro buckets = %v", hydro.Buckets)
	}
	if hydro.StallCycles() != 1 {
		t.Errorf("hydro StallCycles = %d, want 1", hydro.StallCycles())
	}
	if iccg.Cycles != 1 || iccg.Instructions != 1 || iccg.BranchFlush != 1 || iccg.CacheHits != 1 {
		t.Errorf("iccg = %+v, want 1 cycle, 1 instruction, 1 flush, 1 hit", iccg)
	}
	if p.TotalCycles() != 5 {
		t.Errorf("TotalCycles = %d, want 5", p.TotalCycles())
	}
}

func TestPerLoopUnknownLoopFallsOutside(t *testing.T) {
	p := NewPerLoop(nil)
	p.Event(Event{Kind: KindLoopEnter, Arg: 42}) // not configured
	p.Event(Event{Kind: KindCycle, Arg: uint32(stats.CycleIssue)})
	got := p.Stats()
	if len(got) != 1 || got[0].Cycles != 1 {
		t.Errorf("Stats = %+v, want one outside entry with 1 cycle", got)
	}
}

// decodeTrace unmarshals a timeline's output for inspection.
func decodeTrace(t *testing.T, tl *Timeline) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	return trace
}

// find returns the trace events with the given name and phase.
func find(trace chromeTrace, name, ph string) []chromeEvent {
	var out []chromeEvent
	for _, e := range trace.TraceEvents {
		if e.Name == name && e.Ph == ph {
			out = append(out, e)
		}
	}
	return out
}

// TestTimelineCoalescesBuckets checks runs of same-bucket cycles become one
// span and that WriteTo closes the open span one cycle past the last event.
func TestTimelineCoalescesBuckets(t *testing.T) {
	tl := NewTimeline()
	issue := uint32(stats.CycleIssue)
	starved := uint32(stats.CycleFetchStarved)
	for c, b := range []uint32{issue, issue, issue, starved, starved, issue} {
		tl.Event(Event{Kind: KindCycle, Cycle: uint64(c + 1), Arg: b})
	}
	trace := decodeTrace(t, tl)

	issueSpans := find(trace, stats.CycleIssue.String(), "X")
	starvedSpans := find(trace, stats.CycleFetchStarved.String(), "X")
	if len(issueSpans) != 2 || len(starvedSpans) != 1 {
		t.Fatalf("got %d issue and %d starved spans, want 2 and 1",
			len(issueSpans), len(starvedSpans))
	}
	if issueSpans[0].Ts != 1 || issueSpans[0].Dur != 3 {
		t.Errorf("first issue span = ts %d dur %d, want ts 1 dur 3", issueSpans[0].Ts, issueSpans[0].Dur)
	}
	if starvedSpans[0].Ts != 4 || starvedSpans[0].Dur != 2 {
		t.Errorf("starved span = ts %d dur %d, want ts 4 dur 2", starvedSpans[0].Ts, starvedSpans[0].Dur)
	}
	// The trailing issue cycle (cycle 6) is closed by WriteTo at last+1.
	if issueSpans[1].Ts != 6 || issueSpans[1].Dur != 1 {
		t.Errorf("final issue span = ts %d dur %d, want ts 6 dur 1", issueSpans[1].Ts, issueSpans[1].Dur)
	}
	var total uint64
	for _, s := range append(issueSpans, starvedSpans...) {
		total += s.Dur
	}
	if total != 6 {
		t.Errorf("pipeline spans cover %d cycles, want 6", total)
	}
}

// TestTimelineFetchPairing checks issue/complete pairing, including a
// canceled request (second issue before any complete drops the first).
func TestTimelineFetchPairing(t *testing.T) {
	tl := NewTimeline()
	tl.Event(Event{Kind: KindFetchIssue, Cycle: 10, Addr: 0x40})
	tl.Event(Event{Kind: KindFetchIssue, Cycle: 12, Addr: 0x80}) // 0x40 canceled
	tl.Event(Event{Kind: KindFetchComplete, Cycle: 15, Addr: 0x80})
	tl.Event(Event{Kind: KindPrefetchIssue, Cycle: 20, Addr: 0xc0})
	tl.Event(Event{Kind: KindPrefetchComplete, Cycle: 23, Addr: 0xc0})
	trace := decodeTrace(t, tl)

	fetches := find(trace, "demand-fetch", "X")
	if len(fetches) != 1 {
		t.Fatalf("got %d demand-fetch spans, want 1 (canceled issue dropped)", len(fetches))
	}
	if fetches[0].Ts != 12 || fetches[0].Dur != 4 {
		t.Errorf("demand-fetch span = ts %d dur %d, want ts 12 dur 4 (issue..complete inclusive)",
			fetches[0].Ts, fetches[0].Dur)
	}
	if addr := fetches[0].Args["addr"]; addr != "0x00080" {
		t.Errorf("demand-fetch addr = %v, want 0x00080", addr)
	}
	pre := find(trace, "prefetch", "X")
	if len(pre) != 1 || pre[0].Ts != 20 || pre[0].Dur != 4 {
		t.Errorf("prefetch spans = %+v, want one at ts 20 dur 4", pre)
	}
}

// TestTimelineBusCounter checks idle gaps get explicit zero samples so the
// counter track renders as steps, and a trailing zero closes the series.
func TestTimelineBusCounter(t *testing.T) {
	tl := NewTimeline()
	tl.Event(Event{Kind: KindBusBusy, Cycle: 5, Value: 4})
	tl.Event(Event{Kind: KindBusBusy, Cycle: 6, Value: 4}) // adjacent: no gap sample
	tl.Event(Event{Kind: KindBusBusy, Cycle: 10, Value: 2})
	trace := decodeTrace(t, tl)

	samples := find(trace, "input-bus", "C")
	if len(samples) != 5 {
		t.Fatalf("got %d bus samples, want 5 (3 busy + gap zero + trailing zero)", len(samples))
	}
	type sample struct {
		ts    uint64
		words float64
	}
	want := []sample{{5, 4}, {6, 4}, {7, 0}, {10, 2}, {11, 0}}
	for i, s := range samples {
		if s.Ts != want[i].ts || s.Args["words"] != want[i].words {
			t.Errorf("sample %d = ts %d words %v, want ts %d words %v",
				i, s.Ts, s.Args["words"], want[i].ts, want[i].words)
		}
	}
}

func TestTimelineLoopSpans(t *testing.T) {
	tl := NewTimeline()
	tl.Event(Event{Kind: KindLoopEnter, Cycle: 100, Arg: 1})
	tl.Event(Event{Kind: KindLoopExit, Cycle: 250, Arg: 1})
	tl.Event(Event{Kind: KindLoopEnter, Cycle: 300, Arg: 2})
	tl.Event(Event{Kind: KindQueueDepth, Cycle: 310, Arg: uint32(QueueLDQ), Value: 3})
	trace := decodeTrace(t, tl)

	l1 := find(trace, "loop 1", "X")
	if len(l1) != 1 || l1[0].Ts != 100 || l1[0].Dur != 150 {
		t.Errorf("loop 1 spans = %+v, want one at ts 100 dur 150", l1)
	}
	// Loop 2 is still open at WriteTo; closed at last+1 = 311.
	l2 := find(trace, "loop 2", "X")
	if len(l2) != 1 || l2[0].Ts != 300 || l2[0].Dur != 11 {
		t.Errorf("loop 2 spans = %+v, want one at ts 300 dur 11", l2)
	}
	ldq := find(trace, "LDQ", "C")
	if len(ldq) != 1 || ldq[0].Args["entries"] != float64(3) {
		t.Errorf("LDQ samples = %+v, want one with entries=3", ldq)
	}
}

// TestObserverKinds checks what each probe shape consumes: the set the
// core reads to decide skip-ahead and retire folds.
func TestObserverKinds(t *testing.T) {
	retire := KindsOf(KindRetire)
	cases := []struct {
		name string
		p    Probe
		want Kinds
	}{
		{"nil", nil, 0},
		{"func", ProbeFunc(func(Event) {}), AllKinds},
		{"recorder", NewFlightRecorder(4), AllKinds},
		{"only", Only(retire, &record{}), retire},
		{"multi", Multi{Only(retire, &record{}), Only(KindsOf(KindCacheHit), &record{})}, KindsOf(KindRetire, KindCacheHit)},
		{"multi-full", Multi{Only(retire, &record{}), &record{}}, AllKinds},
		{"stamper", &Stamper{Target: Only(retire, &record{})}, retire},
	}
	for _, c := range cases {
		if got := Consumes(c.p); got != c.want {
			t.Errorf("%s: consumes %#x, want %#x", c.name, got, c.want)
		}
	}
	if !PerCycleKinds.Has(KindCycle) || !PerCycleKinds.Has(KindQueueDepth) || PerCycleKinds.Has(KindRetire) {
		t.Errorf("PerCycleKinds = %#x", PerCycleKinds)
	}
	for k := Kind(0); k < numKinds; k++ {
		if !AllKinds.Has(k) {
			t.Errorf("AllKinds lacks %s", k)
		}
	}
}

// declares is a Filter that keeps every event it is handed, so a kind the
// port should not have emitted shows.
type declares struct {
	record
	kinds Kinds
}

func (d *declares) Kinds() Kinds { return d.kinds }

// TestObserverPort checks a port emits exactly the kinds its probe
// consumes, and nothing once detached.
func TestObserverPort(t *testing.T) {
	var port Port
	rec := &declares{kinds: KindsOf(KindRetire, KindBusBusy)}
	port.SetProbe(rec)
	for k := Kind(0); k < numKinds; k++ {
		if port.On(k) != (k == KindRetire || k == KindBusBusy) {
			t.Errorf("On(%s) = %v", k, port.On(k))
		}
		port.Emit(Event{Kind: k})
	}
	if len(rec.events) != 2 || rec.events[0].Kind != KindBusBusy || rec.events[1].Kind != KindRetire {
		t.Errorf("emitted %v, want bus-busy then retire", rec.events)
	}
	port.SetProbe(nil)
	port.Emit(Event{Kind: KindRetire})
	if len(rec.events) != 2 || port.Consumed() != 0 {
		t.Error("a detached port still emits")
	}
}
