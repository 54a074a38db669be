package obs

// This file is the flight recorder: an always-on, fixed-size ring of the
// most recent probe events, kept by every simulation regardless of whether
// a probe is attached. When a run dies — machine check, watchdog deadlock —
// the ring is snapshotted into the error so the post-mortem shows what the
// machine was doing in the cycles leading up to the fault, not just the
// retirement tail.
//
// The recorder deliberately does NOT ride the Probe interface: the
// interface dispatch alone costs ~45% of an unobserved run (see
// BenchmarkProbeOverhead/null-probe), far outside the always-on budget.
// Instead instrumented components hold a concrete *FlightRecorder and call
// the inlinable Record at their medium- and low-volume event sites
// (cache hits/misses, fetch/prefetch brackets, flushes, bus transfers,
// memory accepts, retirements). The two per-cycle-rate kinds — KindCycle
// and KindQueueDepth, together ~70% of the stream — are not recorded:
// they carry no fault context the retained kinds don't, and skipping them
// keeps the always-on overhead under 5% of a run (measured ~3%, see
// BenchmarkFlightRecorderOverhead).

import (
	"fmt"
	"io"

	"pipesim/internal/stats"
)

// DefaultFlightRecDepth is the flight-recorder ring depth used when a
// configuration leaves it zero: deep enough to span several cache-miss /
// refill rounds before a fault, small enough (256 × 32 B = 8 KiB) to be
// irrelevant next to the simulated memory image.
const DefaultFlightRecDepth = 256

// FlightRecorder is a bounded ring of recent events. It is single-writer
// (the simulation goroutine) and is preallocated at construction: Record
// performs no allocation and no interface dispatch. A nil *FlightRecorder
// is a valid "disabled" recorder for the read-side methods; writers guard
// their Record calls with a nil check instead, keeping the hot path one
// compare + one store.
type FlightRecorder struct {
	clock *uint64 // the simulator's cycle counter, read at record time
	buf   []Event // power-of-two ring
	mask  uint64
	n     uint64 // total events ever recorded
}

// NewFlightRecorder returns a recorder of at least the requested depth
// (rounded up to a power of two; depth <= 0 selects DefaultFlightRecDepth)
// stamping each event with *clock.
func NewFlightRecorder(depth int, clock *uint64) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightRecDepth
	}
	d := 1
	for d < depth {
		d <<= 1
	}
	return &FlightRecorder{clock: clock, buf: make([]Event, d), mask: uint64(d - 1)}
}

// Record appends one event, overwriting the oldest when the ring is full.
// It is kept small enough for the inliner so the per-event cost at a call
// site is one predictable branch plus one 32-byte store.
func (r *FlightRecorder) Record(kind Kind, addr, arg uint32, value uint64) {
	r.buf[r.n&r.mask] = Event{Kind: kind, Cycle: *r.clock, Addr: addr, Arg: arg, Value: value}
	r.n++
}

// Events returns a copy of the retained events, oldest first. Safe on a nil
// recorder (returns nil). Must not race with Record: call it only after the
// run has stopped (error constructors do) or from the run goroutine.
func (r *FlightRecorder) Events() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	n := r.n
	if max := uint64(len(r.buf)); n > max {
		n = max
	}
	out := make([]Event, n)
	start := r.n - n
	for i := uint64(0); i < n; i++ {
		out[i] = r.buf[(start+i)&r.mask]
	}
	return out
}

// Total returns how many events have ever been recorded (including
// overwritten ones). Safe on a nil recorder.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Depth returns the ring capacity. Safe on a nil recorder.
func (r *FlightRecorder) Depth() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// String renders the event as one stable diagnostic line, used by the
// machine-check and deadlock Detail reports and the /debug/flightrecorder
// endpoint. The format is `[cycle] kind payload` with kind-specific payload
// fields.
func (e Event) String() string {
	switch e.Kind {
	case KindCycle:
		return fmt.Sprintf("[%d] cycle %s", e.Cycle, stats.CycleBucket(e.Arg))
	case KindQueueDepth:
		return fmt.Sprintf("[%d] queue-depth %s=%d", e.Cycle, Queue(e.Arg), e.Value)
	case KindBusBusy:
		return fmt.Sprintf("[%d] bus-busy addr=%#05x words=%d", e.Cycle, e.Addr, e.Value)
	case KindMemAccept:
		return fmt.Sprintf("[%d] mem-accept %s addr=%#05x", e.Cycle, stats.ReqKind(e.Arg), e.Addr)
	case KindRetire:
		return fmt.Sprintf("[%d] retire pc=%#05x", e.Cycle, e.Addr)
	case KindLoopEnter, KindLoopExit:
		return fmt.Sprintf("[%d] %s loop=%d", e.Cycle, e.Kind, e.Arg)
	case KindCacheEvict:
		return fmt.Sprintf("[%d] cache-evict line=%#05x set=%d dead=%v", e.Cycle, e.Addr, e.Arg, e.Value != 0)
	default:
		return fmt.Sprintf("[%d] %s addr=%#05x", e.Cycle, e.Kind, e.Addr)
	}
}

// EventRecord is the JSON rendering of one flight-recorder event, used in
// pipesimd error bodies and the /debug/flightrecorder endpoint. Addresses
// are hex strings so a human reading the response can match them against a
// disassembly without mentally converting decimals.
type EventRecord struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	Addr  string `json:"addr,omitempty"`
	Queue string `json:"queue,omitempty"`
	Req   string `json:"req,omitempty"`
	Loop  uint32 `json:"loop,omitempty"`
	Value uint64 `json:"value,omitempty"`
}

// RecordOf converts one event to its JSON rendering.
func RecordOf(e Event) EventRecord {
	r := EventRecord{Cycle: e.Cycle, Kind: e.Kind.String()}
	switch e.Kind {
	case KindQueueDepth:
		r.Queue, r.Value = Queue(e.Arg).String(), e.Value
	case KindBusBusy:
		r.Addr, r.Value = fmt.Sprintf("%#05x", e.Addr), e.Value
	case KindMemAccept:
		r.Addr, r.Req = fmt.Sprintf("%#05x", e.Addr), stats.ReqKind(e.Arg).String()
	case KindLoopEnter, KindLoopExit:
		r.Loop = e.Arg
	case KindCacheEvict:
		r.Addr, r.Value = fmt.Sprintf("%#05x", e.Addr), e.Value
	case KindCycle:
		r.Value = uint64(e.Arg)
	default:
		r.Addr = fmt.Sprintf("%#05x", e.Addr)
	}
	return r
}

// Records converts a snapshot to its JSON rendering, oldest first.
func Records(events []Event) []EventRecord {
	if len(events) == 0 {
		return nil
	}
	out := make([]EventRecord, len(events))
	for i, e := range events {
		out[i] = RecordOf(e)
	}
	return out
}

// WriteFlightTrace replays a flight-recorder snapshot through a
// replay-mode Timeline and writes the Chrome-trace JSON, so a post-mortem
// ring loads in the same chrome://tracing / Perfetto UI as a full -timeline
// run. Events must be in recording order (Events() returns them so).
func WriteFlightTrace(w io.Writer, events []Event) error {
	t := NewReplayTimeline()
	for _, e := range events {
		t.Event(e)
	}
	_, err := t.WriteTo(w)
	return err
}
