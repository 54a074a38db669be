package obs

// This file is the flight recorder: a fixed-size ring of the most recent
// probe events, the post-mortem attached to a MachineCheckError or
// DeadlockError so it shows what the machine was doing in the cycles
// leading up to the fault, not just the retirement tail.
//
// A run does not keep one as it simulates. The simulator is deterministic,
// so the core rebuilds the tail only when it is asked for: after a failure
// it re-simulates the run up to the failing cycle with a recorder attached
// as an ordinary Probe, and reads the ring there. Successful runs, which are
// almost all runs, pay nothing for post-mortems. The core restricts its
// recorders with Only: the flight recorder takes every kind but the
// per-cycle ones (PerCycleKinds, ~70% of the stream, with no fault context
// the others lack), so the replay keeps skip-ahead; the retirement tail is
// a second recorder taking KindRetire alone.

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

// FlightRecorder is a Probe keeping a bounded ring of recent events. Events
// arrive stamped with their cycle (the core stamps every event it passes
// on). It is single-writer and is preallocated at construction. A nil
// *FlightRecorder is a valid "disabled" recorder for the read-side methods.
type FlightRecorder struct {
	buf  []Event // power-of-two ring
	mask uint64
	n    uint64 // total events ever retained
}

// NewFlightRecorder returns a recorder of at least the requested depth
// (rounded up to a power of two; depth <= 0 selects DefaultFlightRecDepth).
func NewFlightRecorder(depth int) *FlightRecorder {
	if depth <= 0 {
		depth = DefaultFlightRecDepth
	}
	d := 1
	for d < depth {
		d <<= 1
	}
	return &FlightRecorder{buf: make([]Event, d), mask: uint64(d - 1)}
}

// Event retains e, overwriting the oldest event when the ring is full.
func (r *FlightRecorder) Event(e Event) {
	r.buf[r.n&r.mask] = e
	r.n++
}

// Events returns a copy of the retained events, oldest first. Safe on a nil
// recorder (returns nil). Must not race with Event: call it only after the
// run has stopped.
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

// Total returns how many events have ever been retained (including
// overwritten ones). Safe on a nil recorder.
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.n
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
