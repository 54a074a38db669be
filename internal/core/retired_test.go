package core_test

import (
	"strings"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

// The retirement ring is a flight recorder restricted to KindRetire, and
// the trace writer a retire-only probe: the ring keeps the most recent
// retirements, oldest first, and the writer stops at its limit.

func retireEvent(c uint64) obs.Event {
	return obs.Event{Kind: obs.KindRetire, Cycle: c, Addr: uint32(4 * c)}
}

func retireRing(n int) (*obs.FlightRecorder, obs.Probe) {
	r := obs.NewFlightRecorder(n)
	return r, obs.Only(obs.KindsOf(obs.KindRetire), r)
}

func TestRetireRingKeepsMostRecent(t *testing.T) {
	r, p := retireRing(4)
	for c := uint64(1); c <= 6; c++ {
		p.Event(retireEvent(c))
		p.Event(obs.Event{Kind: obs.KindCacheHit, Cycle: c}) // not a retirement
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d", r.Total())
	}
	got := r.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d", len(got))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if got[i].Cycle != want {
			t.Errorf("event %d cycle = %d, want %d", i, got[i].Cycle, want)
		}
	}
}

func TestRetireRingPartial(t *testing.T) {
	r, p := retireRing(8)
	p.Event(retireEvent(1))
	p.Event(retireEvent(2))
	got := r.Events()
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 2 {
		t.Fatalf("events = %v", got)
	}
}

// TestRetireRingDefaultDepth: a depth that is not positive selects the
// flight recorder's default instead of an empty ring.
func TestRetireRingDefaultDepth(t *testing.T) {
	for _, n := range []int{0, -4} {
		r, p := retireRing(n)
		for c := uint64(1); c <= obs.DefaultFlightRecDepth+1; c++ {
			p.Event(retireEvent(c))
		}
		if got := len(r.Events()); got != obs.DefaultFlightRecDepth {
			t.Fatalf("depth %d retained %d, want %d", n, got, obs.DefaultFlightRecDepth)
		}
	}
}

func TestTraceWriterLimit(t *testing.T) {
	b := program.NewBuilder()
	b.Halt()
	img, err := b.Link() // the traced PCs lie past HALT and read as NOP
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w := &core.TraceWriter{Img: img, W: &sb, Limit: 2}
	for c := uint64(1); c <= 5; c++ {
		w.Event(retireEvent(c))
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != 2 {
		t.Errorf("wrote %d lines, want 2", lines)
	}
	if !strings.Contains(sb.String(), "NOP") {
		t.Error("line missing mnemonic")
	}
}

func TestRetireRingMulti(t *testing.T) {
	a, pa := retireRing(4)
	b, pb := retireRing(4)
	m := obs.Multi{pa, pb}
	m.Event(retireEvent(7))
	if a.Total() != 1 || b.Total() != 1 {
		t.Error("multi did not fan out")
	}
}

func TestRetiredString(t *testing.T) {
	e := core.Retired{Cycle: 42, PC: 0x100, Inst: isa.Inst{Op: isa.OpLI, Rd: 3, Imm: 9}}
	s := e.String()
	for _, want := range []string{"42", "00100", "LI r3, 9"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
