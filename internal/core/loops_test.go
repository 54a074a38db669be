package core

// White-box tests for the retirement-stream loop tracker: SetLoopRanges
// sorts its copy of the ranges and the stamper's trackLoop resolves each
// PC with a binary search, so the lookup must agree with a plain linear
// scan for every PC — inside a range, in the gaps between ranges, and at
// both boundary addresses of each range.

import (
	"testing"

	"pipesim/internal/obs"
)

// recorderProbe keeps the emitted loop-transition events in order.
type recorderProbe struct{ events []obs.Event }

func (p *recorderProbe) Event(e obs.Event) { p.events = append(p.events, e) }

// loopSim builds a bare Simulator with just the fields trackLoop touches.
func loopSim(ranges []obs.LoopRange) (*Simulator, *recorderProbe) {
	p := &recorderProbe{}
	s := &Simulator{}
	s.stamp.Clock = &s.cycle
	s.SetProbe(p)
	s.SetLoopRanges(ranges)
	return s, p
}

func TestSetLoopRangesSortsItsCopy(t *testing.T) {
	in := []obs.LoopRange{
		{Loop: 3, Start: 0x300, End: 0x340},
		{Loop: 1, Start: 0x100, End: 0x140},
		{Loop: 2, Start: 0x200, End: 0x240},
	}
	s, _ := loopSim(in)
	for i := 1; i < len(s.stamp.loops); i++ {
		if s.stamp.loops[i-1].Start >= s.stamp.loops[i].Start {
			t.Fatalf("ranges not sorted by Start: %+v", s.stamp.loops)
		}
	}
	// The caller's slice must be untouched (it was copied, not sorted in
	// place).
	if in[0].Loop != 3 {
		t.Error("SetLoopRanges sorted the caller's slice")
	}
	s.SetLoopRanges(nil)
	if s.stamp.loops != nil {
		t.Error("empty input should clear the ranges")
	}
}

// lookupLinear is the reference implementation: scan every range.
func lookupLinear(ranges []obs.LoopRange, pc uint32) int {
	for _, r := range ranges {
		if pc >= r.Start && pc < r.End {
			return r.Loop
		}
	}
	return 0
}

// lookup drives trackLoop once on a fresh tracker and reads back which loop
// it decided pc belongs to.
func lookup(ranges []obs.LoopRange, pc uint32) int {
	s, _ := loopSim(ranges)
	s.stamp.trackLoop(pc)
	return s.stamp.curLoop
}

func TestTrackLoopMatchesLinearScan(t *testing.T) {
	// Disjoint, deliberately unsorted, with gaps and adjacent ranges.
	ranges := []obs.LoopRange{
		{Loop: 4, Start: 0x400, End: 0x480},
		{Loop: 1, Start: 0x010, End: 0x040},
		{Loop: 3, Start: 0x240, End: 0x400}, // adjacent to loop 4
		{Loop: 2, Start: 0x100, End: 0x140},
	}
	var pcs []uint32
	for _, r := range ranges {
		pcs = append(pcs, r.Start, r.Start+4, r.End-4, r.End, r.End+4)
		if r.Start >= 4 {
			pcs = append(pcs, r.Start-4)
		}
	}
	pcs = append(pcs, 0, 0x0c, 0x1f0, 0x7fc, 0xffff_fffc)
	for _, pc := range pcs {
		want := lookupLinear(ranges, pc)
		if got := lookup(ranges, pc); got != want {
			t.Errorf("pc %#x: binary search found loop %d, linear scan %d", pc, got, want)
		}
	}
}

func TestTrackLoopEmitsTransitions(t *testing.T) {
	ranges := []obs.LoopRange{
		{Loop: 1, Start: 0x100, End: 0x140},
		{Loop: 2, Start: 0x140, End: 0x180},
	}
	s, p := loopSim(ranges)
	for _, pc := range []uint32{0x0f0, 0x100, 0x13c, 0x140, 0x180} {
		s.stamp.trackLoop(pc)
	}
	// outside → enter 1 → (stay) → exit 1 + enter 2 → exit 2.
	want := []obs.Event{
		{Kind: obs.KindLoopEnter, Arg: 1},
		{Kind: obs.KindLoopExit, Arg: 1},
		{Kind: obs.KindLoopEnter, Arg: 2},
		{Kind: obs.KindLoopExit, Arg: 2},
	}
	if len(p.events) != len(want) {
		t.Fatalf("events = %+v, want %d transitions", p.events, len(want))
	}
	for i, e := range p.events {
		if e.Kind != want[i].Kind || e.Arg != want[i].Arg {
			t.Errorf("event %d = {%v %d}, want {%v %d}", i, e.Kind, e.Arg, want[i].Kind, want[i].Arg)
		}
	}
}
