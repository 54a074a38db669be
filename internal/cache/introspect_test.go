package cache

import (
	"testing"

	"pipesim/internal/stats"
)

// newIntro builds the canonical test geometry: a 32-byte cache with
// 16-byte lines, i.e. two direct-mapped frames. Addresses 0x00, 0x20,
// 0x40, ... all map to set 0, so conflict behaviour is easy to provoke
// while the equal-size FA shadow holds any two lines.
func newIntro(topN int) *Introspector { return NewIntrospector(32, 16, topN) }

// TestIntrospectorClassification walks a crafted miss stream through the
// textbook 3C outcomes: never-seen lines are compulsory, lines the
// fully-associative shadow still holds are conflicts of the direct-mapped
// placement, and lines even the FA shadow lost are capacity misses.
func TestIntrospectorClassification(t *testing.T) {
	in := newIntro(0)
	steps := []struct {
		addr uint32
		want stats.MissClass
	}{
		{0x00, stats.MissCompulsory}, // never seen
		{0x20, stats.MissCompulsory}, // never seen; FA = {00, 20}
		{0x00, stats.MissConflict},   // direct-mapped evicted it, FA kept it
		{0x40, stats.MissCompulsory}, // FA evicts LRU 0x20
		{0x20, stats.MissCapacity},   // even the FA shadow lost it
		{0x00, stats.MissCapacity},   // 0x20's reinsertion displaced it
	}
	for i, s := range steps {
		if got := in.Reference(s.addr, false); got != s.want {
			t.Errorf("step %d: Reference(%#x) = %v, want %v", i, s.addr, got, s.want)
		}
	}
	classes := in.Classes()
	if classes[stats.MissCompulsory] != 3 || classes[stats.MissConflict] != 1 || classes[stats.MissCapacity] != 2 {
		t.Errorf("class totals = %v", classes)
	}
	cs := in.Stats()
	if cs.Misses() != 6 {
		t.Errorf("Misses() = %d, want 6", cs.Misses())
	}
	if len(cs.Sets) != 2 {
		t.Fatalf("Sets = %d entries, want 2", len(cs.Sets))
	}
	if cs.Sets[0].Accesses != 6 || cs.Sets[0].Misses != 6 {
		t.Errorf("set 0 = %+v, want 6 accesses / 6 misses", cs.Sets[0])
	}
	if cs.Sets[1] != (stats.CacheSetStats{}) {
		t.Errorf("set 1 = %+v, want untouched", cs.Sets[1])
	}
}

// TestIntrospectorHitRecency: hits feed the FA shadow too, so a line that
// keeps hitting stays most-recently-used. Without the hit below, 0x00
// would be the FA's LRU victim and the final miss would read capacity.
func TestIntrospectorHitRecency(t *testing.T) {
	in := newIntro(0)
	in.Reference(0x00, false)
	in.Reference(0x20, false)
	if got := in.Reference(0x04, true); got != stats.MissUnclassified {
		t.Errorf("hit classified as %v", got)
	}
	in.Reference(0x40, false) // FA evicts 0x20, not the freshly-hit 0x00
	if got := in.Reference(0x00, false); got != stats.MissConflict {
		t.Errorf("Reference(0x00) after hit refresh = %v, want conflict", got)
	}
}

// TestIntrospectorEvictions covers TrackFill's dead-on-eviction logic and
// the OnEvict callback wiring.
func TestIntrospectorEvictions(t *testing.T) {
	in := newIntro(0)
	type evt struct {
		set  int
		line uint32
		dead bool
	}
	var got []evt
	in.OnEvict = func(set int, lineAddr uint32, dead bool) {
		got = append(got, evt{set, lineAddr, dead})
	}

	in.TrackFill(0, false, 0) // first fill of an empty frame: no eviction
	in.Reference(0x04, true)  // resident line hits
	in.TrackFill(0, true, 0x00)
	in.TrackFill(0, true, 0x20) // no hit since the previous fill: dead

	cs := in.Stats()
	if cs.Evictions != 2 || cs.DeadEvictions != 1 {
		t.Errorf("evictions = %d (dead %d), want 2 (dead 1)", cs.Evictions, cs.DeadEvictions)
	}
	if cs.Sets[0].Evictions != 2 || cs.Sets[0].DeadEvictions != 1 {
		t.Errorf("set 0 = %+v, want 2 evictions, 1 dead", cs.Sets[0])
	}
	want := []evt{{0, 0x00, false}, {0, 0x20, true}}
	if len(got) != len(want) {
		t.Fatalf("OnEvict calls = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OnEvict[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestIntrospectorHotPCs checks the hot-PC table's ordering (misses
// descending, PC ascending on ties) and top-N truncation.
func TestIntrospectorHotPCs(t *testing.T) {
	miss := func(in *Introspector, addr uint32, n int) {
		for range n {
			in.Reference(addr, false)
		}
	}
	in := newIntro(0)
	miss(in, 0x300, 1)
	miss(in, 0x100, 3)
	miss(in, 0x400, 1)
	miss(in, 0x200, 2)

	all := in.Stats().HotPCs
	wantAll := []stats.CacheHotPC{{PC: 0x100, Misses: 3}, {PC: 0x200, Misses: 2}, {PC: 0x300, Misses: 1}, {PC: 0x400, Misses: 1}}
	if len(all) != len(wantAll) {
		t.Fatalf("HotPCs = %+v, want %+v", all, wantAll)
	}
	for i := range wantAll {
		if all[i] != wantAll[i] {
			t.Errorf("HotPCs[%d] = %+v, want %+v", i, all[i], wantAll[i])
		}
	}

	in2 := newIntro(2)
	miss(in2, 0x300, 1)
	miss(in2, 0x100, 3)
	miss(in2, 0x200, 2)
	top := in2.Stats().HotPCs
	if len(top) != 2 || top[0].PC != 0x100 || top[1].PC != 0x200 {
		t.Errorf("top-2 HotPCs = %+v", top)
	}
}

// TestFALRUSingleLine: the degenerate one-line shadow still behaves as a
// correct LRU of capacity one, and the line table tracks which lines it
// holds, which it has evicted and which it never saw.
func TestFALRUSingleLine(t *testing.T) {
	in := NewIntrospector(16, 16, 0)
	ref := func(line uint32) { in.touch(in.entry(line), line) }
	state := func(line uint32) int32 { return *in.entry(line) }
	ref(0x10)
	if state(0x10) <= 0 {
		t.Fatal("0x10 missing after reference")
	}
	ref(0x20)
	if state(0x10) != lineEvicted || state(0x20) <= 0 {
		t.Errorf("capacity-1 LRU holds 0x10=%d 0x20=%d, want evicted/resident", state(0x10), state(0x20))
	}
	ref(0x20) // re-touch must not grow or corrupt the list
	ref(0x30)
	if state(0x20) != lineEvicted || state(0x30) <= 0 {
		t.Errorf("after 0x30: 0x20=%d 0x30=%d, want evicted/resident", state(0x20), state(0x30))
	}
	if state(0x40) != lineUnseen {
		t.Errorf("untouched line 0x40 = %d, want unseen", state(0x40))
	}
	if len(in.fa.nodes) != 2 {
		t.Errorf("FA shadow has %d nodes, want the sentinel plus one", len(in.fa.nodes))
	}
}
