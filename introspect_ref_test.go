package pipesim_test

// The reference introspector: the map-based 3C shadows that the paged line
// table in internal/cache replaced, kept verbatim apart from identifiers.
// TestIntrospectorMatchesMapReference drives it and the real introspector
// with the same recorded reference and fill streams and requires identical
// statistics.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pipesim"
	"pipesim/internal/cache"
	"pipesim/internal/stats"
	"pipesim/internal/sweep"
)

// mapIntrospector classifies the misses of one cache array and accumulates
// the attribution tables. It is single-goroutine, like the simulator core
// that drives it.
type mapIntrospector struct {
	lineShift uint32 // log2 of the line size
	setMask   uint32 // line count - 1

	seen map[uint32]struct{} // infinite shadow: line addresses ever referenced
	fa   mapFALRU            // equal-size fully-associative LRU shadow

	sets    []stats.CacheSetStats
	lineHit []bool // resident line of each set has hit since its fill

	classes   [stats.NumMissClasses]uint64
	evictions uint64
	dead      uint64

	hot  map[uint32]uint64 // miss PC -> miss count
	topN int

	// OnEvict, when set, observes every eviction of the real array:
	// the set index, the displaced line address, and whether the line was
	// dead (never referenced after its fill). The simulator core wires it
	// to emit obs.KindCacheEvict probe events.
	OnEvict func(set int, lineAddr uint32, dead bool)
}

// newMapIntrospector builds an introspector for a direct-mapped cache of the
// given geometry, whose sizes are powers of two as New requires. topN
// bounds the hot miss-PC table returned by Stats (<= 0 keeps every PC).
func newMapIntrospector(sizeBytes, lineBytes, topN int) *mapIntrospector {
	nLines := sizeBytes / lineBytes
	in := &mapIntrospector{
		lineShift: mapLog2u(uint32(lineBytes)),
		setMask:   uint32(nLines - 1),
		seen:      make(map[uint32]struct{}),
		sets:      make([]stats.CacheSetStats, nLines),
		lineHit:   make([]bool, nLines),
		hot:       make(map[uint32]uint64),
		topN:      topN,
	}
	in.fa.init(nLines)
	return in
}

// Reference observes one demand reference of the fetch engine at its own
// hit/miss accounting point and returns the miss class (MissUnclassified
// for a hit). Both shadows see every reference — hits included — so the
// fully-associative shadow's LRU order tracks true recency.
func (in *mapIntrospector) Reference(addr uint32, hit bool) stats.MissClass {
	line := addr >> in.lineShift << in.lineShift
	set := int(addr >> in.lineShift & in.setMask)
	s := &in.sets[set]
	s.Accesses++
	if hit && in.fa.isMRU(line) {
		// The line referenced last hits again (the common case of
		// sequential supply): it is already seen and already the most
		// recent, so neither shadow changes.
		in.lineHit[set] = true
		return stats.MissUnclassified
	}
	class := stats.MissUnclassified
	_, seen := in.seen[line]
	if hit {
		in.lineHit[set] = true
	} else {
		s.Misses++
		in.hot[addr]++
		switch {
		case !seen:
			class = stats.MissCompulsory
		case in.fa.contains(line):
			class = stats.MissConflict
		default:
			class = stats.MissCapacity
		}
		in.classes[class]++
	}
	if !seen {
		in.seen[line] = struct{}{}
	}
	in.fa.reference(line)
	return class
}

// TrackFill records that the array claimed frame `set` for a new tag,
// displacing the resident line at oldLine when evicted is true. Called by
// Cache.FillSub/FillLine on their tag-change branch.
func (in *mapIntrospector) TrackFill(set int, evicted bool, oldLine uint32) {
	if evicted {
		dead := !in.lineHit[set]
		in.evictions++
		in.sets[set].Evictions++
		if dead {
			in.dead++
			in.sets[set].DeadEvictions++
		}
		if in.OnEvict != nil {
			in.OnEvict(set, oldLine, dead)
		}
	}
	in.lineHit[set] = false
}

// Classes returns the per-class miss totals accumulated so far.
func (in *mapIntrospector) Classes() [stats.NumMissClasses]uint64 { return in.classes }

// Stats snapshots the collected attribution into a plain-data block: the
// class totals, the per-set heatmap, eviction counts and the hot miss PCs
// sorted by miss count (descending, ties by ascending PC), truncated to
// the configured top N.
func (in *mapIntrospector) Stats() *stats.CacheStats {
	out := &stats.CacheStats{
		Compulsory:    in.classes[stats.MissCompulsory],
		Capacity:      in.classes[stats.MissCapacity],
		Conflict:      in.classes[stats.MissConflict],
		Evictions:     in.evictions,
		DeadEvictions: in.dead,
		Sets:          append([]stats.CacheSetStats(nil), in.sets...),
	}
	if len(in.hot) > 0 {
		pcs := make([]stats.CacheHotPC, 0, len(in.hot))
		for pc, n := range in.hot {
			pcs = append(pcs, stats.CacheHotPC{PC: pc, Misses: n})
		}
		sort.Slice(pcs, func(i, j int) bool {
			if pcs[i].Misses != pcs[j].Misses {
				return pcs[i].Misses > pcs[j].Misses
			}
			return pcs[i].PC < pcs[j].PC
		})
		if in.topN > 0 && len(pcs) > in.topN {
			pcs = pcs[:in.topN]
		}
		out.HotPCs = pcs
	}
	return out
}

// mapFALRU is the fully-associative LRU shadow: a map plus an index-linked
// circular list (node 0 is the sentinel), preallocated to the cache's
// line count so steady-state references allocate nothing.
type mapFALRU struct {
	cap   int
	index map[uint32]int
	nodes []mapFANode // nodes[0] is the sentinel; head.next = MRU, head.prev = LRU
	free  []int
}

type mapFANode struct {
	prev, next int
	addr       uint32
}

func (l *mapFALRU) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
	l.index = make(map[uint32]int, capacity)
	l.nodes = make([]mapFANode, 1, capacity+1)
	l.nodes[0] = mapFANode{prev: 0, next: 0}
}

// isMRU reports whether line is the most recently referenced line.
func (l *mapFALRU) isMRU(line uint32) bool {
	i := l.nodes[0].next
	return i != 0 && l.nodes[i].addr == line
}

// contains reports whether line is resident, without touching recency.
func (l *mapFALRU) contains(line uint32) bool {
	_, ok := l.index[line]
	return ok
}

// reference touches line as most recently used, inserting it (and evicting
// the LRU line if full) when absent.
func (l *mapFALRU) reference(line uint32) {
	if i, ok := l.index[line]; ok {
		l.unlink(i)
		l.pushFront(i)
		return
	}
	if len(l.index) >= l.cap {
		lru := l.nodes[0].prev
		l.unlink(lru)
		delete(l.index, l.nodes[lru].addr)
		l.free = append(l.free, lru)
	}
	var i int
	if n := len(l.free); n > 0 {
		i = l.free[n-1]
		l.free = l.free[:n-1]
		l.nodes[i].addr = line
	} else {
		i = len(l.nodes)
		l.nodes = append(l.nodes, mapFANode{addr: line})
	}
	l.index[line] = i
	l.pushFront(i)
}

func (l *mapFALRU) unlink(i int) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *mapFALRU) pushFront(i int) {
	head := &l.nodes[0]
	n := &l.nodes[i]
	n.prev, n.next = 0, head.next
	l.nodes[head.next].prev = i
	head.next = i
}

// mapLog2u is log2 of a power of two.
func mapLog2u(v uint32) uint32 {
	var n uint32
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// cacheEvent is one recorded input of the introspector: a demand
// reference (hit or miss, with the miss class the live run returned) or an
// eviction of the real array (set, displaced line, dead flag).
type cacheEvent struct {
	kind pipesim.ProbeKind
	addr uint32
	arg  uint32
	dead bool
}

// cacheRecorder is a probe keeping the introspector's input streams in
// order. The fetch engines emit a hit or miss event at each point they call
// Reference, and the core an evict event from each evicting TrackFill.
type cacheRecorder struct{ events []cacheEvent }

func (r *cacheRecorder) Event(e pipesim.ProbeEvent) {
	switch e.Kind {
	case pipesim.EventCacheHit, pipesim.EventCacheMiss, pipesim.EventCacheEvict:
		r.events = append(r.events, cacheEvent{kind: e.Kind, addr: e.Addr, arg: e.Arg, dead: e.Value == 1})
	}
}

// replayCache feeds a recorded stream to the paged line-table
// introspector and the map-based reference in lockstep and fails at the
// first event where they, or the live run, disagree on a miss class or a
// dead flag. A fill into an empty frame displaces nothing and emits no
// event; it only clears the frame's hit flag, which is still clear then (a
// frame hits only after its first fill), so the replay feeds it where the
// set first appears.
func replayCache(t *testing.T, name string, paged *cache.Introspector, ref *mapIntrospector, events []cacheEvent, lineBytes, sets int) {
	t.Helper()
	var pagedDead, refDead bool
	paged.OnEvict = func(_ int, _ uint32, d bool) { pagedDead = d }
	ref.OnEvict = func(_ int, _ uint32, d bool) { refDead = d }
	filled := make([]bool, sets)
	fill := func(set int) {
		if !filled[set] {
			filled[set] = true
			paged.TrackFill(set, false, 0)
			ref.TrackFill(set, false, 0)
		}
	}
	for i, e := range events {
		switch e.kind {
		case pipesim.EventCacheHit, pipesim.EventCacheMiss:
			fill(int(e.addr/uint32(lineBytes)) % sets)
			hit := e.kind == pipesim.EventCacheHit
			live := stats.MissClass(e.arg)
			if hit {
				live = stats.MissUnclassified
			}
			if p, r := paged.Reference(e.addr, hit), ref.Reference(e.addr, hit); p != r || p != live {
				t.Fatalf("%s: event %d: reference %#x (hit=%v) classified %v by the line table, %v by the map reference, %v live",
					name, i, e.addr, hit, p, r, live)
			}
		case pipesim.EventCacheEvict:
			fill(int(e.arg))
			paged.TrackFill(int(e.arg), true, e.addr)
			ref.TrackFill(int(e.arg), true, e.addr)
			if pagedDead != refDead || pagedDead != e.dead {
				t.Fatalf("%s: event %d: eviction of %#x dead=%v by the line table, %v by the map reference, %v live",
					name, i, e.addr, pagedDead, refDead, e.dead)
			}
		}
	}
}

// TestIntrospectorMatchesMapReference records the introspector's reference
// and fill streams from every Figure 4a and Figure 5b machine and one
// native-format machine, replays them into the paged line-table
// introspector and into the map-based reference, and requires identical
// Stats: class totals, per-set heatmap, dead evictions and every hot PC.
// The replayed statistics must also equal the live run's, which shows the
// recorded stream is the one the simulator fed.
func TestIntrospectorMatchesMapReference(t *testing.T) {
	prog, _, err := pipesim.LivermoreProgram()
	if err != nil {
		t.Fatal(err)
	}
	type machine struct {
		name string
		cfg  pipesim.Config
	}
	var machines []machine
	for _, fig := range []struct {
		id          string
		access, bus int
	}{{"fig4a", 1, 4}, {"fig5b", 6, 8}} {
		for _, v := range sweep.GridVariants() {
			for _, size := range sweep.CacheSizes {
				cfg := figureConfig(t, v, size, fig.access, fig.bus)
				if cfg.Validate() == nil {
					machines = append(machines, machine{fmt.Sprintf("%s/%s/%d", fig.id, v, size), cfg})
				}
			}
		}
	}
	native := figureConfig(t, "16-16", 64, 1, 4)
	native.NativeFormat = true
	machines = append(machines, machine{"native/16-16/64", native})
	if len(machines) != 57 {
		t.Fatalf("%d machines, want 28 + 28 + 1", len(machines))
	}
	for _, m := range machines {
		m.cfg.CacheStats = true
		sim, err := pipesim.NewSimulation(m.cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		rec := &cacheRecorder{}
		sim.Observe(rec)
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		paged := cache.NewIntrospector(m.cfg.CacheBytes, m.cfg.LineBytes, 0)
		ref := newMapIntrospector(m.cfg.CacheBytes, m.cfg.LineBytes, 0)
		replayCache(t, m.name, paged, ref, rec.events, m.cfg.LineBytes, m.cfg.CacheBytes/m.cfg.LineBytes)
		got, want := paged.Stats(), ref.Stats()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: line-table Stats differ from the map reference:\n got %+v\nwant %+v", m.name, got, want)
		}
		live := res.CacheStats
		if live == nil || live.Compulsory != got.Compulsory || live.Capacity != got.Capacity ||
			live.Conflict != got.Conflict || live.Evictions != got.Evictions || live.DeadEvictions != got.DeadEvictions ||
			len(live.Sets) != len(got.Sets) {
			t.Fatalf("%s: replay does not reproduce the live run: %+v vs %+v", m.name, got, live)
		}
		for i, s := range live.Sets {
			if g := got.Sets[i]; s.Accesses != g.Accesses || s.Misses != g.Misses ||
				s.Evictions != g.Evictions || s.DeadEvictions != g.DeadEvictions {
				t.Fatalf("%s: set %d replayed %+v, live %+v", m.name, i, g, s)
			}
		}
		if got.Misses() == 0 || got.Evictions == 0 {
			t.Errorf("%s: the stream exercises no misses or evictions", m.name)
		}
	}
}
