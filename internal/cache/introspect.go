package cache

// This file is the cache-introspection core: the shadow models that
// classify every miss of the real direct-mapped array as compulsory,
// capacity or conflict (the standard 3C method), plus the per-set
// access/miss/eviction heatmap, dead-on-eviction tracking and the hot
// miss-PC table.
//
// Two shadow structures observe the engine's demand reference stream at
// line granularity:
//
//   - an infinite cache (the set of every line address ever referenced):
//     a miss on a never-seen line is compulsory — no finite cache avoids
//     it;
//   - a fully-associative LRU cache of the same capacity and line size:
//     a real-array miss that this shadow would have hit is a conflict of
//     the direct-mapped placement; a miss in both is a capacity miss.
//
// Both shadows share one table indexed by line number (address >> line
// shift), kept in pages allocated on first touch, so a machine pays only
// for the pages its code spans. An entry is the line's FA-LRU node, or
// "seen but not resident", or "never seen": one lookup answers both
// shadows, and a reference touches no hash map.
//
// The shadows are fed from the fetch engines' own hit/miss accounting
// points (not from the array's Lookup counters), so the per-class counts
// sum exactly to the engine's CacheMisses statistic by construction. The
// introspector is purely observational: it never influences the array or
// the engines, so cycle counts are bit-identical with introspection on or
// off.

import (
	"sort"

	"pipesim/internal/stats"
)

// Introspector classifies the misses of one cache array and accumulates
// the attribution tables. It is single-goroutine, like the simulator core
// that drives it.
type Introspector struct {
	lineShift uint32 // log2 of the line size
	setMask   uint32 // line count - 1

	pages []*[pageLines]int32 // line table by line number; nil until touched
	fa    faLRU               // equal-size fully-associative LRU shadow

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

// NewIntrospector builds an introspector for a direct-mapped cache of the
// given geometry, whose sizes are powers of two as New requires. topN
// bounds the hot miss-PC table returned by Stats (<= 0 keeps every PC).
func NewIntrospector(sizeBytes, lineBytes, topN int) *Introspector {
	nLines := sizeBytes / lineBytes
	in := &Introspector{
		lineShift: log2u(uint32(lineBytes)),
		setMask:   uint32(nLines - 1),
		sets:      make([]stats.CacheSetStats, nLines),
		lineHit:   make([]bool, nLines),
		hot:       make(map[uint32]uint64),
		topN:      topN,
	}
	in.fa.init(nLines)
	return in
}

// Line-table entries: a positive entry is the line's FA-LRU node.
const (
	lineUnseen  = 0  // never referenced
	lineEvicted = -1 // referenced, but the FA shadow has since evicted it
)

// The line table's page size, in lines.
const (
	pageShift = 9
	pageLines = 1 << pageShift
)

// entry returns line's table entry, allocating its page on first touch.
// The pointer stays valid: pages never move.
func (in *Introspector) entry(line uint32) *int32 {
	pg := int(line >> pageShift)
	if pg >= len(in.pages) {
		in.pages = append(in.pages, make([]*[pageLines]int32, pg+1-len(in.pages))...)
	}
	p := in.pages[pg]
	if p == nil {
		p = new([pageLines]int32)
		in.pages[pg] = p
	}
	return &p[line&(pageLines-1)]
}

// Reference observes one demand reference of the fetch engine at its own
// hit/miss accounting point and returns the miss class (MissUnclassified
// for a hit). Both shadows see every reference — hits included — so the
// fully-associative shadow's LRU order tracks true recency.
func (in *Introspector) Reference(addr uint32, hit bool) stats.MissClass {
	line := addr >> in.lineShift
	set := int(line & in.setMask)
	s := &in.sets[set]
	s.Accesses++
	if hit && in.fa.isMRU(line) {
		// The line referenced last hits again (the common case of
		// sequential supply): it is already seen and already the most
		// recent, so neither shadow changes.
		in.lineHit[set] = true
		return stats.MissUnclassified
	}
	e := in.entry(line)
	class := stats.MissUnclassified
	if hit {
		in.lineHit[set] = true
	} else {
		s.Misses++
		in.hot[addr]++
		switch {
		case *e == lineUnseen:
			class = stats.MissCompulsory
		case *e > 0:
			class = stats.MissConflict
		default:
			class = stats.MissCapacity
		}
		in.classes[class]++
	}
	in.touch(e, line)
	return class
}

// touch makes line, whose table entry is e, the FA shadow's most recently
// used line, inserting it (and evicting the LRU line if full) when absent.
func (in *Introspector) touch(e *int32, line uint32) {
	l := &in.fa
	if i := *e; i > 0 {
		l.unlink(i)
		l.pushFront(i)
		return
	}
	var i int32
	if len(l.nodes) <= l.cap {
		i = int32(len(l.nodes))
		l.nodes = append(l.nodes, faNode{line: line})
	} else {
		i = l.nodes[0].prev
		l.unlink(i)
		*in.entry(l.nodes[i].line) = lineEvicted
		l.nodes[i].line = line
	}
	*e = i
	l.pushFront(i)
}

// TrackFill records that the array claimed frame `set` for a new tag,
// displacing the resident line at oldLine when evicted is true. Called by
// Cache.FillSub/FillLine on their tag-change branch.
func (in *Introspector) TrackFill(set int, evicted bool, oldLine uint32) {
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
func (in *Introspector) Classes() [stats.NumMissClasses]uint64 { return in.classes }

// Stats snapshots the collected attribution into a plain-data block: the
// class totals, the per-set heatmap, eviction counts and the hot miss PCs
// sorted by miss count (descending, ties by ascending PC), truncated to
// the configured top N.
func (in *Introspector) Stats() *stats.CacheStats {
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

// faLRU is the fully-associative LRU shadow: an index-linked circular
// list (node 0 is the sentinel) of up to cap line numbers, whose nodes the
// line table points at. It is preallocated to the cache's line count, so
// steady-state references allocate nothing.
type faLRU struct {
	cap   int
	nodes []faNode // nodes[0] is the sentinel; head.next = MRU, head.prev = LRU
}

type faNode struct {
	prev, next int32
	line       uint32
}

func (l *faLRU) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
	l.nodes = make([]faNode, 1, capacity+1)
}

// isMRU reports whether line is the most recently referenced line.
func (l *faLRU) isMRU(line uint32) bool {
	i := l.nodes[0].next
	return i != 0 && l.nodes[i].line == line
}

func (l *faLRU) unlink(i int32) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *faLRU) pushFront(i int32) {
	head := &l.nodes[0]
	n := &l.nodes[i]
	n.prev, n.next = 0, head.next
	l.nodes[head.next].prev = i
	head.next = i
}
