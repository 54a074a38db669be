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

	seen map[uint32]struct{} // infinite shadow: line addresses ever referenced
	fa   faLRU               // equal-size fully-associative LRU shadow

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
func (in *Introspector) Reference(addr uint32, hit bool) stats.MissClass {
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

// faLRU is the fully-associative LRU shadow: a map plus an index-linked
// circular list (node 0 is the sentinel), preallocated to the cache's
// line count so steady-state references allocate nothing.
type faLRU struct {
	cap   int
	index map[uint32]int
	nodes []faNode // nodes[0] is the sentinel; head.next = MRU, head.prev = LRU
	free  []int
}

type faNode struct {
	prev, next int
	addr       uint32
}

func (l *faLRU) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.cap = capacity
	l.index = make(map[uint32]int, capacity)
	l.nodes = make([]faNode, 1, capacity+1)
	l.nodes[0] = faNode{prev: 0, next: 0}
}

// isMRU reports whether line is the most recently referenced line.
func (l *faLRU) isMRU(line uint32) bool {
	i := l.nodes[0].next
	return i != 0 && l.nodes[i].addr == line
}

// contains reports whether line is resident, without touching recency.
func (l *faLRU) contains(line uint32) bool {
	_, ok := l.index[line]
	return ok
}

// reference touches line as most recently used, inserting it (and evicting
// the LRU line if full) when absent.
func (l *faLRU) reference(line uint32) {
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
		l.nodes = append(l.nodes, faNode{addr: line})
	}
	l.index[line] = i
	l.pushFront(i)
}

func (l *faLRU) unlink(i int) {
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	l.nodes[n.next].prev = n.prev
}

func (l *faLRU) pushFront(i int) {
	head := &l.nodes[0]
	n := &l.nodes[i]
	n.prev, n.next = 0, head.next
	l.nodes[head.next].prev = i
	head.next = i
}
