// Package obs is the cycle-attribution observability layer: a typed event
// stream emitted by the memory system, the fetch engines, the CPU and the
// simulator core, consumed by pluggable probes.
//
// Every headline claim of the paper is an *explanation* of a cycle count —
// the knee at 128 B exists because half the Livermore loops fit in the
// cache, bus width matters below the knee because small caches are
// fetch-starved. The probe layer turns those explanations into
// measurements: every simulated cycle is classified into exactly one
// attribution bucket (the sum of buckets equals the run's total cycles),
// every fetch, prefetch, flush and bus transfer is an event, and
// higher-level collectors fold the stream into per-Livermore-loop
// statistics (PerLoop) or a Chrome-trace timeline (Timeline).
//
// Each instrumented unit (memory system, CPU, fetch engine) emits through
// one embedded Port holding the attached probe and the set of kinds that
// probe consumes (Kinds, declared through Filter). Every event site tests
// its kind's bit, so the layer is pay-for-what-you-use: with no probe
// attached, or a probe that ignores the kind, a site costs one bit test,
// which disappears in the noise of a simulation cycle (see
// BenchmarkProbeOverhead at the repository root). The same set decides how
// the core may run: a probe consuming a per-cycle kind (PerCycleKinds)
// needs every cycle ticked, so skip-ahead stays off; one consuming
// KindRetire needs each retirement's exact cycle, so the CPU folds no
// retirement into a stall span.
package obs

// Kind enumerates the typed events emitted by the simulator.
type Kind uint8

// Event kinds. Addr, Arg and Value carry kind-specific payloads, documented
// per kind.
const (
	// KindCycle is emitted exactly once per simulated cycle by the CPU's
	// issue stage; Arg is the stats.CycleBucket the cycle was attributed
	// to. Summing KindCycle events reproduces the run's total cycle count.
	KindCycle Kind = iota
	// KindCacheHit: the fetch engine satisfied a lookup on chip. Addr is
	// the requested address.
	KindCacheHit
	// KindCacheMiss: a lookup went (or wanted to go) off chip. Addr is the
	// requested address. When cache introspection is enabled Arg carries
	// the stats.MissClass (compulsory/capacity/conflict); it is
	// MissUnclassified (zero) otherwise, matching the pre-introspection
	// event layout.
	KindCacheMiss
	// KindFetchIssue / KindFetchComplete bracket a demand instruction
	// fetch. Addr is the line (or chunk) address on both events, so a
	// collector pairs them by matching the stamped cycles; an issue with no
	// complete was canceled at the memory interface.
	KindFetchIssue
	KindFetchComplete
	// KindPrefetchIssue / KindPrefetchComplete bracket an instruction
	// prefetch, with the same payload convention as demand fetches.
	KindPrefetchIssue
	KindPrefetchComplete
	// KindPrefetchBlocked: the engine wanted to prefetch but the
	// execution guarantee (no true prefetch) forbade it. Addr is the
	// blocked address.
	KindPrefetchBlocked
	// KindBranchFlush: a resolved taken branch discarded queued words.
	// Addr is the branch target.
	KindBranchFlush
	// KindQueueDepth samples a hardware queue's occupancy after it
	// changed. Arg is the Queue identifier, Value the new occupancy (in
	// entries).
	KindQueueDepth
	// KindBusBusy: the input bus carried data this cycle. Value is the
	// number of 32-bit words delivered.
	KindBusBusy
	// KindMemAccept: the memory interface accepted a request. Arg is the
	// stats.ReqKind, Addr the request address.
	KindMemAccept
	// KindRetire: an instruction retired. Addr is its PC.
	KindRetire
	// KindLoopEnter: the retirement stream entered a new Livermore loop's
	// PC range. Arg is the loop number (1..14; 0 is the region outside
	// any range). Emitted only when loop ranges are configured.
	KindLoopEnter
	// KindLoopExit: the retirement stream left a loop's PC range; Arg is
	// the loop number being left. Always paired before the next
	// KindLoopEnter.
	KindLoopExit
	// KindCacheEvict: the cache array displaced a resident line for a new
	// tag. Addr is the evicted line address, Arg the set (frame) index,
	// Value 1 when the line was dead (never referenced after its fill).
	// Emitted only when cache introspection is enabled.
	KindCacheEvict
	numKinds
)

var kindNames = [...]string{
	"cycle", "cache-hit", "cache-miss", "fetch-issue", "fetch-complete",
	"prefetch-issue", "prefetch-complete", "prefetch-blocked", "branch-flush",
	"queue-depth", "bus-busy", "mem-accept", "retire", "loop-enter", "loop-exit",
	"cache-evict",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Queue identifies a hardware queue in KindQueueDepth events.
type Queue uint8

// Queue identifiers.
const (
	QueueIQ  Queue = iota // PIPE Instruction Queue
	QueueIQB              // PIPE Instruction Queue Buffer
	QueueTIB              // TIB sequential fetch buffer
	QueueLAQ              // Load Address Queue
	QueueLDQ              // Load Data Queue
	QueueSAQ              // Store Address Queue
	QueueSDQ              // Store Data Queue
	NumQueues
)

var queueNames = [...]string{"IQ", "IQB", "TIBBuf", "LAQ", "LDQ", "SAQ", "SDQ"}

// String names the queue.
func (q Queue) String() string {
	if int(q) < len(queueNames) {
		return queueNames[q]
	}
	return "queue(?)"
}

// Event is one typed occurrence in a simulation. Cycle is stamped by the
// simulator core; emitting components leave it zero.
type Event struct {
	Kind  Kind
	Cycle uint64
	Addr  uint32 // PC / line address / request address (kind-specific)
	Arg   uint32 // bucket / queue / request kind / loop number
	Value uint64 // occupancy / words / issue cycle
}

// Probe consumes the event stream. Implementations must not mutate
// simulator state; they are called synchronously from inside the simulated
// cycle.
type Probe interface {
	Event(e Event)
}

// ProbeFunc adapts a plain function to the Probe interface.
type ProbeFunc func(e Event)

// Event calls the function.
func (f ProbeFunc) Event(e Event) { f(e) }

// Multi fans one event stream out to several probes.
type Multi []Probe

// Event forwards the event to every probe.
func (m Multi) Event(e Event) {
	for _, p := range m {
		p.Event(e)
	}
}

// Kinds is the union of the kinds the probes consume: each member receives
// every kind in it and ignores those it does not consume.
func (m Multi) Kinds() Kinds {
	var k Kinds
	for _, p := range m {
		k |= Consumes(p)
	}
	return k
}

// Stamper fills in Event.Cycle from a shared clock before forwarding to the
// target probe. The simulator core wraps every attached probe in one so
// that emitting components do not need their own cycle counters.
type Stamper struct {
	Clock  *uint64
	Target Probe
}

// Event stamps and forwards.
func (s *Stamper) Event(e Event) {
	e.Cycle = *s.Clock
	s.Target.Event(e)
}

// Kinds is what the target consumes.
func (s *Stamper) Kinds() Kinds { return Consumes(s.Target) }

// LoopRange maps one Livermore loop to its PC range [Start, End) in the
// program image. The simulator core watches the retirement stream and
// emits KindLoopEnter/KindLoopExit events at range transitions.
type LoopRange struct {
	Loop  int // 1-based loop number
	Name  string
	Start uint32 // first PC of the loop's code (prologue included)
	End   uint32 // first PC past the loop's code
}

// Counter is a trivial probe counting events per kind, for tests and quick
// diagnostics.
type Counter struct {
	Counts [numKinds]uint64
}

// Event tallies the event.
func (c *Counter) Event(e Event) {
	if int(e.Kind) < len(c.Counts) {
		c.Counts[e.Kind]++
	}
}
