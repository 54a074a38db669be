// Package cpu implements the five-stage PIPE processor pipeline:
// Instruction Fetch, Instruction Decode, Instruction Issue, ALU1 and ALU2.
//
// The model is cycle-accurate for the properties the paper measures and
// functionally exact: every instruction computes real values, so the
// Livermore-loop kernels produce checkable numerical results. Operands are
// read and results computed as an instruction issues (full forwarding: a
// dependent instruction can issue the cycle after its producer, so ALU
// dependences never stall). What does stall issue, exactly as in the PIPE
// architecture, is the decoupled memory access path:
//
//   - reading R7 pops the Load Data Queue and blocks while it is empty —
//     the fundamental mechanism by which memory latency reaches the
//     pipeline;
//   - a full Load Address Queue, Store Address Queue or Store Data Queue
//     blocks the instruction that would push it;
//   - an empty instruction supply (the fetch engine has nothing to offer)
//     starves the front end.
//
// Memory operations dispatch from the queues to the external memory system
// in strict program order, one per cycle (one address-bus slot). A store to
// one of the FPU trigger addresses reserves a Load Data Queue slot for the
// operation's result, which returns over the input bus tagged with that
// reservation; an in-order completion buffer guarantees LDQ values appear
// in program order even when a fast load overtakes a slow FPU result.
package cpu

import (
	"fmt"

	"pipesim/internal/cache"
	"pipesim/internal/fetch"
	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/queue"
	"pipesim/internal/stats"
)

// Config sizes the architectural queues and the optional on-chip data
// cache.
type Config struct {
	LAQDepth int // Load Address Queue entries
	LDQDepth int // Load Data Queue entries (R7 read side)
	SAQDepth int // Store Address Queue entries
	SDQDepth int // Store Data Queue entries (R7 write side)

	// DCacheBytes enables a small on-chip data cache (0 = none, the
	// paper's machine). The paper's conclusion suggests exactly this
	// future use of higher circuit densities. The cache is direct
	// mapped, write-through and write-allocate at word granularity; a
	// load hit returns in one cycle without touching the busses.
	DCacheBytes     int
	DCacheLineBytes int // tag granularity; defaults to 16 when zero
}

// DefaultConfig returns the queue depths used throughout the paper's
// simulations (deep enough that data queues are not the bottleneck).
func DefaultConfig() Config {
	return Config{LAQDepth: 8, LDQDepth: 8, SAQDepth: 8, SDQDepth: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LAQDepth < 1 || c.LDQDepth < 1 || c.SAQDepth < 1 || c.SDQDepth < 1 {
		return fmt.Errorf("cpu: queue depths must be at least 1: %+v", c)
	}
	return nil
}

// slot is one pipeline latch.
type slot struct {
	valid bool
	pc    uint32
	in    isa.Decoded // the instruction and its timing class

	// Values computed at issue, applied at the timed stages.
	result   int32  // register result (also SDQ datum for R7 writes)
	memAddr  uint32 // effective address for LD/ST
	pbrTaken bool
	pbrBn    uint8
}

// laqEntry is a queued load address. seq is the program-order tag assigned
// when the address was generated, used to interleave loads and stores in
// program order at the memory interface.
type laqEntry struct {
	addr uint32
	seq  uint64
}

// saqEntry is a queued store address.
type saqEntry struct {
	addr uint32
	seq  uint64
}

// dcacheHit is a data-cache hit scheduled to fill its LDQ reservation on
// the next cycle (one-cycle on-chip access).
type dcacheHit struct {
	seq   uint64
	value uint32
	at    uint64
}

// arrivedSlot is one entry of the LDQ in-order completion buffer.
type arrivedSlot struct {
	value int32
	valid bool
}

// CPU is the processor model.
type CPU struct {
	cfg Config
	eng fetch.Engine
	sys *mem.System
	st  *stats.CPU

	regs  [isa.NumDataRegs]int32
	bank  [isa.QueueReg]int32 // background register set (R7 is not banked)
	bregs [isa.NumBranchRegs]uint32

	// Pipeline latches: id <- fetch, is <- id, ex1 <- is, ex2 <- ex1.
	id, is, ex1, ex2 slot

	// The architectural queues, held by value: one indirection less on
	// every per-cycle queue test.
	laq queue.Queue[laqEntry]
	ldq queue.Queue[int32]
	saq queue.Queue[saqEntry]
	sdq queue.Queue[int32]

	// LDQ sequencing: slots are reserved in dispatch (= program) order;
	// arrivals are buffered and pushed in order. The reorder buffer is a
	// power-of-two ring of at least LDQDepth slots indexed seq&arrivedMask:
	// at most LDQDepth reservations are outstanding (the dispatch gate), so
	// slots never collide.
	ldqSeqNext    uint64
	ldqSeqHead    uint64
	arrived       []arrivedSlot
	arrivedMask   uint64
	inflightLoads int

	// memSeqNext tags LAQ/SAQ entries in program order at address
	// generation (EX1).
	memSeqNext uint64

	// lastData throttles dispatch: the address bus holds one data request
	// until the memory interface accepts it, so the architectural queues
	// (not a hidden buffer) absorb memory-system backpressure.
	lastData mem.Handle

	// fst caches eng.Stats() so starvation accounting does not repeat the
	// interface dispatch every starved cycle.
	fst *stats.Fetch

	// dec, when non-nil, is the image's shared predecoded text segment:
	// the instruction at byte address 4*i is dec[i] (fixed format only).
	// Taking an instruction then skips the decode and the timing-class
	// resolution entirely.
	dec []isa.Decoded

	fetchHalted bool // HALT has been fetched; stop consuming
	halted      bool // HALT has retired
	execErr     error

	cycle      uint64            // local cycle counter (Tick calls)
	lastBucket stats.CycleBucket // attribution of the last ticked cycle

	// Optional data cache: presence bits only; values come from the
	// memory image, which is exact because loads dispatch only after
	// every older store has been accepted and applied.
	dcache *cache.Cache
	dhits  []dcacheHit // hits delivering next cycle

	// OnRetire, when set, observes every retired instruction (used by the
	// tracing facility). It must not mutate simulator state.
	OnRetire func(cycle uint64, pc uint32, in isa.Inst)

	// probe, when set, receives typed observability events; the per-cycle
	// attribution event (obs.KindCycle) is emitted exactly once per Tick.
	// lastDepth tracks the last-emitted occupancy of each architectural
	// queue so depth events fire only on change.
	probe     obs.Probe
	lastDepth [obs.NumQueues]int

	// Single-level interrupt state (paper §3.1: "a single-level
	// interrupt"). Entry waits for a clean boundary: no open delay-slot
	// window, no unresolved PBR, pipeline drained. The hardware then
	// saves the resume address in B7, exchanges the register banks (this
	// is what the background set is for), and redirects fetch to the
	// vector. The handler must not touch R7 or the data queues and
	// returns with `bank` followed by `pbr al, r0, b7, 0`.
	irqPending  bool
	irqVector   uint32
	irqDraining bool
	irqTaken    bool // single-level: at most one interrupt per run
	windowOpen  int  // delay slots still to fetch for the newest PBR
	pbrInFlight int  // PBRs consumed but not yet resolved
}

// New builds a CPU reading instructions from eng and memory through sys.
func New(cfg Config, eng fetch.Engine, sys *mem.System, st *stats.CPU) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &stats.CPU{}
	}
	laq, err := queue.New[laqEntry](cfg.LAQDepth)
	if err != nil {
		return nil, fmt.Errorf("cpu: LAQ: %w", err)
	}
	ldq, err := queue.New[int32](cfg.LDQDepth)
	if err != nil {
		return nil, fmt.Errorf("cpu: LDQ: %w", err)
	}
	saq, err := queue.New[saqEntry](cfg.SAQDepth)
	if err != nil {
		return nil, fmt.Errorf("cpu: SAQ: %w", err)
	}
	sdq, err := queue.New[int32](cfg.SDQDepth)
	if err != nil {
		return nil, fmt.Errorf("cpu: SDQ: %w", err)
	}
	ring := 1
	for ring < cfg.LDQDepth {
		ring <<= 1
	}
	c := &CPU{
		cfg:         cfg,
		eng:         eng,
		sys:         sys,
		st:          st,
		laq:         *laq,
		ldq:         *ldq,
		saq:         *saq,
		sdq:         *sdq,
		arrived:     make([]arrivedSlot, ring),
		arrivedMask: uint64(ring - 1),
		fst:         eng.Stats(),
	}
	if cfg.DCacheBytes > 0 {
		line := cfg.DCacheLineBytes
		if line == 0 {
			line = 16
		}
		dc, err := cache.New(cfg.DCacheBytes, line, 4)
		if err != nil {
			return nil, err
		}
		c.dcache = dc
	}
	sys.SetDataOwner(c)
	return c, nil
}

// DataWord receives a data load's word or an FPU result (mem.DataOwner).
// An FPU result's nominal address lies in the FPU range, so only loads
// allocate in the data cache.
func (c *CPU) DataWord(addr, w uint32, seq uint64) {
	if c.dcache != nil && addr < program.FPUBase {
		c.dcache.FillSub(addr) // load-allocate
	}
	c.loadArrived(seq, w)
}

// SetDecodeTable installs the image's shared predecoded text segment (see
// program.Image.Decoded). Fixed-format images only; pass nil to decode from
// the instruction word on every take.
func (c *CPU) SetDecodeTable(dec []isa.Decoded) { c.dec = dec }

// SetProbe attaches an observability probe. Call before the first Tick.
func (c *CPU) SetProbe(p obs.Probe) {
	c.probe = p
	for i := range c.lastDepth {
		c.lastDepth[i] = -1
	}
}

// Halted reports whether the HALT instruction has retired.
func (c *CPU) Halted() bool { return c.halted }

// Err returns the first execution error (undefined opcode), if any.
func (c *CPU) Err() error { return c.execErr }

// Reg returns the current value of data register r (for tests/examples).
func (c *CPU) Reg(r int) int32 { return c.regs[r] }

// DebugState renders the architectural-queue occupancy and pipeline state
// in one line, for deadlock and machine-check diagnostics: a stall on an
// empty LDQ with no load in flight, for example, reads directly off it.
func (c *CPU) DebugState() string {
	return fmt.Sprintf("cpu{laq %d/%d ldq %d/%d saq %d/%d sdq %d/%d inflight-loads %d "+
		"stalls[ldq-empty %d queue-full %d fetch-empty %d] pbr-inflight %d halted=%v fetch-halted=%v}",
		c.laq.Len(), c.laq.Cap(), c.ldq.Len(), c.ldq.Cap(),
		c.saq.Len(), c.saq.Cap(), c.sdq.Len(), c.sdq.Cap(), c.inflightLoads,
		c.st.StallLDQEmpty, c.st.StallQueueFull, c.st.StallFetchEmpty,
		c.pbrInFlight, c.halted, c.fetchHalted)
}

// RaiseInterrupt requests the single-level interrupt: at the next clean
// instruction boundary the CPU saves the resume address in B7, switches to
// the background register bank, and redirects fetch to vector. Only the
// first request in a run is honoured (single-level).
func (c *CPU) RaiseInterrupt(vector uint32) {
	if c.irqTaken || c.halted {
		return
	}
	c.irqPending = true
	c.irqVector = vector
}

// loadArrived buffers a returned load/FPU value and pushes buffered values
// into the LDQ in reservation order.
func (c *CPU) loadArrived(seq uint64, value uint32) {
	c.arrived[seq&c.arrivedMask] = arrivedSlot{value: int32(value), valid: true}
	for {
		s := &c.arrived[c.ldqSeqHead&c.arrivedMask]
		if !s.valid {
			break
		}
		c.ldq.MustPush(s.value) // slot was reserved at dispatch
		s.valid = false
		c.inflightLoads--
		c.ldqSeqHead++
	}
}

// Tick advances the processor one cycle. Call after the fetch engine's Tick
// and before the memory system's EndCycle.
//
// Every Tick attributes its cycle to exactly one stats.CycleBucket, so the
// buckets always sum to the run's total cycle count. Phases with nothing to
// do (an empty latch, no interrupt draining, no queued memory operation)
// are skipped at the call site, so an idle phase costs no call.
func (c *CPU) Tick() {
	c.cycle++
	if c.halted || c.execErr != nil {
		c.account(stats.CycleDrain)
		if c.dispatchPending() {
			c.dispatchMemory()
		}
		return
	}
	if c.ex2.valid {
		c.retire() // EX2
	}
	if c.ex1.valid {
		c.execute() // EX1 (timed effects of the instruction that issued last cycle)
	}
	stalled, bucket := c.issue()
	if !stalled {
		c.decodeAndFetch()
	}
	c.account(bucket)
	if c.irqDraining {
		c.maybeEnterInterrupt()
	}
	if c.dispatchPending() {
		c.dispatchMemory()
	}
	if c.probe != nil {
		c.sampleQueues()
	}
}

// dispatchPending reports whether dispatchMemory has anything to look at:
// a data-cache hit to deliver or a queued load or store address.
func (c *CPU) dispatchPending() bool {
	return len(c.dhits) > 0 || !c.laq.Empty() || !c.saq.Empty()
}

// StallProfile classifies what the next Tick would do, for the core's
// skip-ahead machinery. StallNone means Tick can change machine state and
// must run; every other value names a foldable stall: a Tick that would
// only bump the cycle counter and a fixed set of per-cycle counters,
// leaving all other state untouched. While the fetch engine and memory
// system are also quiescent, the core may replace n such Ticks with one
// FoldStall(profile, n) call and produce bit-identical results.
type StallProfile uint8

// Foldable stall profiles. Each names the per-cycle counter set a folded
// Tick of that kind would have incremented.
const (
	StallNone      StallProfile = iota // active: Tick must run
	StallDrain                         // post-HALT drain (CycleDrain)
	StallStarved                       // supply empty (CycleFetchStarved + starvation counters)
	StallQueueFull                     // full LAQ/SAQ/SDQ (CycleQueueFull + StallQueueFull)
	StallLDQWait                       // empty LDQ (CycleLDQWait + StallLDQEmpty)

	// StallRetire marks a stall whose first cycle also retires the
	// instruction waiting in EX2 — the retire fold. Retirement touches
	// only counters, so a span that begins with it still folds; the core
	// records the span's first cycle as the watchdog's last progress. It
	// combines with StallStarved, StallQueueFull and StallLDQWait, never
	// with HALT (retiring it ends the run) and never while a retire hook
	// is attached (the hook observes the retirement cycle).
	StallRetire StallProfile = 0x80
)

// Retires reports whether the profile's first folded cycle retires the
// instruction in EX2.
func (p StallProfile) Retires() bool { return p&StallRetire != 0 }

// StallProfile classifies the CPU's current state read-only, mirroring the
// decision structure of Tick exactly. Conservative: anything it cannot
// prove to be a pure counter fold is StallNone.
func (c *CPU) StallProfile() StallProfile {
	if c.halted || c.execErr != nil {
		if c.dispatchQuiescent() {
			return StallDrain
		}
		return StallNone
	}
	if c.ex1.valid {
		return StallNone // execute would act
	}
	if c.ex2.valid && (c.ex2.in.Op == isa.OpHALT || c.OnRetire != nil) {
		return StallNone // retiring HALT ends the run; a hook observes the cycle
	}
	var p StallProfile
	if c.is.valid {
		// Mirror issue()'s stall checks; no push is pending because ex1
		// is invalid here.
		cls := c.is.in.Class
		switch {
		case c.pushBlocked(cls, 0):
			p = StallQueueFull
		case c.ldq.Len() >= cls.LDQPops():
			return StallNone // would issue
		default:
			p = StallLDQWait
		}
	} else {
		// Front-end bubble: decodeAndFetch would run. Anything that moves
		// a latch, begins interrupt entry, or consumes an instruction is
		// active; only true starvation (engine has nothing) folds.
		if c.id.valid || c.irqDraining || c.fetchHalted {
			return StallNone
		}
		if c.irqPending && c.windowOpen == 0 && c.pbrInFlight == 0 {
			return StallNone // interrupt entry would begin draining
		}
		if _, _, ok := c.eng.Head(); ok {
			return StallNone // an instruction would be consumed
		}
		p = StallStarved
	}
	if !c.dispatchQuiescent() {
		return StallNone
	}
	if c.ex2.valid {
		p |= StallRetire
	}
	return p
}

// dispatchQuiescent mirrors dispatchMemory read-only: true when the next
// call provably submits nothing and delivers nothing. The data-cache probe
// deliberately stays off this path — Lookup counts hits/misses, and a
// dispatchable load head is active regardless of where its value comes
// from.
func (c *CPU) dispatchQuiescent() bool {
	if len(c.dhits) > 0 {
		return false // a one-cycle data-cache hit is due next cycle
	}
	if c.lastData.Queued() {
		return true // waiting on the interface: acceptance is a memory event
	}
	la, laOK := c.laq.Peek()
	sa, saOK := c.saq.Peek()
	if laOK && saOK {
		if la.seq < sa.seq {
			saOK = false
		} else {
			laOK = false
		}
	}
	switch {
	case saOK:
		if c.sdq.Empty() {
			return true // the datum has not reached the SDQ head yet
		}
		if mem.IsFPUTrigger(sa.addr) && c.ldq.Len()+c.inflightLoads >= c.ldq.Cap() {
			return true // result needs an LDQ slot; the store holds
		}
		return false
	case laOK:
		return c.ldq.Len()+c.inflightLoads >= c.ldq.Cap()
	}
	return true
}

// FoldStall applies n cycles of a foldable stall profile at once: exactly
// the counter increments n consecutive Ticks in that state would have
// performed, with no other state change. The caller (the core's skip-ahead)
// guarantees the profile was just reported by StallProfile and that no
// external event lands inside the folded span.
func (c *CPU) FoldStall(p StallProfile, n uint64) {
	if p.Retires() {
		c.retire() // in the span's first cycle, before its stall
		p &^= StallRetire
	}
	c.cycle += n
	switch p {
	case StallDrain:
		c.st.CycleBuckets[stats.CycleDrain] += n
	case StallStarved:
		c.st.CycleBuckets[stats.CycleFetchStarved] += n
		c.st.StallFetchEmpty += n
		c.fst.StarvedCycles += n
	case StallQueueFull:
		c.st.CycleBuckets[stats.CycleQueueFull] += n
		c.st.StallQueueFull += n
	case StallLDQWait:
		c.st.CycleBuckets[stats.CycleLDQWait] += n
		c.st.StallLDQEmpty += n
	}
}

// account classifies the current cycle.
func (c *CPU) account(bucket stats.CycleBucket) {
	c.st.CycleBuckets[bucket]++
	c.lastBucket = bucket
	if c.probe != nil {
		c.probe.Event(obs.Event{Kind: obs.KindCycle, Arg: uint32(bucket)})
	}
}

// MaybeStalled reports whether the cycle just ticked was attributed to a
// stall or drain bucket. A false return proves StallProfile would answer
// StallNone (a successful issue leaves EX1 occupied; CycleOther covers
// interrupt drains and front-end halt bubbles, which never fold), so the
// core's skip-ahead uses this one-comparison gate to bypass the full
// quiescence analysis on active cycles. The converse does not hold: a
// stall bucket only makes folding worth checking, not certain.
func (c *CPU) MaybeStalled() bool {
	return c.lastBucket != stats.CycleIssue && c.lastBucket != stats.CycleOther
}

// sampleQueues emits occupancy events for the architectural queues that
// changed since the last sample (probe attached only).
func (c *CPU) sampleQueues() {
	sample := func(q obs.Queue, n int) {
		if c.lastDepth[q] == n {
			return
		}
		c.lastDepth[q] = n
		c.probe.Event(obs.Event{Kind: obs.KindQueueDepth, Arg: uint32(q), Value: uint64(n)})
	}
	sample(obs.QueueLAQ, c.laq.Len())
	sample(obs.QueueLDQ, c.ldq.Len())
	sample(obs.QueueSAQ, c.saq.Len())
	sample(obs.QueueSDQ, c.sdq.Len())
}

// maybeEnterInterrupt performs interrupt entry once the pipeline has
// drained past a clean boundary. Call only while an entry is draining.
func (c *CPU) maybeEnterInterrupt() {
	if c.id.valid || c.is.valid || c.ex1.valid || c.ex2.valid {
		return // still draining
	}
	c.irqDraining = false
	c.irqTaken = true
	c.bregs[isa.NumBranchRegs-1] = c.eng.ResumePC()
	for i := 0; i < isa.QueueReg; i++ { // hardware bank switch
		c.regs[i], c.bank[i] = c.bank[i], c.regs[i]
	}
	c.eng.Redirect(c.irqVector)
}

// retire completes the instruction in EX2, which must be valid.
func (c *CPU) retire() {
	in := c.ex2.in
	c.st.Instructions++
	if c.OnRetire != nil {
		c.OnRetire(c.cycle, c.ex2.pc, in.Inst)
	}
	switch in.Op {
	case isa.OpHALT:
		c.halted = true
	case isa.OpPBR:
		c.st.Branches++
		if c.ex2.pbrTaken {
			c.st.TakenBranches++
		}
	case isa.OpLD:
		c.st.Loads++
	case isa.OpST:
		c.st.Stores++
	}
	c.ex2.valid = false
}

// execute applies the EX1-stage timed effects (queue pushes and the PBR
// resolution) and moves the instruction, which must be valid, to EX2.
func (c *CPU) execute() {
	if c.ex2.valid {
		panic("cpu: EX2 occupied at EX1 advance")
	}
	c.ex2 = c.ex1
	c.ex1.valid = false
	s := &c.ex2
	switch cls := s.in.Class; {
	case cls&isa.PushLAQ != 0:
		c.laq.MustPush(laqEntry{addr: s.memAddr, seq: c.memSeqNext})
		c.memSeqNext++
	case cls&isa.PushSAQ != 0:
		c.saq.MustPush(saqEntry{addr: s.memAddr, seq: c.memSeqNext})
		c.memSeqNext++
	case cls&isa.PushSDQ != 0:
		c.sdq.MustPush(s.result)
	case s.in.Op == isa.OpPBR:
		c.pbrInFlight--
		c.eng.Resolve(s.pbrTaken, c.bregs[s.pbrBn])
	}
}

// pushBlocked reports whether the queue an instruction of class cls pushes
// at EX1 is full, counting the push still pending from the instruction in
// EX1 (class pend, or zero when EX1 is empty). It inlines the common case
// of an instruction that pushes nothing.
func (c *CPU) pushBlocked(cls, pend isa.Class) bool {
	return cls&isa.Pushes != 0 && c.pushFull(cls, pend)
}

// pushFull is pushBlocked for an instruction that pushes a queue. An
// instruction pushes at most one.
func (c *CPU) pushFull(cls, pend isa.Class) bool {
	var n, capacity int
	switch {
	case cls&isa.PushLAQ != 0:
		n, capacity = c.laq.Len(), c.laq.Cap()
	case cls&isa.PushSAQ != 0:
		n, capacity = c.saq.Len(), c.saq.Cap()
	case cls&isa.PushSDQ != 0:
		n, capacity = c.sdq.Len(), c.sdq.Cap()
	default:
		return false
	}
	if pend&cls&isa.Pushes != 0 {
		n++
	}
	return n >= capacity
}

// issue reads operands, computes the result, and moves the instruction from
// IS to EX1. It reports whether issue stalled (freezing ID and IF) and the
// attribution bucket for this cycle.
func (c *CPU) issue() (stalled bool, bucket stats.CycleBucket) {
	if !c.is.valid {
		// Nothing to issue: a front-end bubble. While the fetch side is
		// merely slow this is starvation; once HALT has been fetched or an
		// interrupt entry is draining, the emptiness is intentional.
		if c.fetchHalted || c.irqDraining {
			return false, stats.CycleOther
		}
		return false, stats.CycleFetchStarved
	}
	in := &c.is.in
	cls := in.Class

	// Structural hazards: room in the queue this instruction pushes,
	// counting the in-flight push of the instruction currently in EX1.
	var pend isa.Class
	if c.ex1.valid {
		pend = c.ex1.in.Class
	}
	if c.pushBlocked(cls, pend) {
		c.st.StallQueueFull++
		return true, stats.CycleQueueFull
	}

	// R7 source operands pop the LDQ; stall until enough data arrived.
	if c.ldq.Len() < cls.LDQPops() {
		c.st.StallLDQEmpty++
		return true, stats.CycleLDQWait
	}
	var a, b int32
	if cls&isa.ReadsRa != 0 {
		if cls&isa.PopsRa != 0 {
			a = c.ldq.MustPop()
		} else {
			a = c.regs[in.Ra]
		}
	}
	if cls&isa.ReadsRb != 0 {
		if cls&isa.PopsRb != 0 {
			b = c.ldq.MustPop()
		} else {
			b = c.regs[in.Rb]
		}
	}

	// Move the latch first and compute in place: building the slot in a
	// temporary and copying it afterwards makes the copy's wide loads wait
	// on compute's narrow stores.
	if c.ex1.valid {
		panic("cpu: EX1 occupied at issue")
	}
	c.ex1 = c.is
	c.is.valid = false
	if err := c.compute(&c.ex1, a, b); err != nil {
		c.ex1.valid = false
		c.execErr = err
		return true, stats.CycleOther
	}
	return false, stats.CycleIssue
}

// compute performs the instruction's functional work at issue time and
// records timed effects in the slot. Register and branch-register writes
// apply immediately (full forwarding); queue pushes are recorded for EX1.
func (c *CPU) compute(s *slot, a, b int32) error {
	in := &s.in
	writeReg := func(v int32) {
		s.result = v
		if in.Rd != isa.QueueReg {
			c.regs[in.Rd] = v
		}
	}
	switch in.Op {
	case isa.OpNOP, isa.OpHALT:
	case isa.OpADD:
		writeReg(a + b)
	case isa.OpSUB:
		writeReg(a - b)
	case isa.OpAND:
		writeReg(a & b)
	case isa.OpOR:
		writeReg(a | b)
	case isa.OpXOR:
		writeReg(a ^ b)
	case isa.OpSLL:
		writeReg(a << (uint32(b) & 31))
	case isa.OpSRL:
		writeReg(int32(uint32(a) >> (uint32(b) & 31)))
	case isa.OpSRA:
		writeReg(a >> (uint32(b) & 31))
	case isa.OpADDI:
		writeReg(a + in.Imm)
	case isa.OpANDI:
		// Logical immediates zero-extend (so ORI can build the low half
		// of an address); arithmetic immediates sign-extend.
		writeReg(a & int32(uint32(in.Imm)&0xFFFF))
	case isa.OpORI:
		writeReg(a | int32(uint32(in.Imm)&0xFFFF))
	case isa.OpXORI:
		writeReg(a ^ int32(uint32(in.Imm)&0xFFFF))
	case isa.OpSLLI:
		writeReg(a << (uint32(in.Imm) & 31))
	case isa.OpSRLI:
		writeReg(int32(uint32(a) >> (uint32(in.Imm) & 31)))
	case isa.OpSRAI:
		writeReg(a >> (uint32(in.Imm) & 31))
	case isa.OpLI:
		writeReg(in.Imm)
	case isa.OpLUI:
		writeReg(in.Imm << 16)
	case isa.OpLD, isa.OpST:
		s.memAddr = uint32(a+in.Imm) & program.AddrMask
	case isa.OpSETB:
		c.bregs[in.Bn] = uint32(in.Imm)
	case isa.OpSETBR:
		c.bregs[in.Bn] = uint32(a) & program.AddrMask
	case isa.OpBANK:
		// Exchange foreground and background registers R0..R6.
		for i := 0; i < isa.QueueReg; i++ {
			c.regs[i], c.bank[i] = c.bank[i], c.regs[i]
		}
	case isa.OpPBR:
		s.pbrTaken = in.Cond.Holds(a)
		s.pbrBn = in.Bn
	default:
		return fmt.Errorf("cpu: undefined opcode %#02x at pc %#x", uint8(in.Op), s.pc)
	}
	return nil
}

// decodeAndFetch moves ID to IS and consumes the next instruction from the
// fetch engine into ID.
func (c *CPU) decodeAndFetch() {
	if c.is.valid {
		panic("cpu: IS occupied after successful issue")
	}
	c.is = c.id
	c.id.valid = false
	if c.fetchHalted || c.irqDraining {
		return
	}
	// Interrupt entry may only begin at a clean boundary: no delay slots
	// owed and no unresolved branch in flight.
	if c.irqPending && c.windowOpen == 0 && c.pbrInFlight == 0 {
		c.irqPending = false
		c.irqDraining = true
		return
	}
	pc, w, ok := c.eng.Take()
	if !ok {
		c.st.StallFetchEmpty++
		c.fst.StarvedCycles++
		return
	}
	// Field by field: a slot literal is built on the stack and copied,
	// and the copy stalls on the literal's partial stores. The fields
	// left stale are written at issue before anything reads them.
	c.id.valid = true
	c.id.pc = pc
	if idx := (pc - program.TextBase) / isa.WordBytes; c.dec != nil &&
		pc%isa.WordBytes == 0 && idx < uint32(len(c.dec)) {
		c.id.in = c.dec[idx]
	} else {
		c.id.in = isa.Predecode(w)
	}
	if c.windowOpen > 0 {
		c.windowOpen--
	}
	switch c.id.in.Op {
	case isa.OpHALT:
		c.fetchHalted = true
	case isa.OpPBR:
		c.windowOpen = int(c.id.in.N)
		c.pbrInFlight++
	}
}

// dispatchMemory sends at most one data request per cycle (one address-bus
// slot) to the memory system, in strict program order: the Load Address
// Queue and the Store Address/Data Queue pair drain in the order the
// instructions executed, which the single-issue in-order pipeline
// guarantees matches program order.
func (c *CPU) dispatchMemory() {
	// Deliver data-cache hits that completed their one-cycle access.
	if len(c.dhits) > 0 {
		kept := c.dhits[:0]
		for _, h := range c.dhits {
			if h.at <= c.cycle {
				c.loadArrived(h.seq, h.value)
			} else {
				kept = append(kept, h)
			}
		}
		c.dhits = kept
	}
	if c.lastData.Queued() {
		return // previous data request still waiting for the interface
	}
	la, laOK := c.laq.Peek()
	sa, saOK := c.saq.Peek()
	// Strict program order: dispatch the older queue head; a not-yet-
	// ready older store blocks younger loads (the conservative PIPE
	// memory-interface rule that keeps same-address ordering correct).
	if laOK && saOK {
		if la.seq < sa.seq {
			saOK = false
		} else {
			laOK = false
		}
	}
	switch {
	case saOK:
		if c.sdq.Empty() {
			return // the datum has not reached the SDQ head yet
		}
		fpuTrigger := mem.IsFPUTrigger(sa.addr)
		if fpuTrigger && c.ldq.Len()+c.inflightLoads >= c.ldq.Cap() {
			return // the result needs an LDQ slot; hold the store
		}
		c.saq.MustPop()
		datum := c.sdq.MustPop()
		req := mem.Request{Kind: stats.ReqDataStore, Addr: sa.addr &^ 3, Size: 4, Store: true, Word: uint32(datum)}
		if fpuTrigger {
			req.Seq = c.ldqSeqNext
			c.ldqSeqNext++
			c.inflightLoads++
		}
		if c.dcache != nil && !fpuTrigger && sa.addr < program.FPUBase {
			// Write-through, write-allocate: the word becomes
			// cacheable; the store still travels down the bus.
			c.dcache.FillSub(sa.addr &^ 3)
		}
		c.lastData = c.sys.Submit(req)
	case laOK:
		if c.ldq.Len()+c.inflightLoads >= c.ldq.Cap() {
			return // no LDQ room; hold the load
		}
		if c.dcache != nil && la.addr < program.FPUBase && c.dcache.Lookup(la.addr&^3) {
			// On-chip hit: one-cycle access, no bus traffic. Every
			// older store has already been accepted and applied (the
			// single outstanding data request gate), so the memory
			// image holds the architecturally correct value.
			c.laq.MustPop()
			c.st.DCacheHits++
			seq := c.ldqSeqNext
			c.ldqSeqNext++
			c.inflightLoads++
			c.dhits = append(c.dhits, dcacheHit{seq: seq, value: c.sys.ReadWord(la.addr &^ 3), at: c.cycle + 1})
			return
		}
		if c.dcache != nil {
			c.st.DCacheMisses++
		}
		c.laq.MustPop()
		seq := c.ldqSeqNext
		c.ldqSeqNext++
		c.inflightLoads++
		c.lastData = c.sys.Submit(mem.Request{Kind: stats.ReqDataLoad, Addr: la.addr &^ 3, Size: 4, Seq: seq})
	}
}

// Drained reports whether the CPU-side memory machinery is idle: no queued
// addresses or store data and no outstanding loads.
func (c *CPU) Drained() bool {
	return c.laq.Empty() && c.saq.Empty() && c.sdq.Empty() && c.inflightLoads == 0
}
