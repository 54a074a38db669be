package fetch

import (
	"fmt"

	"pipesim/internal/cache"
	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/queue"
	"pipesim/internal/stats"
)

// PipeConfig sizes the PIPE instruction-fetch hardware. The paper's Table
// II configurations are (line, IQ, IQB) = (8,8,8), (16,16,16), (32,16,32)
// and (32,32,32) bytes.
type PipeConfig struct {
	CacheBytes int // total cache capacity
	LineBytes  int // cache line size; also the off-chip fetch unit
	IQBytes    int // Instruction Queue capacity
	IQBBytes   int // Instruction Queue Buffer capacity (>= LineBytes)
	// TruePrefetch permits off-chip prefetch of lines that are not yet
	// guaranteed to contain an executed instruction. All results presented
	// in the paper enable it; disabling it reproduces the original PIPE
	// chip policy, which the paper reports as a performance penalty.
	TruePrefetch bool
	// DeepPrefetch lets the engine refill the IQB whenever a whole line
	// of space is free rather than only when it is empty, so an IQB
	// larger than one line holds multiple lines of lookahead. The paper's
	// design refills only an empty IQB; this is a beyond-paper extension.
	DeepPrefetch bool
	// Introspector, when set, receives every demand reference at the
	// engine's hit/miss accounting sites, so the shadow models' per-class
	// totals sum to CacheMisses.
	Introspector *cache.Introspector
}

// Validate reports configuration errors.
func (c PipeConfig) Validate() error {
	if c.IQBytes < isa.WordBytes {
		return fmt.Errorf("fetch: IQ size %d too small", c.IQBytes)
	}
	if c.IQBBytes < c.LineBytes {
		return fmt.Errorf("fetch: IQB size %d smaller than line size %d", c.IQBBytes, c.LineBytes)
	}
	if c.IQBytes%isa.WordBytes != 0 || c.IQBBytes%isa.WordBytes != 0 {
		return fmt.Errorf("fetch: IQ/IQB sizes must be multiples of %d bytes", isa.WordBytes)
	}
	return nil
}

// entry is one queued instruction with its address and encoded byte length
// (always 4 in the fixed format; 2 or 4 in the native parcel format).
type entry struct {
	addr   uint32
	word   uint32
	nbytes uint32
}

// redirect records a resolved taken branch whose delay-slot window has not
// been fully fetched yet: once sequential fetch reaches From, it continues
// at To.
type redirect struct {
	from, to uint32
}

// Pipe is the paper's instruction-fetch strategy: a small direct-mapped
// instruction cache backed by the IQ and IQB. The IQ, when not empty,
// contains only instructions guaranteed to execute; the IQB holds the next
// chunk of the (possibly speculative) stream. The control logic scans for
// PBR instructions as words are consumed, stops inserting wrong-path words
// the moment a taken branch resolves, and redirects off-chip fetch to the
// branch target.
type Pipe struct {
	cfg   PipeConfig
	cache *cache.Cache
	img   *program.Image
	sys   *mem.System
	st    stats.Fetch
	str   streamer

	iq  queue.Queue[entry] // held by value: one indirection less per use
	iqb queue.Queue[entry]

	fetchAddr uint32     // next stream address not yet queued or in flight
	redirects []redirect // future fetch-path redirects, oldest first

	inflight       bool
	inflightLine   uint32 // line-aligned address of the in-flight request
	inflightFrom   uint32 // first address whose word enters the IQB
	inflightInsert bool   // false once a taken branch killed the insert
	inflightDemand bool   // accepted at demand (vs prefetch) priority
	inflightHandle mem.Handle

	// Native format: a two-parcel instruction can straddle a line
	// boundary; with a tiny cache, fetching the second line may evict the
	// first. The hardware holds the already-seen first parcel in a latch,
	// modeled by capAddr/capValid.
	capAddr  uint32
	capValid bool

	// Port emits fetch events; lastIQ/lastIQB track the last-emitted
	// queue occupancies so depth events fire only on change.
	obs.Port
	lastIQ  int
	lastIQB int

	// intr is PipeConfig.Introspector.
	intr *cache.Introspector

	lineWords int // LineBytes / isa.WordBytes
}

var _ Engine = (*Pipe)(nil)

// NewPipe builds a PIPE fetch engine starting at entry pc.
func NewPipe(cfg PipeConfig, cacheArr *cache.Cache, img *program.Image, sys *mem.System, pc uint32) (*Pipe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cacheArr.LineBytes() != cfg.LineBytes {
		return nil, fmt.Errorf("fetch: cache line %d != config line %d", cacheArr.LineBytes(), cfg.LineBytes)
	}
	iq, err := queue.New[entry](cfg.IQBytes / isa.WordBytes)
	if err != nil {
		return nil, fmt.Errorf("fetch: IQ: %w", err)
	}
	iqb, err := queue.New[entry](cfg.IQBBytes / isa.WordBytes)
	if err != nil {
		return nil, fmt.Errorf("fetch: IQB: %w", err)
	}
	p := &Pipe{
		cfg:   cfg,
		intr:  cfg.Introspector,
		cache: cacheArr,
		img:   img,
		sys:   sys,
		iq:    *iq,
		iqb:   *iqb,

		lastIQ:    -1,
		lastIQB:   -1,
		lineWords: cfg.LineBytes / isa.WordBytes,
	}
	p.str.reset(pc)
	p.str.varlen = img.Native
	p.fetchAddr = pc
	sys.SetFetchOwner(p)
	return p, nil
}

// FetchWords receives one input-bus transfer of the outstanding line
// fill (mem.FetchOwner): the cache fills each word's sub-block and, while
// the insert is live, the words at or past inflightFrom enter the IQB. The
// single-outstanding-request discipline means the inflight* fields fully
// describe the request being serviced.
func (p *Pipe) FetchWords(addr uint32, n int) {
	for end := addr + uint32(n)*isa.WordBytes; addr < end; addr += isa.WordBytes {
		if p.img.Native {
			p.cache.FillSub(addr)
			p.cache.FillSub(addr + isa.ParcelBytes)
			p.drainNative()
			continue
		}
		p.cache.FillSub(addr)
		if !p.inflightInsert || addr < p.inflightFrom {
			continue
		}
		if stop, ok := p.stopAt(); ok && addr >= stop {
			continue
		}
		if p.iqb.Full() {
			panic("fetch: IQB overflow during line fill")
		}
		p.iqb.MustPush(entry{addr: addr, word: p.wordAt(addr), nbytes: isa.WordBytes})
	}
}

// FetchDone completes the outstanding line fill (mem.FetchOwner).
func (p *Pipe) FetchDone() {
	if p.inflightInsert && !p.img.Native {
		p.advanceFetch(p.inflightLine + uint32(p.cfg.LineBytes))
	}
	p.inflight = false
	p.inflightInsert = false
	if p.inflightDemand {
		p.Emit(obs.Event{Kind: obs.KindFetchComplete, Addr: p.inflightLine})
	} else {
		p.Emit(obs.Event{Kind: obs.KindPrefetchComplete, Addr: p.inflightLine})
	}
}

// Stats returns the engine's counters.
func (p *Pipe) Stats() *stats.Fetch { return &p.st }

// DebugState renders the IQ/IQB occupancy and fetch cursor state for
// deadlock diagnostics.
func (p *Pipe) DebugState() string {
	return fmt.Sprintf("pipe{%s iq %d/%d iqb %d/%d fetchAddr %#05x inflight=%v(line %#05x insert=%v) redirects %d}",
		p.str.String(), p.iq.Len(), p.iq.Cap(), p.iqb.Len(), p.iqb.Cap(),
		p.fetchAddr, p.inflight, p.inflightLine, p.inflightInsert, len(p.redirects))
}

// Head reports the instruction at the head of the IQ when it matches the
// next PC of the dynamic stream.
func (p *Pipe) Head() (uint32, uint32, bool) {
	pc, ok := p.str.pc()
	if !ok {
		return 0, 0, false
	}
	ent, ok := p.iq.Peek()
	if !ok {
		return 0, 0, false
	}
	if ent.addr != pc {
		panic(fmt.Sprintf("fetch: IQ head %#x does not match stream PC %#x", ent.addr, pc))
	}
	return pc, ent.word, true
}

// Take pops the IQ head when it is the next PC of the dynamic stream and
// advances the stream past it.
func (p *Pipe) Take() (uint32, uint32, bool) {
	pc, ok := p.str.pc()
	if !ok {
		return 0, 0, false
	}
	ent, ok := p.iq.Pop()
	if !ok {
		return 0, 0, false
	}
	if ent.addr != pc {
		panic(fmt.Sprintf("fetch: IQ head %#x does not match stream PC %#x", ent.addr, pc))
	}
	p.st.SupplyCycles++
	if p.str.consume(ent.word, ent.nbytes) {
		// The stream jumped to a branch target. In the fixed format the
		// fetch path redirected when the branch resolved, so only stale
		// words need flushing; in the native format window-end addresses
		// are unknowable early, so the whole fetch path resynchronizes
		// here.
		if p.img.Native {
			p.resyncFetch(p.str.nextPC)
		} else {
			p.flushWrongPath(p.str.nextPC)
		}
	}
	return pc, ent.word, true
}

// Resolve is called from the CPU's execute stage with the oldest PBR's
// outcome.
func (p *Pipe) Resolve(taken bool, target uint32) {
	// Identify the window being resolved before telling the streamer.
	redirectAt, ok := p.str.oldestUnresolved()
	if !ok {
		panic("fetch: Resolve without pending branch")
	}
	redirected := p.str.resolve(taken, target)
	if !taken {
		return
	}
	p.st.BranchFlushes++
	p.Emit(obs.Event{Kind: obs.KindBranchFlush, Addr: target})
	if p.img.Native {
		// Window-end addresses are unknowable in the variable-length
		// format, so the early trim is skipped: the fetch path keeps
		// running sequentially and resynchronizes when the stream
		// reaches the window end (Consume) — the extra complication the
		// paper attributes to the two-parcel format, modeled as slightly
		// later redirects.
		if redirected {
			p.resyncFetch(target)
		}
		return
	}
	// Drop queued wrong-path words (addresses at or past the window end).
	p.trimQueue(&p.iq, redirectAt)
	p.trimQueue(&p.iqb, redirectAt)
	// Kill the in-flight insert if it is fetching past the window.
	if p.inflight && p.inflightInsert && p.inflightFrom >= redirectAt {
		p.inflightInsert = false
		if p.inflightHandle.Cancel() {
			p.inflight = false
		}
	}
	if p.fetchAddr >= redirectAt {
		// Everything in the window is already queued; fetch the target
		// stream next.
		p.fetchAddr = target
		p.redirects = p.redirects[:0]
	} else {
		// Delay slots remain to be fetched; remember to jump afterwards.
		p.redirects = append(p.redirects, redirect{from: redirectAt, to: target})
	}
	if redirected {
		// The stream was blocked past the window; nextPC is now the
		// target and the queues must restart there.
		p.flushWrongPath(target)
	}
}

// flushWrongPath clears queued words that do not belong to the stream
// resuming at pc.
func (p *Pipe) flushWrongPath(pc uint32) {
	if ent, ok := p.iq.Peek(); ok && ent.addr != pc {
		p.iq.Clear()
	}
	if p.iq.Empty() {
		if ent, ok := p.iqb.Peek(); ok && ent.addr != pc {
			p.iqb.Clear()
		}
	}
}

// trimQueue removes queued entries at or past limit. Entries are contiguous
// ascending addresses, so one full rotation keeps the survivors in FIFO
// order without allocating.
func (p *Pipe) trimQueue(q *queue.Queue[entry], limit uint32) {
	for n := q.Len(); n > 0; n-- {
		e := q.MustPop()
		if e.addr < limit {
			q.MustPush(e)
		}
	}
}

// resyncFetch restarts the fetch path at the branch target (native format):
// wrong-path queue entries are flushed, any in-flight insert is killed, and
// sequential fetch resumes after whatever correct-path entries remain.
func (p *Pipe) resyncFetch(target uint32) {
	p.capValid = false
	p.flushWrongPath(target)
	p.redirects = p.redirects[:0]
	if p.inflight && p.inflightInsert {
		p.inflightInsert = false
		if p.inflightHandle.Cancel() {
			p.inflight = false
		}
	}
	// Resume fetching after the last queued correct-path entry.
	next := target
	if n := p.iqb.Len(); n > 0 {
		tail, _ := p.iqb.At(n - 1)
		next = tail.addr + tail.nbytes
	} else if n := p.iq.Len(); n > 0 {
		tail, _ := p.iq.At(n - 1)
		next = tail.addr + tail.nbytes
	}
	p.fetchAddr = next
}

// ResumePC returns the next unconsumed instruction address.
func (p *Pipe) ResumePC() uint32 { return p.str.nextPC }

// Redirect abandons the stream and restarts at pc (interrupt entry/return).
func (p *Pipe) Redirect(pc uint32) {
	if len(p.str.pending) > 0 {
		panic("fetch: Redirect with a pending branch")
	}
	p.str.reset(pc)
	p.str.varlen = p.img.Native
	p.iq.Clear()
	p.iqb.Clear()
	p.redirects = p.redirects[:0]
	p.capValid = false
	if p.inflight && p.inflightInsert {
		p.inflightInsert = false
		if p.inflightHandle.Cancel() {
			p.inflight = false
		}
	}
	p.fetchAddr = pc
}

// stopAt returns the first address sequential fetch must not queue past
// (the window end of the oldest pending taken redirect).
func (p *Pipe) stopAt() (uint32, bool) {
	if len(p.redirects) > 0 {
		return p.redirects[0].from, true
	}
	return 0, false
}

// advanceFetch moves fetchAddr to next, applying any redirect reached.
func (p *Pipe) advanceFetch(next uint32) {
	p.fetchAddr = next
	for len(p.redirects) > 0 && p.fetchAddr >= p.redirects[0].from {
		p.fetchAddr = p.redirects[0].to
		p.redirects = p.redirects[:copy(p.redirects, p.redirects[1:])] // keep the capacity
	}
}

// Tick advances the fetch engine one cycle: move words from the IQB to an
// empty IQ, fill an empty IQB from the cache, and issue at most one
// off-chip request when the cache misses. Each phase runs only when the
// IQ/IQB state lets it act.
func (p *Pipe) Tick() {
	if p.str.halted {
		return
	}
	if p.fillReady() {
		p.fillIQBFromCache()
	}
	if p.iq.Empty() && !p.iqb.Empty() {
		p.refillIQ()
	}
	if p.On(obs.KindQueueDepth) {
		p.sampleQueues()
	}
}

// fillReady reports whether the IQB wants supply this cycle: it is empty
// (or, with DeepPrefetch, has a whole line of space free) and no insert is
// already streaming into it.
func (p *Pipe) fillReady() bool {
	if p.cfg.DeepPrefetch {
		if p.iqb.Cap()-p.iqb.Len() < p.lineWords {
			return false
		}
	} else if !p.iqb.Empty() {
		return false
	}
	return !p.inflight || !p.inflightInsert
}

// NextEvent reports whether the next Tick can change state (see
// Engine.NextEvent): 0 when the IQB fill or IQ refill would act, mem.NoEvent
// when both are provably no-ops until a line-fill callback or CPU call
// arrives. Read-only: presence probes use LinePresent/Present, never the
// counting LookupLine/Lookup.
func (p *Pipe) NextEvent() uint64 {
	if p.str.halted {
		return mem.NoEvent
	}
	if p.fillReady() && p.fillActive() || p.refillActive() {
		return 0
	}
	return mem.NoEvent
}

// fillActive mirrors fillIQBFromCache read-only: would it mutate anything?
// Call only when fillReady.
func (p *Pipe) fillActive() bool {
	if p.img.Native {
		return p.fillNativeActive()
	}
	lineAddr := p.cache.LineAddr(p.fetchAddr)
	if p.inflight && p.inflightLine == lineAddr {
		return false
	}
	if p.cache.LinePresent(p.fetchAddr) {
		return true // a hit would queue words and advance the cursor
	}
	// Miss: requestLine either issues a request or counts a blocked
	// prefetch — both mutate state every cycle. Only an already
	// outstanding request makes the whole path a pure no-op.
	return !p.inflight
}

// fillNativeActive mirrors fillNative read-only.
func (p *Pipe) fillNativeActive() bool {
	if p.iqb.Full() {
		return false
	}
	_, n := p.instAt(p.fetchAddr)
	if p.parcelsPresent(p.fetchAddr, n) {
		return true // drainNative would insert
	}
	// drainNative's split-instruction latch: active only the cycle it
	// would actually change (setting it again is idempotent).
	if n > isa.ParcelBytes && p.cache.Present(p.fetchAddr) && !p.cache.Present(p.fetchAddr+isa.ParcelBytes) &&
		!(p.capValid && p.capAddr == p.fetchAddr) {
		return true
	}
	return !p.inflight // as in fillNative: requestLine, or wait for the fill
}

// refillActive mirrors refillIQ read-only.
func (p *Pipe) refillActive() bool {
	if !p.iq.Empty() || p.iqb.Empty() {
		return false
	}
	pc, ok := p.str.pc()
	if !ok {
		return false
	}
	head, _ := p.iqb.Peek()
	return head.addr == pc
}

// sampleQueues emits occupancy events for queues whose depth changed since
// the last sample.
func (p *Pipe) sampleQueues() {
	if n := p.iq.Len(); n != p.lastIQ {
		p.lastIQ = n
		p.Emit(obs.Event{Kind: obs.KindQueueDepth, Arg: uint32(obs.QueueIQ), Value: uint64(n)})
	}
	if n := p.iqb.Len(); n != p.lastIQB {
		p.lastIQB = n
		p.Emit(obs.Event{Kind: obs.KindQueueDepth, Arg: uint32(obs.QueueIQB), Value: uint64(n)})
	}
}

// refillIQ moves words from the IQB into an empty IQ ("when the IQ becomes
// empty, an attempt is made to fill it with the data contained in the
// IQB"). Call only with the IQ empty and the IQB not.
func (p *Pipe) refillIQ() {
	pc, ok := p.str.pc()
	if !ok {
		return // blocked on a branch outcome; IQB may hold wrong-path data
	}
	head, _ := p.iqb.Peek()
	if head.addr != pc {
		// The IQB holds data for a different stream point (e.g. a branch
		// target arriving while the IQ drained); it is not valid for the
		// IQ yet.
		return
	}
	p.iq.MoveFrom(&p.iqb)
}

// fillIQBFromCache keeps the IQB supplied: when it is empty (or, with
// DeepPrefetch, whenever a full line of space is free) and no insert is in
// flight — the caller checks fillReady — look up the line containing
// fetchAddr in the on-chip cache; on a hit queue its words, on a miss go
// off-chip.
func (p *Pipe) fillIQBFromCache() {
	if p.img.Native {
		p.fillNative()
		return
	}
	lineAddr := p.cache.LineAddr(p.fetchAddr)
	if p.inflight && p.inflightLine == lineAddr {
		return // that very line is on its way
	}
	if p.cache.LookupLine(p.fetchAddr) {
		p.st.CacheHits++
		if p.intr != nil {
			p.intr.Reference(p.fetchAddr, true)
		}
		p.Emit(obs.Event{Kind: obs.KindCacheHit, Addr: p.fetchAddr})
		stop, hasStop := p.stopAt()
		lineEnd := lineAddr + uint32(p.cfg.LineBytes)
		for a := p.fetchAddr; a < lineEnd; a += isa.WordBytes {
			if hasStop && a >= stop {
				break
			}
			p.iqb.MustPush(entry{addr: a, word: p.wordAt(a), nbytes: isa.WordBytes})
		}
		p.advanceFetch(lineEnd)
		return
	}
	p.requestLine(lineAddr)
}

// requestLine issues an off-chip fetch for the full line at lineAddr,
// inserting words from fetchAddr onward into the IQB as they arrive.
func (p *Pipe) requestLine(lineAddr uint32) {
	if p.inflight {
		return // single outstanding instruction-side request
	}
	// Demand means decode is (about to be) starved for this very address;
	// anything else is lookahead and competes at prefetch priority.
	pc, streamOK := p.str.pc()
	demand := streamOK && p.iq.Empty() && p.iqb.Empty() && p.fetchAddr == pc
	if !demand && !p.cfg.TruePrefetch {
		// Original PIPE chip policy: only fetch a line guaranteed to
		// contain at least one instruction that will execute. The control
		// logic scans the IQ (and IQB) for PBR words; the guaranteed
		// sequential path ends at the first unresolved branch's window
		// end.
		if limit, bounded := p.guaranteeEnd(); bounded && p.fetchAddr >= limit {
			p.st.PrefetchBlocks++
			p.Emit(obs.Event{Kind: obs.KindPrefetchBlocked, Addr: p.fetchAddr})
			return
		}
	}
	p.st.CacheMisses++
	class := stats.MissUnclassified
	if p.intr != nil {
		class = p.intr.Reference(p.fetchAddr, false)
	}
	p.Emit(obs.Event{Kind: obs.KindCacheMiss, Addr: p.fetchAddr, Arg: uint32(class)})
	kind := stats.ReqIPrefetch
	if demand {
		kind = stats.ReqIFetch
		p.st.LineFetches++
		p.Emit(obs.Event{Kind: obs.KindFetchIssue, Addr: lineAddr})
	} else {
		p.st.Prefetches++
		p.Emit(obs.Event{Kind: obs.KindPrefetchIssue, Addr: lineAddr})
	}
	p.inflight = true
	p.inflightLine = lineAddr
	p.inflightFrom = p.fetchAddr
	p.inflightInsert = true
	p.inflightDemand = demand
	p.inflightHandle = p.sys.Submit(mem.Request{Kind: kind, Addr: lineAddr, Size: p.cfg.LineBytes})
}

// instAt returns the instruction and its byte length at addr in this
// image's format; past the text segment it reads as NOP.
func (p *Pipe) instAt(addr uint32) (uint32, uint32) {
	if w, n, ok := p.img.InstAt(addr); ok {
		return w, n
	}
	if p.img.Native {
		return 0, isa.ParcelBytes
	}
	return 0, isa.WordBytes
}

// parcelsPresent reports whether every parcel of the instruction at addr is
// valid in the cache or held in the split-instruction latch.
func (p *Pipe) parcelsPresent(addr, nbytes uint32) bool {
	for off := uint32(0); off < nbytes; off += isa.ParcelBytes {
		a := addr + off
		if p.capValid && p.capAddr == a {
			continue
		}
		if !p.cache.Present(a) {
			return false
		}
	}
	return true
}

// drainNative moves cache-resident instructions at fetchAddr into the IQB
// (native format). It returns whether it inserted anything. At most one
// line's worth of bytes moves per call, matching the single cache port.
func (p *Pipe) drainNative() bool {
	inserted := false
	budget := p.cfg.LineBytes
	for budget > 0 {
		if p.iqb.Full() {
			break
		}
		w, n := p.instAt(p.fetchAddr)
		if !p.parcelsPresent(p.fetchAddr, n) {
			// Latch the first parcel of a split instruction while it is
			// resident, so fetching its tail line cannot lose it.
			if n > isa.ParcelBytes && p.cache.Present(p.fetchAddr) && !p.cache.Present(p.fetchAddr+isa.ParcelBytes) {
				p.capAddr = p.fetchAddr
				p.capValid = true
			}
			break
		}
		p.iqb.MustPush(entry{addr: p.fetchAddr, word: w, nbytes: n})
		if p.capValid && p.capAddr == p.fetchAddr {
			p.capValid = false
		}
		p.fetchAddr += n
		budget -= int(n)
		inserted = true
	}
	return inserted
}

// fillNative keeps the IQB supplied in the native format: insert whatever
// is cache-resident at the fetch cursor; otherwise request the line holding
// the first missing parcel.
func (p *Pipe) fillNative() {
	start := p.fetchAddr
	if p.drainNative() {
		p.st.CacheHits++
		if p.intr != nil {
			p.intr.Reference(start, true)
		}
		p.Emit(obs.Event{Kind: obs.KindCacheHit, Addr: start})
		return
	}
	if p.iqb.Full() {
		return
	}
	// Find the first missing parcel of the instruction at the cursor
	// (the split-instruction latch counts as present).
	_, n := p.instAt(p.fetchAddr)
	missing := p.fetchAddr
	for off := uint32(0); off < n; off += isa.ParcelBytes {
		a := p.fetchAddr + off
		if p.capValid && p.capAddr == a {
			continue
		}
		if !p.cache.Present(a) {
			missing = a
			break
		}
	}
	lineAddr := p.cache.LineAddr(missing)
	if p.inflight {
		return // single outstanding instruction-side request
	}
	p.requestLine(lineAddr)
}

// guaranteeEnd returns the first sequential address past the point where
// execution is guaranteed to reach, mirroring the paper's control logic:
//
//   - for a PBR that has been issued but not resolved ("a PBR instruction
//     in execution"), the hardware knows its delay-slot count, so the
//     guaranteed region extends to the end of its window;
//   - a PBR still sitting in the IQ or IQB merely flags that a branch is
//     coming — the scan uses a single opcode bit, so nothing past the
//     branch word itself is guaranteed until it issues.
//
// With no branch in sight the sequential path is unbounded.
func (p *Pipe) guaranteeEnd() (uint32, bool) {
	if redirectAt, unresolved := p.str.oldestUnresolved(); unresolved {
		return redirectAt, true
	}
	for _, q := range [...]*queue.Queue[entry]{&p.iq, &p.iqb} {
		for i := 0; i < q.Len(); i++ {
			e, _ := q.At(i)
			if isa.WordIsBranch(e.word) {
				return e.addr + isa.WordBytes, true
			}
		}
	}
	return 0, false
}

// wordAt fetches an instruction word from the program image; addresses past
// the text segment read as NOP (zero), matching the zero-filled memory.
func (p *Pipe) wordAt(addr uint32) uint32 {
	if w, ok := p.img.InstWord(addr); ok {
		return w
	}
	return 0
}
