package fetch

import (
	"fmt"

	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/queue"
	"pipesim/internal/stats"
)

// TIBConfig sizes the Target Instruction Buffer front end.
type TIBConfig struct {
	// Entries is the number of branch targets the TIB caches.
	Entries int
	// LineBytes is both the number of instruction bytes stored per target
	// and the sequential fetch unit.
	LineBytes int
}

// Validate reports configuration errors.
func (c TIBConfig) Validate() error {
	if c.Entries < 1 {
		return fmt.Errorf("fetch: TIB entries %d must be >= 1", c.Entries)
	}
	if c.LineBytes < isa.WordBytes || c.LineBytes%isa.WordBytes != 0 {
		return fmt.Errorf("fetch: TIB line %d invalid", c.LineBytes)
	}
	return nil
}

// tibEntry caches the first n instructions at one branch target.
type tibEntry struct {
	target uint32
	words  []uint32
	valid  bool
}

// TIB is a Target Instruction Buffer front end (paper §2.1; the approach of
// the AMD29000): there is no instruction cache at all. Sequential
// instructions stream from external memory through a small fetch buffer; a
// fully associative buffer of branch targets supplies the first line of
// instructions after each taken branch while the fetch logic restarts the
// sequential stream past them. The paper cites studies showing a small TIB
// beats a small simple cache but generates large amounts of off-chip
// traffic — which this model reproduces.
type TIB struct {
	cfg TIBConfig
	img *program.Image
	sys *mem.System
	st  stats.Fetch
	str streamer

	buf       *queue.Queue[entry] // sequential fetch buffer
	fetchAddr uint32

	entries []tibEntry
	nextRep int // FIFO replacement cursor

	// An allocation in progress: the first words arriving at allocTarget
	// fill the chosen TIB entry.
	allocActive bool
	allocIdx    int
	allocNext   uint32

	inflight       bool
	inflightFrom   uint32
	inflightIns    bool
	inflightDemand bool

	probe   obs.Probe
	lastBuf int
}

// SetProbe attaches an observability probe. Call before the first Tick.
func (t *TIB) SetProbe(p obs.Probe) {
	t.probe = p
	t.lastBuf = -1
}

// emit sends an event to the probe, when attached.
func (t *TIB) emit(kind obs.Kind, addr uint32) {
	if t.probe != nil {
		t.probe.Event(obs.Event{Kind: kind, Addr: addr})
	}
}

var _ Engine = (*TIB)(nil)

// NewTIB builds a TIB front end starting at pc.
func NewTIB(cfg TIBConfig, img *program.Image, sys *mem.System, pc uint32) (*TIB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if img.Native {
		return nil, fmt.Errorf("fetch: the TIB front end does not support the native instruction format")
	}
	buf, err := queue.New[entry](2 * cfg.LineBytes / isa.WordBytes)
	if err != nil {
		return nil, fmt.Errorf("fetch: TIB buffer: %w", err)
	}
	t := &TIB{
		cfg:     cfg,
		img:     img,
		sys:     sys,
		buf:     buf,
		entries: make([]tibEntry, cfg.Entries),
	}
	t.str.reset(pc)
	t.fetchAddr = pc
	sys.SetFetchOwner(t)
	return t, nil
}

// FetchWords receives one input-bus transfer of the outstanding line
// (mem.FetchOwner): the words fill an allocating TIB entry and, while the
// insert is live, the sequential buffer. A single request may be
// outstanding (see the PIPE engine).
func (t *TIB) FetchWords(addr uint32, n int) {
	for end := addr + uint32(n)*isa.WordBytes; addr < end; addr += isa.WordBytes {
		w := t.wordAt(addr)
		if t.allocActive && addr == t.allocNext {
			e := &t.entries[t.allocIdx]
			if len(e.words) < cap(e.words) {
				e.words = append(e.words, w)
				t.allocNext += isa.WordBytes
			}
			if len(e.words) == cap(e.words) {
				t.allocActive = false
			}
		}
		if t.inflightIns && !t.buf.Full() {
			t.buf.MustPush(entry{addr: addr, word: w})
		}
	}
}

// FetchDone completes the outstanding line (mem.FetchOwner).
func (t *TIB) FetchDone() {
	t.inflight = false
	if t.inflightDemand {
		t.emit(obs.KindFetchComplete, t.inflightFrom)
	} else {
		t.emit(obs.KindPrefetchComplete, t.inflightFrom)
	}
}

// Stats returns the engine's counters.
func (t *TIB) Stats() *stats.Fetch { return &t.st }

// DebugState renders the fetch-buffer occupancy and allocation state for
// deadlock diagnostics.
func (t *TIB) DebugState() string {
	return fmt.Sprintf("tib{%s buf %d/%d fetchAddr %#05x inflight=%v alloc=%v}",
		t.str.String(), t.buf.Len(), t.buf.Cap(), t.fetchAddr, t.inflight, t.allocActive)
}

// Head reports the next stream instruction if buffered.
func (t *TIB) Head() (uint32, uint32, bool) {
	pc, ok := t.str.pc()
	if !ok {
		return 0, 0, false
	}
	ent, ok := t.buf.Peek()
	if !ok {
		return 0, 0, false
	}
	if ent.addr != pc {
		panic(fmt.Sprintf("fetch: TIB buffer head %#x != stream PC %#x", ent.addr, pc))
	}
	return pc, ent.word, true
}

// Take pops the buffer head when it is the next stream instruction and
// advances the stream past it.
func (t *TIB) Take() (uint32, uint32, bool) {
	pc, w, ok := t.Head()
	if !ok {
		return 0, 0, false
	}
	t.buf.MustPop()
	t.st.SupplyCycles++
	if t.str.consume(w, isa.WordBytes) {
		t.redirect(t.str.nextPC)
	}
	return pc, w, true
}

// Resolve records a PBR outcome. Unlike the PIPE engine, the TIB front end
// keeps streaming sequentially until the stream itself redirects — it has
// no cache to prefetch targets into; the TIB covers the redirect gap.
func (t *TIB) Resolve(taken bool, target uint32) {
	if t.str.resolve(taken, target) {
		t.redirect(t.str.nextPC)
	}
	if taken {
		t.st.BranchFlushes++
		t.emit(obs.KindBranchFlush, target)
	}
}

// ResumePC returns the next unconsumed instruction address.
func (t *TIB) ResumePC() uint32 { return t.str.nextPC }

// Redirect abandons the stream and restarts at pc (interrupt entry/return).
func (t *TIB) Redirect(pc uint32) {
	if len(t.str.pending) > 0 {
		panic("fetch: Redirect with a pending branch")
	}
	t.str.reset(pc)
	t.redirect(pc)
}

// redirect restarts supply at the branch target: TIB-resident instructions
// are injected into the buffer instantly and the sequential fetch resumes
// past them; on a TIB miss everything restarts at the target and a new
// entry is allocated.
func (t *TIB) redirect(target uint32) {
	t.buf.Clear()
	t.inflightIns = false // wrong-path words must not enter the buffer
	t.allocActive = false
	if idx := t.lookup(target); idx >= 0 {
		t.st.CacheHits++
		t.emit(obs.KindCacheHit, target)
		e := &t.entries[idx]
		for i, w := range e.words {
			t.buf.MustPush(entry{addr: target + uint32(i*isa.WordBytes), word: w})
		}
		t.fetchAddr = target + uint32(len(e.words)*isa.WordBytes)
		return
	}
	t.st.CacheMisses++
	t.emit(obs.KindCacheMiss, target)
	t.fetchAddr = target
	// Allocate a TIB entry for this target (FIFO replacement) and fill it
	// from the arriving stream.
	idx := t.nextRep
	t.nextRep = (t.nextRep + 1) % len(t.entries)
	t.entries[idx] = tibEntry{target: target, words: make([]uint32, 0, t.cfg.LineBytes/isa.WordBytes), valid: true}
	t.allocActive = true
	t.allocIdx = idx
	t.allocNext = target
}

// lookup finds a valid TIB entry for target.
func (t *TIB) lookup(target uint32) int {
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].target == target {
			return i
		}
	}
	return -1
}

// Tick keeps the sequential stream flowing: one outstanding line-sized
// fetch whenever the buffer has room.
func (t *TIB) Tick() {
	if t.probe != nil {
		if n := t.buf.Len(); n != t.lastBuf {
			t.lastBuf = n
			t.probe.Event(obs.Event{Kind: obs.KindQueueDepth, Arg: uint32(obs.QueueTIB), Value: uint64(n)})
		}
	}
	if t.str.halted || t.inflight {
		return
	}
	room := t.buf.Cap() - t.buf.Len()
	lineWords := t.cfg.LineBytes / isa.WordBytes
	if room < lineWords {
		return
	}
	kind := stats.ReqIPrefetch
	demand := t.buf.Empty()
	if demand {
		kind = stats.ReqIFetch
		t.st.LineFetches++
		t.emit(obs.KindFetchIssue, t.fetchAddr)
	} else {
		t.st.Prefetches++
		t.emit(obs.KindPrefetchIssue, t.fetchAddr)
	}
	t.inflight = true
	t.inflightFrom = t.fetchAddr
	t.inflightIns = true
	t.inflightDemand = demand
	from := t.fetchAddr
	t.fetchAddr += uint32(t.cfg.LineBytes)
	t.sys.Submit(mem.Request{Kind: kind, Addr: from, Size: t.cfg.LineBytes})
}

// NextEvent reports whether the next Tick can change state (see
// Engine.NextEvent): the TIB issues a fetch whenever no request is in
// flight and the buffer has a line of room; otherwise it waits for the
// fill callbacks.
func (t *TIB) NextEvent() uint64 {
	if t.str.halted || t.inflight {
		return mem.NoEvent
	}
	if t.buf.Cap()-t.buf.Len() < t.cfg.LineBytes/isa.WordBytes {
		return mem.NoEvent
	}
	return 0
}

// wordAt fetches an instruction word from the program image; addresses past
// the text segment read as NOP (zero).
func (t *TIB) wordAt(addr uint32) uint32 {
	if w, ok := t.img.InstWord(addr); ok {
		return w
	}
	return 0
}
