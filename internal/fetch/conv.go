package fetch

import (
	"fmt"

	"pipesim/internal/cache"
	"pipesim/internal/isa"
	"pipesim/internal/mem"
	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/stats"
)

// ConvConfig sizes the conventional cache front end.
type ConvConfig struct {
	CacheBytes int
	LineBytes  int // tag granularity; fills are per 4-byte sub-block
	// ChunkBytes is the size of one off-chip instruction request. Hill's
	// model requests one instruction at a time; a single memory
	// transaction returns one input-bus transfer, so the natural chunk is
	// the bus width (a 4-byte bus returns exactly one instruction).
	ChunkBytes int
	// Introspector, when set, receives every demand reference at the
	// engine's hit/miss accounting sites, so the shadow models' per-class
	// totals sum to CacheMisses.
	Introspector *cache.Introspector
}

// Validate reports configuration errors.
func (c ConvConfig) Validate() error {
	if c.ChunkBytes < isa.WordBytes || c.ChunkBytes%isa.WordBytes != 0 {
		return fmt.Errorf("fetch: chunk size %d invalid", c.ChunkBytes)
	}
	if c.ChunkBytes > c.LineBytes {
		return fmt.Errorf("fetch: chunk size %d exceeds line size %d", c.ChunkBytes, c.LineBytes)
	}
	return nil
}

// Conv is the conventional instruction cache with Hill's always-prefetch
// strategy, the strongest prefetching cache in his study and the baseline
// the paper compares against. The cache is direct mapped with one-
// instruction sub-blocks and per-sub-block valid bits. The PC is presented
// every cycle and tag + array lookup complete within the cycle. On every
// reference the next sequential instruction is prefetched, even across a
// line boundary. Only one instruction-side memory request may be
// outstanding, and a new one cannot begin until the previous one finishes;
// demand fetches replace a still-queued prefetch.
type Conv struct {
	cfg   ConvConfig
	cache *cache.Cache
	img   *program.Image
	sys   *mem.System
	st    stats.Fetch
	str   streamer

	outstanding bool
	outDemand   bool
	outChunk    uint32
	outHandle   mem.Handle

	// Native format: split-instruction latch (see the PIPE engine); holds
	// a first parcel that a tail-line fill might otherwise evict.
	capAddr  uint32
	capValid bool

	// Port emits fetch events.
	obs.Port
	intr *cache.Introspector // ConvConfig.Introspector
}

var _ Engine = (*Conv)(nil)

// NewConv builds a conventional always-prefetch engine starting at pc.
func NewConv(cfg ConvConfig, cacheArr *cache.Cache, img *program.Image, sys *mem.System, pc uint32) (*Conv, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wantSub := isa.WordBytes
	if img.Native {
		wantSub = isa.ParcelBytes
	}
	if cacheArr.SubBlockBytes() != wantSub {
		return nil, fmt.Errorf("fetch: conventional cache needs %d-byte sub-blocks for this image format", wantSub)
	}
	c := &Conv{cfg: cfg, cache: cacheArr, img: img, sys: sys, intr: cfg.Introspector}
	c.str.reset(pc)
	c.str.varlen = img.Native
	sys.SetFetchOwner(c)
	return c, nil
}

// FetchWords receives one input-bus transfer of the outstanding chunk
// (mem.FetchOwner): each word's sub-blocks become valid. A single request
// may be outstanding, so the out* fields describe it completely.
func (c *Conv) FetchWords(addr uint32, n int) {
	for end := addr + uint32(n)*isa.WordBytes; addr < end; addr += isa.WordBytes {
		c.cache.FillSub(addr)
		if c.img.Native {
			c.cache.FillSub(addr + isa.ParcelBytes)
		}
	}
}

// FetchDone completes the outstanding chunk (mem.FetchOwner).
func (c *Conv) FetchDone() {
	c.outstanding = false
	if c.outDemand {
		c.Emit(obs.Event{Kind: obs.KindFetchComplete, Addr: c.outChunk})
	} else {
		c.Emit(obs.Event{Kind: obs.KindPrefetchComplete, Addr: c.outChunk})
	}
}

// Stats returns the engine's counters.
func (c *Conv) Stats() *stats.Fetch { return &c.st }

// DebugState renders the outstanding-request state for deadlock
// diagnostics.
func (c *Conv) DebugState() string {
	return fmt.Sprintf("conv{%s outstanding=%v demand=%v chunk %#05x}",
		c.str.String(), c.outstanding, c.outDemand, c.outChunk)
}

// Head performs this cycle's tag and array lookup for the stream PC. An
// instruction is present only when every one of its sub-blocks is valid
// (one word in the fixed format; one or two parcels in the native format).
func (c *Conv) Head() (uint32, uint32, bool) {
	pc, ok := c.str.pc()
	if !ok {
		return 0, 0, false
	}
	w, n := c.instAt(pc)
	if !c.present(pc, n) {
		return 0, 0, false
	}
	return pc, w, true
}

// present reports whether all nbytes of the instruction at addr are valid
// in the cache or held in the split-instruction latch.
func (c *Conv) present(addr, nbytes uint32) bool {
	step := uint32(c.cache.SubBlockBytes())
	for off := uint32(0); off < nbytes; off += step {
		a := addr + off
		if c.capValid && c.capAddr == a {
			continue
		}
		if !c.cache.Present(a) {
			return false
		}
	}
	return true
}

// Take performs this cycle's lookup for the stream PC, as Head does, and on
// a hit advances the stream past the instruction: one instAt and one
// presence check per supplied instruction.
func (c *Conv) Take() (uint32, uint32, bool) {
	pc, ok := c.str.pc()
	if !ok {
		return 0, 0, false
	}
	word, n := c.instAt(pc)
	if !c.present(pc, n) {
		return 0, 0, false
	}
	c.st.SupplyCycles++
	c.st.CacheHits++
	if c.intr != nil {
		c.intr.Reference(pc, true)
	}
	c.Emit(obs.Event{Kind: obs.KindCacheHit, Addr: pc})
	if c.capValid && c.capAddr == pc {
		c.capValid = false
	}
	c.str.consume(word, n)
	return pc, word, true
}

// Resolve records a PBR outcome. The conventional cache keeps whatever it
// has prefetched — wrong-path sub-blocks simply stay valid.
func (c *Conv) Resolve(taken bool, target uint32) {
	c.str.resolve(taken, target)
	if taken {
		c.st.BranchFlushes++
		c.Emit(obs.Event{Kind: obs.KindBranchFlush, Addr: target})
	}
}

// ResumePC returns the next unconsumed instruction address.
func (c *Conv) ResumePC() uint32 { return c.str.nextPC }

// Redirect abandons the stream and restarts at pc (interrupt entry/return).
// The cache keeps its contents; only the stream state resets.
func (c *Conv) Redirect(pc uint32) {
	if len(c.str.pending) > 0 {
		panic("fetch: Redirect with a pending branch")
	}
	native := c.str.varlen
	c.str.reset(pc)
	c.str.varlen = native
	c.capValid = false
}

// Tick issues at most one off-chip action: a demand fetch for a missing
// stream PC, or the always-prefetch of the next sequential instruction.
func (c *Conv) Tick() {
	if c.str.halted {
		return
	}
	pc, ok := c.str.pc()
	_, n := c.instAt(pc)
	if ok && !c.present(pc, n) {
		// Latch a resident first parcel of a split instruction before
		// demanding its tail, so the tail fill cannot evict it.
		if c.img.Native && n > uint32(c.cache.SubBlockBytes()) &&
			c.cache.Present(pc) && !c.cache.Present(pc+isa.ParcelBytes) {
			c.capAddr = pc
			c.capValid = true
		}
		// Demand the chunk holding the first missing sub-block.
		missing := pc
		step := uint32(c.cache.SubBlockBytes())
		for off := uint32(0); off < n; off += step {
			a := pc + off
			if c.capValid && c.capAddr == a {
				continue
			}
			if !c.cache.Present(a) {
				missing = a
				break
			}
		}
		c.demand(missing)
		return
	}
	// Hit (or blocked on a branch outcome): prefetch the next sequential
	// location. While blocked the sequential fall-through path is the
	// only address the hardware can guess.
	next := pc + n
	if !ok {
		next = c.str.nextPC
	}
	if !c.cache.Present(next) {
		c.prefetch(next)
	}
}

// NextEvent reports whether the next Tick can change state (see
// Engine.NextEvent). It mirrors Tick read-only: presence probes never touch
// the hit/miss counters, and the cancel-and-reissue decision is predicted
// with Handle.Queued instead of the mutating Cancel.
func (c *Conv) NextEvent() uint64 {
	if c.str.halted {
		return mem.NoEvent
	}
	pc, ok := c.str.pc()
	_, n := c.instAt(pc)
	if ok && !c.present(pc, n) {
		// Tick would latch a split first parcel the cycle the latch
		// actually changes.
		if c.img.Native && n > uint32(c.cache.SubBlockBytes()) &&
			c.cache.Present(pc) && !c.cache.Present(pc+isa.ParcelBytes) &&
			!(c.capValid && c.capAddr == pc) {
			return 0
		}
		if !c.outstanding {
			return 0 // demand would issue
		}
		// Mirror demand(): the chunk holding the first missing sub-block.
		missing := pc
		step := uint32(c.cache.SubBlockBytes())
		for off := uint32(0); off < n; off += step {
			a := pc + off
			if c.capValid && c.capAddr == a {
				continue
			}
			if !c.cache.Present(a) {
				missing = a
				break
			}
		}
		chunk := missing &^ uint32(c.cfg.ChunkBytes-1)
		if c.outDemand || c.outChunk == chunk {
			return mem.NoEvent // already on its way
		}
		if c.outHandle.Queued() {
			return 0 // Tick would cancel the queued prefetch and reissue
		}
		return mem.NoEvent // prefetch in service; must finish first
	}
	// Hit (or blocked on a branch outcome): Tick would prefetch the next
	// sequential location iff it is absent and the engine is idle.
	next := pc + n
	if !ok {
		next = c.str.nextPC
	}
	if !c.cache.Present(next) && !c.outstanding {
		return 0
	}
	return mem.NoEvent
}

// demand requests the chunk containing the missing stream PC. A queued
// (not yet accepted) prefetch is canceled in its favour; an accepted one
// must finish first.
func (c *Conv) demand(pc uint32) {
	chunk := pc &^ uint32(c.cfg.ChunkBytes-1)
	if c.outstanding {
		if c.outDemand || c.outChunk == chunk {
			return // already on its way
		}
		if !c.outHandle.Cancel() {
			return // in service; must finish first
		}
		c.outstanding = false
	}
	c.st.CacheMisses++
	c.st.LineFetches++
	class := stats.MissUnclassified
	if c.intr != nil {
		class = c.intr.Reference(pc, false)
	}
	c.Emit(obs.Event{Kind: obs.KindCacheMiss, Addr: pc, Arg: uint32(class)})
	c.issue(chunk, true)
}

// prefetch requests the chunk containing addr if no request is outstanding.
func (c *Conv) prefetch(addr uint32) {
	if c.outstanding {
		return
	}
	chunk := addr &^ uint32(c.cfg.ChunkBytes-1)
	c.st.Prefetches++
	c.issue(chunk, false)
}

func (c *Conv) issue(chunk uint32, demand bool) {
	kind := stats.ReqIPrefetch
	if demand {
		kind = stats.ReqIFetch
	}
	if demand {
		c.Emit(obs.Event{Kind: obs.KindFetchIssue, Addr: chunk})
	} else {
		c.Emit(obs.Event{Kind: obs.KindPrefetchIssue, Addr: chunk})
	}
	c.outstanding = true
	c.outDemand = demand
	c.outChunk = chunk
	c.outHandle = c.sys.Submit(mem.Request{Kind: kind, Addr: chunk, Size: c.cfg.ChunkBytes})
}

// instAt returns the instruction and byte length at addr; past the text
// segment it reads as NOP.
func (c *Conv) instAt(addr uint32) (uint32, uint32) {
	if w, n, ok := c.img.InstAt(addr); ok {
		return w, n
	}
	if c.img.Native {
		return 0, isa.ParcelBytes
	}
	return 0, isa.WordBytes
}
