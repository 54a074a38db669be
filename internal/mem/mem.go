// Package mem models everything off-chip: the large external cache that
// services both instruction and data requests (assumed to hit 100% of the
// time, as in the paper), the separate input and output busses that connect
// it to the processor, the priority arbitration between request classes,
// and the memory-mapped external floating point unit.
//
// # Timing model
//
// A request accepted at cycle t for s bytes with input-bus width w delivers
// ⌈s/w⌉ transfers on the input bus at cycles t+T, t+T+1, …, where T is the
// external memory access time.
//
//   - Non-pipelined memory may accept its next request at cycle t+T+⌈s/w⌉−1:
//     the address of the next request may overlap the final data transfer.
//     With T=1 and single-transfer requests this sustains one request per
//     cycle, which is why the paper notes that pipelining is irrelevant at a
//     1-cycle access time.
//   - Pipelined memory accepts a new request every cycle; input-bus
//     transfers from distinct requests serialize in acceptance order.
//
// Stores carry their data on the output bus and occupy the (non-pipelined)
// memory for T cycles; they use no input-bus slots. Floating-point results
// are produced by the FPU, not the memory, and compete only for the input
// bus, at their own (low) arbitration priority.
//
// # Arbitration
//
// At most one request is accepted per cycle, picked from the per-class FIFO
// queues in priority order. With instruction priority (used for all results
// presented in the paper) the order is: instruction demand fetch, data
// loads, data stores, FPU results, instruction prefetch. Without it, data
// loads and stores outrank instruction fetch.
package mem

import (
	"fmt"
	"math"

	"pipesim/internal/obs"
	"pipesim/internal/program"
	"pipesim/internal/queue"
	"pipesim/internal/stats"
)

// Config selects the memory-system parameters varied in the paper.
type Config struct {
	// AccessTime is the external memory access time T in processor cycles
	// (the paper sweeps 1, 2, 3 and 6).
	AccessTime int
	// BusWidthBytes is the width of the input (return) bus in bytes (the
	// paper uses 4 and 8).
	BusWidthBytes int
	// Pipelined permits the memory to accept a new request every cycle.
	Pipelined bool
	// InstrPriority gives instruction fetches priority over data requests
	// at the memory interface (selected for all presented results).
	InstrPriority bool
	// FPULatency is the external floating-point operation time in cycles
	// (the paper holds it constant at 4).
	FPULatency int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AccessTime < 1 {
		return fmt.Errorf("mem: access time %d must be >= 1", c.AccessTime)
	}
	if c.BusWidthBytes != 4 && c.BusWidthBytes != 8 && c.BusWidthBytes != 16 {
		return fmt.Errorf("mem: bus width %d bytes not supported (want 4, 8 or 16)", c.BusWidthBytes)
	}
	if c.FPULatency < 1 {
		return fmt.Errorf("mem: FPU latency %d must be >= 1", c.FPULatency)
	}
	return nil
}

// Memory-mapped FPU register addresses. A store to AddrFPUA latches operand
// A; a store to one of the operation addresses latches operand B and starts
// the operation, so "a pair of data stores ... will cause a multiply to
// occur" exactly as in the paper. The result returns autonomously over the
// input bus.
const (
	AddrFPUA   = program.FPUBase + 0
	AddrFPUMul = program.FPUBase + 4
	AddrFPUAdd = program.FPUBase + 8
	AddrFPUSub = program.FPUBase + 12
	AddrFPUDiv = program.FPUBase + 16
)

// IsFPUTrigger reports whether a store to addr starts a floating-point
// operation (and therefore produces a result that will occupy a load-data
// queue slot).
func IsFPUTrigger(addr uint32) bool {
	switch addr {
	case AddrFPUMul, AddrFPUAdd, AddrFPUSub, AddrFPUDiv:
		return true
	}
	return false
}

// Request is one off-chip transaction. Reads deliver words through OnWord
// (one call per word, in address order) and then call OnComplete; stores
// call only OnComplete. Seq is an opaque tag passed back to the callbacks.
//
// Requesters on the simulator's hot path obtain Requests from the owning
// System's pool via AllocRequest, which recycles them once they complete;
// a Request built directly with a composite literal works identically but
// is garbage-collected instead.
type Request struct {
	Kind       stats.ReqKind
	Addr       uint32 // must be 4-byte aligned
	Size       int    // bytes, multiple of 4
	Store      bool
	Data       []uint32 // store data, Size/4 words
	Seq        uint64
	OnWord     func(addr uint32, word uint32, seq uint64)
	OnComplete func(seq uint64)

	canceled bool
	accepted bool
	pooled   bool   // recycled by the System once completed or canceled
	gen      uint32 // bumped on recycle; stale Handles become inert

	fpuResult uint32 // FPU-result payload (internal requests only)
}

// Handle lets a requester cancel a request that has not yet been accepted
// by the memory interface (used by the conventional cache to replace a
// queued prefetch with a demand fetch). The generation tag makes a Handle
// held past its request's completion inert rather than aliasing whatever
// transaction reuses the pooled Request next.
type Handle struct {
	r   *Request
	gen uint32
}

// Cancel withdraws the request if it is still waiting for acceptance and
// reports whether it did so. A request already accepted runs to completion,
// as in the paper's single-outstanding-request model.
func (h Handle) Cancel() bool {
	if h.r == nil || h.r.gen != h.gen || h.r.accepted || h.r.canceled {
		return false
	}
	h.r.canceled = true
	return true
}

// Queued reports whether the request is still waiting (not accepted, not
// canceled).
func (h Handle) Queued() bool {
	return h.r != nil && h.r.gen == h.gen && !h.r.accepted && !h.r.canceled
}

type inflight struct {
	req           *Request
	firstTransfer uint64   // cycle of the first input-bus transfer
	transfers     int      // number of input-bus transfers
	done          uint64   // cycle OnComplete fires
	delivered     int      // words delivered so far
	word0         uint32   // single-word read data (the common case)
	data          []uint32 // multi-word read data; both are snapshotted at
	// acceptance so an in-flight load never observes a younger store
	hasData bool
}

type fpuOp struct {
	readyAt uint64
	result  uint32
	seq     uint64
}

// RAM paging: the 1 MiB address space in 256 pages of 4 KiB.
const (
	pageWords = 1024
	ramPages  = (program.AddrMask + 1) / 4 / pageWords
)

// zeroPage backs every page no write has reached, so a read needs no
// branch; WriteWord replaces it before storing, so it stays all zeros.
var zeroPage [pageWords]uint32

// System is the complete off-chip world: memory, busses, arbiter and FPU.
type System struct {
	cfg Config
	st  *stats.Mem

	cycle          uint64
	queues         [numClasses]*queue.Queue[*Request]
	inflight       []*inflight
	memFreeAt      uint64 // non-pipelined: earliest next acceptance
	inputBusFreeAt uint64 // watermark of the next free input-bus cycle

	// Cached earliest-action cycles, so the per-cycle BeginCycle phases
	// and NextEvent are O(1) instead of scanning transaction lists. Both
	// are conservative: they may be earlier than the true next action
	// (the scan then runs and re-tightens them) but never later.
	nextInflightAt uint64 // min over inflight of next transfer/completion
	nextFPUAt      uint64 // min readyAt over fpuOps

	prio    [numClasses]int // arbitration order, fixed by the config
	pending int             // queued requests across all classes (arbiter fast path)

	// Free lists for the per-transaction bookkeeping objects. A simulated
	// run issues hundreds of thousands of requests; recycling them keeps
	// the hot loop allocation-free after warm-up. Single-threaded like the
	// rest of the System.
	freeReq []*Request
	freeInf []*inflight

	fpuA         uint32
	fpuLastReady uint64
	fpuOps       []fpuOp
	// FPUSink receives floating-point results (set by the CPU). It is
	// invoked via the normal input-bus delivery path.
	FPUSink func(seq uint64, value uint32)

	// probe, when set, observes bus transfers and request acceptances.
	probe obs.Probe

	// ram is the 20-bit address space in 4 KiB pages, each allocated on
	// its first write and zeroPage until then. The Livermore image fills
	// 17 pages, so a machine costs ~70 KiB instead of the full 1 MiB,
	// which keeps garbage collection out of sweeps that build hundreds of
	// machines.
	ram [ramPages]*[pageWords]uint32
}

// SetProbe attaches an observability probe. Call before the first cycle.
func (s *System) SetProbe(p obs.Probe) { s.probe = p }

// New builds a memory system preloaded with the program image's text and
// data segments.
func New(cfg Config, img *program.Image, st *stats.Mem) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &stats.Mem{}
	}
	s := &System{cfg: cfg, st: st, nextInflightAt: NoEvent, nextFPUAt: NoEvent}
	for i := range s.ram {
		s.ram[i] = &zeroPage
	}
	for i, w := range img.RAMWords() {
		s.WriteWord(program.TextBase+4*uint32(i), w)
	}
	for i, w := range img.Data {
		s.WriteWord(program.DataBase+4*uint32(i), w)
	}
	for k := range s.queues {
		q, err := queue.New[*Request](64)
		if err != nil {
			return nil, fmt.Errorf("mem: request queue: %w", err)
		}
		s.queues[k] = q
	}
	if cfg.InstrPriority {
		s.prio = [...]int{classIFetch, classData, classFPUResult, classIPrefetch}
	} else {
		s.prio = [...]int{classData, classIFetch, classFPUResult, classIPrefetch}
	}
	return s, nil
}

// AllocRequest returns a zeroed Request from the System's pool. The System
// recycles it automatically when the transaction completes (or its queued
// request is dropped after cancelation); the caller must not retain the
// pointer past that point — Handles are safe to keep, they go inert.
func (s *System) AllocRequest() *Request {
	if n := len(s.freeReq); n > 0 {
		r := s.freeReq[n-1]
		s.freeReq = s.freeReq[:n-1]
		return r
	}
	return &Request{pooled: true}
}

// releaseRequest returns a pooled request to the free list. Callbacks and
// store data are cleared (the Data slice keeps its capacity for reuse) and
// the generation advances so outstanding Handles cannot observe the next
// transaction.
func (s *System) releaseRequest(r *Request) {
	if !r.pooled {
		return
	}
	// Field-by-field reset instead of a struct literal: this is one of the
	// hottest pool paths and the literal form re-zeroes and re-stores the
	// whole struct including the Data slice header. Callbacks MUST go nil
	// (several requesters rely on a fresh request having none) and Store
	// must clear (read sites leave it at the zero value).
	r.Kind = 0
	r.Addr = 0
	r.Size = 0
	r.Store = false
	r.Data = r.Data[:0]
	r.Seq = 0
	r.OnWord = nil
	r.OnComplete = nil
	r.canceled = false
	r.accepted = false
	r.gen++
	r.fpuResult = 0
	s.freeReq = append(s.freeReq, r)
}

// Cycle returns the current cycle number (the cycle most recently passed to
// Tick).
func (s *System) Cycle() uint64 { return s.cycle }

// DebugState renders the per-class queue occupancy and in-flight state in
// one line, for deadlock and machine-check diagnostics.
func (s *System) DebugState() string {
	return fmt.Sprintf("mem{ifetch %d data %d fpu-result %d iprefetch %d inflight %d fpu-ops %d mem-free-at %d bus-free-at %d}",
		s.queues[classIFetch].Len(), s.queues[classData].Len(),
		s.queues[classFPUResult].Len(), s.queues[classIPrefetch].Len(),
		len(s.inflight), len(s.fpuOps), s.memFreeAt, s.inputBusFreeAt)
}

// ReadWord returns the current memory word at a 4-byte-aligned address.
// Used by tests and examples to inspect results after a run.
func (s *System) ReadWord(addr uint32) uint32 {
	a := (addr & program.AddrMask) / 4
	return s.ram[a/pageWords][a%pageWords]
}

// WriteWord stores directly into memory, bypassing timing. Used by tests.
func (s *System) WriteWord(addr uint32, v uint32) {
	a := (addr & program.AddrMask) / 4
	p := s.ram[a/pageWords]
	if p == &zeroPage {
		p = new([pageWords]uint32)
		s.ram[a/pageWords] = p
	}
	p[a%pageWords] = v
}

// Submit enqueues a request for arbitration. The returned handle can cancel
// it while it is still queued. Submit panics on malformed requests, which
// indicate simulator bugs rather than user errors.
func (s *System) Submit(r *Request) Handle {
	if r.Addr%4 != 0 || r.Size <= 0 || r.Size%4 != 0 {
		panic(fmt.Sprintf("mem: malformed request addr=%#x size=%d", r.Addr, r.Size))
	}
	if r.Store && len(r.Data) != r.Size/4 {
		panic(fmt.Sprintf("mem: store data length %d != %d words", len(r.Data), r.Size/4))
	}
	s.queues[classOf(r.Kind)].MustPush(r)
	s.pending++
	return Handle{r: r, gen: r.gen}
}

// Arbitration classes. Data loads and stores share one FIFO class so that
// the processor's program-order dispatch of its memory operations is
// preserved end to end; instruction fetch, FPU results and instruction
// prefetch each form their own class.
const (
	classIFetch = iota
	classData
	classFPUResult
	classIPrefetch
	numClasses
)

// classOf maps a request kind to its arbitration class.
func classOf(k stats.ReqKind) int {
	switch k {
	case stats.ReqIFetch:
		return classIFetch
	case stats.ReqDataLoad, stats.ReqDataStore:
		return classData
	case stats.ReqFPUResult:
		return classFPUResult
	default:
		return classIPrefetch
	}
}

// Tick advances the memory system one full cycle: BeginCycle followed by
// EndCycle. Convenient for tests; the simulator core calls the phases
// separately so that requests submitted by the CPU and fetch engines during
// a cycle are arbitrated at the end of that same cycle (the address bus is
// driven in the cycle the request is made).
func (s *System) Tick(cycle uint64) {
	s.BeginCycle(cycle)
	s.EndCycle()
}

// BeginCycle starts cycle processing: completed FPU operations become
// result-return requests and this cycle's input-bus transfers are
// delivered. Call before the fetch engines and CPU tick.
func (s *System) BeginCycle(cycle uint64) {
	s.cycle = cycle
	s.fpuComplete()
	s.deliver()
}

// EndCycle runs the arbiter over everything submitted up to and including
// this cycle, accepting at most one request. Call after the fetch engines
// and CPU tick.
func (s *System) EndCycle() {
	s.accept()
}

// fpuComplete turns finished FPU operations into result-return requests.
// The result value rides in the request itself and is delivered straight to
// FPUSink, so no per-operation closure is allocated.
func (s *System) fpuComplete() {
	if s.cycle < s.nextFPUAt {
		return // no operation finishes this early (covers the empty case)
	}
	rest := s.fpuOps[:0]
	next := NoEvent
	for _, op := range s.fpuOps {
		if op.readyAt <= s.cycle {
			r := s.AllocRequest()
			r.Kind = stats.ReqFPUResult
			r.Addr = AddrFPUA // nominal source address
			r.Size = 4
			r.Seq = op.seq
			r.fpuResult = op.result
			s.Submit(r)
		} else {
			if op.readyAt < next {
				next = op.readyAt
			}
			rest = append(rest, op)
		}
	}
	s.fpuOps = rest
	s.nextFPUAt = next
}

// deliver performs this cycle's input-bus transfers and completions.
func (s *System) deliver() {
	if s.cycle < s.nextInflightAt {
		return // nothing transfers or completes this early (covers empty)
	}
	next := NoEvent
	kept := s.inflight[:0]
	for _, f := range s.inflight {
		if !f.req.Store && f.transfers > 0 {
			// Which transfer slot (if any) lands on this cycle?
			if s.cycle >= f.firstTransfer && s.cycle < f.firstTransfer+uint64(f.transfers) {
				s.st.InputBusCycles++
				wordsPerTransfer := s.cfg.BusWidthBytes / 4
				totalWords := f.req.Size / 4
				wordsBefore := f.delivered
				for k := 0; k < wordsPerTransfer && f.delivered < totalWords; k++ {
					addr := f.req.Addr + uint32(f.delivered*4)
					var w uint32
					switch {
					case len(f.data) > 0:
						w = f.data[f.delivered]
					case f.hasData:
						w = f.word0
					}
					if f.req.OnWord != nil {
						f.req.OnWord(addr, w, f.req.Seq)
					} else if f.req.Kind == stats.ReqFPUResult && s.FPUSink != nil {
						s.FPUSink(f.req.Seq, w)
					}
					f.delivered++
					s.st.WordsDelivered++
				}
				if f.delivered > wordsBefore {
					if s.probe != nil {
						s.probe.Event(obs.Event{Kind: obs.KindBusBusy, Addr: f.req.Addr,
							Value: uint64(f.delivered - wordsBefore)})
					}
				}
			}
		}
		if s.cycle >= f.done {
			if f.req.OnComplete != nil {
				f.req.OnComplete(f.req.Seq)
			}
			s.releaseRequest(f.req)
			s.releaseInflight(f)
			continue
		}
		// Next action for a kept entry: its completion, or the next
		// input-bus transfer (cycle+1 once inside the transfer window).
		na := f.done
		if !f.req.Store && f.transfers > 0 && f.firstTransfer < na {
			if s.cycle+1 >= f.firstTransfer {
				na = s.cycle + 1
			} else {
				na = f.firstTransfer
			}
		}
		if na < next {
			next = na
		}
		kept = append(kept, f)
	}
	s.inflight = kept
	s.nextInflightAt = next
}

// allocInflight draws a transaction record from the pool.
func (s *System) allocInflight() *inflight {
	if n := len(s.freeInf); n > 0 {
		f := s.freeInf[n-1]
		s.freeInf = s.freeInf[:n-1]
		return f
	}
	return &inflight{}
}

// releaseInflight recycles a completed transaction record, keeping the
// multi-word data buffer's capacity.
func (s *System) releaseInflight(f *inflight) {
	f.req = nil
	f.firstTransfer = 0
	f.transfers = 0
	f.done = 0
	f.delivered = 0
	f.word0 = 0
	if f.data != nil {
		f.data = f.data[:0]
	}
	f.hasData = false
	s.freeInf = append(s.freeInf, f)
}

// accept runs the priority arbiter and starts at most one request.
func (s *System) accept() {
	if s.pending == 0 {
		return // nothing queued anywhere: the common idle cycle
	}
	if !s.cfg.Pipelined && s.cycle < s.memFreeAt && s.queues[classFPUResult].Len() == 0 {
		// The memory is busy and nothing bus-only is waiting: the scan
		// below could not accept anything, so skip it. (Canceled heads
		// stay queued a little longer; the arbiter drops them at the
		// next cycle it could actually accept, which changes nothing
		// observable — they occupy no memory resources.)
		return
	}
	for _, class := range s.prio {
		q := s.queues[class]
		if q.Len() == 0 {
			continue
		}
		// Drop canceled requests at the head.
		for {
			head, ok := q.Peek()
			if !ok || !head.canceled {
				break
			}
			q.MustPop()
			s.pending--
			s.releaseRequest(head)
		}
		head, ok := q.Peek()
		if !ok {
			continue
		}
		usesMemory := head.Kind != stats.ReqFPUResult
		if usesMemory && !s.cfg.Pipelined && s.cycle < s.memFreeAt {
			// The memory itself is busy; lower-priority classes must
			// not sneak past it to the memory either, but an FPU
			// result (bus-only) still may. Keep scanning only for
			// bus-only classes.
			continue
		}
		q.MustPop()
		s.pending--
		s.start(head)
		return
	}
}

// start schedules an accepted request.
func (s *System) start(r *Request) {
	r.accepted = true
	s.st.Accepted[r.Kind]++
	if s.probe != nil {
		s.probe.Event(obs.Event{Kind: obs.KindMemAccept, Addr: r.Addr, Arg: uint32(r.Kind)})
	}
	T := uint64(s.cfg.AccessTime)
	if r.Store {
		done := s.cycle + T
		s.applyStore(r)
		if !s.cfg.Pipelined {
			s.memFreeAt = done
		}
		f := s.allocInflight()
		f.req = r
		f.done = done
		s.inflight = append(s.inflight, f)
		if done < s.nextInflightAt {
			s.nextInflightAt = done
		}
		return
	}
	n := (r.Size + s.cfg.BusWidthBytes - 1) / s.cfg.BusWidthBytes
	var first uint64
	if r.Kind == stats.ReqFPUResult {
		// Produced by the FPU: needs only the input bus, one cycle
		// after the grant at the earliest.
		first = max64(s.cycle+1, s.inputBusFreeAt)
	} else {
		first = max64(s.cycle+T, s.inputBusFreeAt)
		if !s.cfg.Pipelined {
			s.memFreeAt = first + uint64(n) - 1
		}
	}
	s.inputBusFreeAt = first + uint64(n)
	f := s.allocInflight()
	f.req = r
	f.firstTransfer = first
	f.transfers = n
	f.done = first + uint64(n) - 1
	switch {
	case r.Kind == stats.ReqFPUResult:
		// The FPU produced the value; it rides in the request.
		f.hasData = true
		f.word0 = r.fpuResult
	case r.Size == 4:
		f.hasData = true
		f.word0 = s.ReadWord(r.Addr)
	default:
		f.hasData = true
		words := r.Size / 4
		if cap(f.data) >= words {
			f.data = f.data[:words]
		} else {
			f.data = make([]uint32, words)
		}
		for i := range f.data {
			f.data[i] = s.ReadWord(r.Addr + uint32(i*4))
		}
	}
	s.inflight = append(s.inflight, f)
	if first < s.nextInflightAt {
		s.nextInflightAt = first
	}
}

// applyStore writes store data into memory or the FPU. Writes become
// visible immediately on acceptance; the completion callback still waits
// for the access time, which is what frees the store queues.
func (s *System) applyStore(r *Request) {
	for i, w := range r.Data {
		addr := r.Addr + uint32(i*4)
		s.st.StoreWords++
		if addr >= program.FPUBase {
			s.fpuStore(addr, w, r.Seq)
			continue
		}
		s.WriteWord(addr, w)
	}
}

// fpuStore implements the memory-mapped FPU protocol.
func (s *System) fpuStore(addr, w uint32, seq uint64) {
	if addr == AddrFPUA {
		s.fpuA = w
		return
	}
	if !IsFPUTrigger(addr) {
		return // stores to other FPU-range addresses are ignored
	}
	a := math.Float32frombits(s.fpuA)
	b := math.Float32frombits(w)
	var r float32
	switch addr {
	case AddrFPUMul:
		r = a * b
	case AddrFPUAdd:
		r = a + b
	case AddrFPUSub:
		r = a - b
	case AddrFPUDiv:
		r = a / b
	}
	s.st.FPUOps++
	// The operand arrives when the store completes (T cycles); the unit
	// is not internally pipelined, so a new operation starts only after
	// the previous one finishes.
	startAt := max64(s.cycle+uint64(s.cfg.AccessTime), s.fpuLastReady)
	readyAt := startAt + uint64(s.cfg.FPULatency)
	s.fpuLastReady = readyAt
	s.fpuOps = append(s.fpuOps, fpuOp{readyAt: readyAt, result: math.Float32bits(r), seq: seq})
	if readyAt < s.nextFPUAt {
		s.nextFPUAt = readyAt
	}
}

// NoEvent is the NextEvent value meaning "no self-scheduled event": the
// unit's state cannot change until an external call mutates it. It compares
// greater than every real cycle number.
const NoEvent = ^uint64(0)

// NextEvent returns the earliest future cycle at which the memory system
// can act on its own — deliver an input-bus transfer, fire a completion
// callback, turn a finished FPU operation into a result request, or accept
// a queued request — or NoEvent when nothing is pending anywhere. Callers
// may advance the simulation clock to the returned cycle without running
// the intermediate BeginCycle/EndCycle pairs: every skipped cycle is
// provably a no-op for the System. Call after EndCycle; strictly read-only.
func (s *System) NextEvent() uint64 {
	next := NoEvent
	if s.pending > 0 {
		// A queued request is accepted by the first EndCycle the memory
		// can take it: immediately when pipelined or when a bus-only FPU
		// result is waiting (it bypasses the memory-busy gate), otherwise
		// once the non-pipelined memory frees up. Canceled requests also
		// count (conservatively): the arbiter drops them at the head scan.
		if s.cfg.Pipelined || s.queues[classFPUResult].Len() > 0 {
			return s.cycle + 1
		}
		next = max64(s.cycle+1, s.memFreeAt)
	}
	if s.nextInflightAt < next {
		next = s.nextInflightAt
	}
	if s.nextFPUAt < next {
		next = s.nextFPUAt
	}
	if next <= s.cycle {
		return s.cycle + 1
	}
	return next
}

// Drained reports whether no requests are queued or in flight and the FPU
// is idle. The simulator stops when the program has retired HALT and the
// memory system is drained.
func (s *System) Drained() bool {
	for _, q := range s.queues {
		for i := 0; i < q.Len(); i++ {
			if r, _ := q.At(i); !r.canceled {
				return false
			}
		}
	}
	return len(s.inflight) == 0 && len(s.fpuOps) == 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
