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
//
// # Request lifecycle
//
// A requester passes a Request by value to Submit, which copies it into
// its arbitration class's FIFO ring and returns a Handle: a ticket naming
// that ring and the request's sequence number in it. Until the arbiter
// accepts the request, Handle.Cancel withdraws it; the arbiter drops a
// canceled request when it reaches the head. Acceptance copies a read into
// the in-flight reads ring, whose slot then holds the request itself (a
// store's entry is its completion cycle); a data load snapshots its word
// at that moment, so it never sees a younger store. Every read's words go to one of two owners,
// each set once at construction: the fetch engine (FetchOwner) gets an
// instruction read as one call per input-bus transfer and one call when it
// completes, and the CPU (DataOwner) gets each load word and FPU result
// with its Seq. A store writes memory (or the FPU) at acceptance and
// completes with no callback. Nothing is pooled, so nothing is released,
// and a Handle kept past acceptance stays inert: its ticket is never
// issued again.
package mem

import (
	"fmt"
	"math"

	"pipesim/internal/obs"
	"pipesim/internal/program"
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

// Request is one off-chip transaction, passed by value: Submit copies it
// into its class's queue and acceptance copies it into the in-flight ring,
// so no requester keeps a reference to it.
//
// Loads, stores and FPU results are one word; instruction reads may span
// several. Word carries a store's datum and an FPU result's value; for a
// load, acceptance snapshots the addressed word into it. Seq is an opaque
// tag handed back to the data owner with each word.
type Request struct {
	Kind  stats.ReqKind
	Addr  uint32 // must be 4-byte aligned
	Word  uint32
	Size  int // bytes, multiple of 4
	Seq   uint64
	Store bool
}

// FetchOwner receives the instruction side's reads: instruction demand
// fetch and prefetch. The fetch engine reads instruction words from the
// program image, so a transfer carries only where its words land.
type FetchOwner interface {
	// FetchWords is one input-bus transfer: n words from addr on, in
	// address order.
	FetchWords(addr uint32, n int)
	// FetchDone follows the read's last transfer.
	FetchDone()
}

// DataOwner receives the data side's words: data loads and FPU results,
// one call per word with the request's Seq.
type DataOwner interface {
	DataWord(addr, word uint32, seq uint64)
}

// queued is one request waiting in its class's FIFO for the arbiter.
type queued struct {
	req      Request
	canceled bool
}

// Handle is a ticket for a submitted request: its class's queue and the
// request's position in the sequence of everything ever pushed there. It
// lets a requester cancel a request that has not yet been accepted (used by
// the conventional cache to replace a queued prefetch with a demand
// fetch). Tickets are never reused, so a Handle held past acceptance is
// inert rather than aliasing a later request in the same ring slot.
type Handle struct {
	q      *ring[queued]
	ticket uint64
}

// Cancel withdraws the request if it is still waiting for acceptance and
// reports whether it did so. A request already accepted runs to completion,
// as in the paper's single-outstanding-request model.
func (h Handle) Cancel() bool {
	if h.q == nil {
		return false
	}
	e := h.q.ticket(h.ticket)
	if e == nil || e.canceled {
		return false
	}
	e.canceled = true
	return true
}

// Queued reports whether the request is still waiting (not accepted, not
// canceled).
func (h Handle) Queued() bool {
	if h.q == nil {
		return false
	}
	e := h.q.ticket(h.ticket)
	return e != nil && !e.canceled
}

// inflight is one accepted read, holding the request itself.
type inflight struct {
	req           Request
	firstTransfer uint64 // cycle of the first input-bus transfer
	transfers     uint64 // number of input-bus transfers
	done          uint64 // cycle of the last transfer
	delivered     int    // words delivered so far
}

// ring is a FIFO held by value: a power-of-two ring that doubles when
// full, so after warm-up pushing and popping allocate nothing. popped
// counts every element ever popped, which numbers the elements in push
// order: the one pushed when popped+n was k keeps ticket k while it is
// queued.
type ring[T any] struct {
	buf    []T
	mask   int // len(buf) - 1
	head   int
	n      int
	popped uint64
}

// reserve makes room for one more element, doubling a full ring and
// keeping its elements in order. It is apart from push so that both
// inline: the call to grow runs only when the ring is full.
func (q *ring[T]) reserve() {
	if q.n == len(q.buf) {
		q.grow()
	}
}

func (q *ring[T]) grow() {
	grown := make([]T, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		grown[i] = q.buf[(q.head+i)&q.mask]
	}
	q.buf, q.mask, q.head = grown, len(grown)-1, 0
}

// push appends a slot at the tail and returns it; reserve first. The slot
// holds whatever element last used it: the caller sets every field it
// reads back. The pointer is valid until the next reserve.
func (q *ring[T]) push() *T {
	i := (q.head + q.n) & q.mask
	q.n++
	return &q.buf[i]
}

// front returns the oldest element; the ring must not be empty.
func (q *ring[T]) front() *T { return &q.buf[q.head] }

// pop removes the oldest element; the ring must not be empty.
func (q *ring[T]) pop() {
	q.head = (q.head + 1) & q.mask
	q.n--
	q.popped++
}

// at returns the i-th oldest element, 0 <= i < n.
func (q *ring[T]) at(i int) *T { return &q.buf[(q.head+i)&q.mask] }

// ticket returns the element holding ticket t, or nil once it has been
// popped. A ticket below popped wraps to a huge offset, so one compare
// covers both ends.
func (q *ring[T]) ticket(t uint64) *T {
	d := t - q.popped
	if d >= uint64(q.n) {
		return nil
	}
	return q.at(int(d))
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

	cycle  uint64
	queues [numClasses]ring[queued]
	// Accepted transactions, each list in acceptance order. Reads take
	// the input bus one after another (each starts at or after the
	// previous one's last transfer), so they transfer and complete in
	// order and only the oldest can be on the bus. Stores complete a
	// fixed access time after acceptance, so they too complete in order;
	// a store's entry is the cycle it completes.
	reads          ring[inflight]
	stores         ring[uint64]
	memFreeAt      uint64 // non-pipelined: earliest next acceptance
	inputBusFreeAt uint64 // watermark of the next free input-bus cycle

	// wordsPerTransfer is BusWidthBytes/4; busShift is log2 BusWidthBytes,
	// so a transfer count is a shift rather than a divide.
	wordsPerTransfer int
	busShift         uint

	// Cached earliest-action cycles, so the per-cycle BeginCycle phases
	// and NextEvent are O(1) instead of scanning transaction lists. Both
	// are conservative: they may be earlier than the true next action
	// (the scan then runs and re-tightens them) but never later.
	nextInflightAt uint64 // earliest next transfer or completion
	nextFPUAt      uint64 // min readyAt over fpuOps

	prio    [numClasses]int // arbitration order, fixed by the config
	pending int             // queued requests across all classes (arbiter fast path)

	// The two owners, set once by the fetch engine's and the CPU's
	// constructors: every read's words go to one of them.
	fetch FetchOwner
	data  DataOwner

	fpuA         uint32
	fpuLastReady uint64
	fpuOps       []fpuOp

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

// SetFetchOwner makes o the receiver of every instruction fetch and
// prefetch. The fetch engine's constructor calls it.
func (s *System) SetFetchOwner(o FetchOwner) { s.fetch = o }

// SetDataOwner makes o the receiver of every data load word and FPU
// result. The CPU's constructor calls it.
func (s *System) SetDataOwner(o DataOwner) { s.data = o }

// New builds a memory system preloaded with the program image's text and
// data segments.
func New(cfg Config, img *program.Image, st *stats.Mem) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &stats.Mem{}
	}
	s := &System{cfg: cfg, st: st, nextInflightAt: NoEvent, nextFPUAt: NoEvent,
		wordsPerTransfer: cfg.BusWidthBytes / 4}
	for 1<<s.busShift < cfg.BusWidthBytes {
		s.busShift++
	}
	for i := range s.ram {
		s.ram[i] = &zeroPage
	}
	for i, w := range img.RAMWords() {
		s.WriteWord(program.TextBase+4*uint32(i), w)
	}
	for i, w := range img.Data {
		s.WriteWord(program.DataBase+4*uint32(i), w)
	}
	if cfg.InstrPriority {
		s.prio = [...]int{classIFetch, classData, classFPUResult, classIPrefetch}
	} else {
		s.prio = [...]int{classData, classIFetch, classFPUResult, classIPrefetch}
	}
	return s, nil
}

// Cycle returns the current cycle number (the cycle most recently passed to
// Tick).
func (s *System) Cycle() uint64 { return s.cycle }

// DebugState renders the per-class queue occupancy and in-flight state in
// one line, for deadlock and machine-check diagnostics.
func (s *System) DebugState() string {
	return fmt.Sprintf("mem{ifetch %d data %d fpu-result %d iprefetch %d inflight %d fpu-ops %d mem-free-at %d bus-free-at %d}",
		s.queues[classIFetch].n, s.queues[classData].n,
		s.queues[classFPUResult].n, s.queues[classIPrefetch].n,
		s.reads.n+s.stores.n, len(s.fpuOps), s.memFreeAt, s.inputBusFreeAt)
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
func (s *System) Submit(r Request) Handle {
	if r.Addr%4 != 0 || r.Size <= 0 || r.Size%4 != 0 || r.Size != 4 && !isFetch(r.Kind) {
		panic(fmt.Sprintf("mem: malformed %v request addr=%#x size=%d (data requests are one word)", r.Kind, r.Addr, r.Size))
	}
	q := &s.queues[classOf(r.Kind)]
	h := Handle{q: q, ticket: q.popped + uint64(q.n)}
	// Field by field: a whole-struct copy reads the spilled argument back
	// in 16-byte chunks across narrower stores, which defeats store
	// forwarding on one of the hottest calls of the cycle.
	q.reserve()
	e := q.push()
	e.req.Kind, e.req.Addr, e.req.Word = r.Kind, r.Addr, r.Word
	e.req.Size, e.req.Seq, e.req.Store = r.Size, r.Seq, r.Store
	e.canceled = false
	s.pending++
	return h
}

// isFetch reports whether k is an instruction read, whose words go to the
// fetch owner (stats orders the two instruction kinds last).
func isFetch(k stats.ReqKind) bool { return k >= stats.ReqIFetch }

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
// delivered. Call before the fetch engines and CPU tick. A cycle with
// nothing due costs no call: BeginCycle is small enough to inline, and the
// phases run only once their cached event cycle has come.
func (s *System) BeginCycle(cycle uint64) {
	s.cycle = cycle
	if cycle >= s.nextFPUAt || cycle >= s.nextInflightAt {
		s.begin()
	}
}

// begin runs BeginCycle's phases that are due.
func (s *System) begin() {
	if s.cycle >= s.nextFPUAt {
		s.fpuComplete()
	}
	if s.cycle >= s.nextInflightAt {
		s.deliver()
	}
}

// EndCycle runs the arbiter over everything submitted up to and including
// this cycle, accepting at most one request. Call after the fetch engines
// and CPU tick. While the non-pipelined memory is busy and no bus-only FPU
// result waits, nothing can be accepted, so the arbiter is not called.
// (memFreeAt stays 0 for pipelined memory. Canceled heads stay queued a
// little longer; the arbiter drops them at the next cycle it could
// actually accept, which changes nothing observable — they occupy no
// memory resources.)
func (s *System) EndCycle() {
	if s.pending > 0 && (s.cycle >= s.memFreeAt || s.queues[classFPUResult].n > 0) {
		s.accept()
	}
}

// fpuComplete turns finished FPU operations into result-return requests.
// The result value rides in the request's Word. Call only once the cycle
// has reached nextFPUAt.
func (s *System) fpuComplete() {
	rest := s.fpuOps[:0]
	next := NoEvent
	for _, op := range s.fpuOps {
		if op.readyAt <= s.cycle {
			// AddrFPUA is the nominal source address: it lies in the FPU
			// range, so the data owner can tell a result from a load.
			s.Submit(Request{Kind: stats.ReqFPUResult, Addr: AddrFPUA, Size: 4, Word: op.result, Seq: op.seq})
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

// deliver performs this cycle's input-bus transfers and completions. Call
// only once the cycle has reached nextInflightAt.
func (s *System) deliver() {
	cycle := s.cycle
	for s.stores.n > 0 && *s.stores.front() <= cycle {
		s.stores.pop() // a store completes with no callback
	}
	if s.reads.n > 0 {
		if f := s.reads.front(); cycle >= f.firstTransfer && cycle < f.firstTransfer+f.transfers {
			s.transfer(f)
			if cycle >= f.done {
				kind := f.req.Kind
				s.reads.pop()
				if isFetch(kind) {
					s.fetch.FetchDone()
				}
			}
		}
	}
	// The oldest entry of each ring acts first: a read's next transfer
	// (the next cycle once inside its window), a store's completion.
	next := NoEvent
	if s.stores.n > 0 {
		next = *s.stores.front()
	}
	if s.reads.n > 0 {
		if na := max64(cycle+1, s.reads.front().firstTransfer); na < next {
			next = na
		}
	}
	s.nextInflightAt = next
}

// transfer delivers one input-bus transfer of the read f to its owner: up
// to a bus width of an instruction read's words to the fetch owner, or a
// data read's one word to the data owner.
func (s *System) transfer(f *inflight) {
	s.st.InputBusCycles++
	r := &f.req
	first := f.delivered
	end := min(first+s.wordsPerTransfer, r.Size>>2)
	if isFetch(r.Kind) {
		s.fetch.FetchWords(r.Addr+uint32(first*4), end-first)
	} else {
		s.data.DataWord(r.Addr, r.Word, r.Seq)
	}
	f.delivered = end
	s.st.WordsDelivered += uint64(end - first)
	if s.probe != nil {
		s.probe.Event(obs.Event{Kind: obs.KindBusBusy, Addr: r.Addr, Value: uint64(end - first)})
	}
}

// accept runs the priority arbiter and starts at most one request. Call
// only with a request pending that the memory or the bus could take.
func (s *System) accept() {
	for _, class := range &s.prio { // by pointer: no copy of the array per call
		q := &s.queues[class]
		// Drop canceled requests at the head.
		for q.n > 0 && q.front().canceled {
			q.pop()
			s.pending--
		}
		if q.n == 0 {
			continue
		}
		head := &q.front().req
		if head.Kind != stats.ReqFPUResult && s.cycle < s.memFreeAt {
			// The memory itself is busy; lower-priority classes must
			// not sneak past it to the memory either, but an FPU
			// result (bus-only) still may. Keep scanning only for
			// bus-only classes.
			continue
		}
		s.start(head)
		q.pop()
		s.pending--
		return
	}
}

// start schedules an accepted request, copying it into its in-flight ring.
func (s *System) start(r *Request) {
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
		s.stores.reserve()
		*s.stores.push() = done
		if done < s.nextInflightAt {
			s.nextInflightAt = done
		}
		return
	}
	n := uint64((r.Size + s.cfg.BusWidthBytes - 1) >> s.busShift)
	var first uint64
	if r.Kind == stats.ReqFPUResult {
		// Produced by the FPU: needs only the input bus, one cycle
		// after the grant at the earliest.
		first = max64(s.cycle+1, s.inputBusFreeAt)
	} else {
		first = max64(s.cycle+T, s.inputBusFreeAt)
		if !s.cfg.Pipelined {
			s.memFreeAt = first + n - 1
		}
	}
	s.inputBusFreeAt = first + n
	s.reads.reserve()
	f := s.reads.push()
	f.req = *r
	if r.Kind == stats.ReqDataLoad {
		// Snapshot the word now, so an in-flight load never observes a
		// younger store. Instruction reads carry no words: their owner
		// reads the program image.
		f.req.Word = s.ReadWord(r.Addr)
	}
	f.firstTransfer = first
	f.transfers = n
	f.done = first + n - 1
	f.delivered = 0
	if first < s.nextInflightAt {
		s.nextInflightAt = first
	}
}

// applyStore writes a store's word into memory or the FPU. Writes become
// visible immediately on acceptance; the completion still waits for the
// access time, which is what keeps the non-pipelined memory busy.
func (s *System) applyStore(r *Request) {
	s.st.StoreWords++
	if r.Addr >= program.FPUBase {
		s.fpuStore(r.Addr, r.Word, r.Seq)
		return
	}
	s.WriteWord(r.Addr, r.Word)
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
		if s.cfg.Pipelined || s.queues[classFPUResult].n > 0 {
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
	for k := range s.queues {
		q := &s.queues[k]
		for i := 0; i < q.n; i++ {
			if !q.at(i).canceled {
				return false
			}
		}
	}
	return s.reads.n == 0 && s.stores.n == 0 && len(s.fpuOps) == 0
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
