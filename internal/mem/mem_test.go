package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesim/internal/program"
	"pipesim/internal/stats"
)

func testImage(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder()
	b.Halt()
	b.DataLabel("v")
	for i := 0; i < 64; i++ {
		b.Word(uint32(0x1000 + i))
	}
	img, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// transfer is one FetchWords call; dataWord one DataWord call. Both are
// stamped with the cycle the System delivered them in.
type transfer struct {
	cycle uint64
	addr  uint32
	n     int
}

type dataWord struct {
	cycle uint64
	addr  uint32
	word  uint32
	seq   uint64
}

// owners is a test fetch owner and data owner in one: it records every
// call, and a combined log of the addresses words arrived at, so tests
// can check delivery order across the two sides.
type owners struct {
	s     *System
	fetch []transfer
	done  []uint64 // cycles of FetchDone calls
	data  []dataWord
	order []uint32 // first address of every delivery, both sides
}

func (o *owners) FetchWords(addr uint32, n int) {
	o.fetch = append(o.fetch, transfer{cycle: o.s.Cycle(), addr: addr, n: n})
	o.order = append(o.order, addr)
}

func (o *owners) FetchDone() { o.done = append(o.done, o.s.Cycle()) }

func (o *owners) DataWord(addr, w uint32, seq uint64) {
	o.data = append(o.data, dataWord{cycle: o.s.Cycle(), addr: addr, word: w, seq: seq})
	o.order = append(o.order, addr)
}

// words expands the recorded transfers into one (cycle, addr) per word.
func (o *owners) words() []transfer {
	var out []transfer
	for _, tr := range o.fetch {
		for i := 0; i < tr.n; i++ {
			out = append(out, transfer{cycle: tr.cycle, addr: tr.addr + uint32(4*i), n: 1})
		}
	}
	return out
}

func newSys(t *testing.T, cfg Config) (*System, *stats.Mem, *owners) {
	t.Helper()
	st := &stats.Mem{}
	s, err := New(cfg, testImage(t), st)
	if err != nil {
		t.Fatal(err)
	}
	o := &owners{s: s}
	s.SetFetchOwner(o)
	s.SetDataOwner(o)
	return s, st, o
}

func run(s *System, from, to uint64) {
	for cyc := from; cyc <= to; cyc++ {
		s.Tick(cyc)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{AccessTime: 0, BusWidthBytes: 4, FPULatency: 4},
		{AccessTime: 1, BusWidthBytes: 3, FPULatency: 4},
		{AccessTime: 1, BusWidthBytes: 4, FPULatency: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	good := Config{AccessTime: 6, BusWidthBytes: 8, FPULatency: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

// TestReadTimingTable checks first-word latency and transfer counts for the
// parameter combinations used in the paper's figures: an instruction read
// reaches its owner one call per input-bus transfer, a bus width of words
// at a time, and completes right after its last transfer.
func TestReadTimingTable(t *testing.T) {
	cases := []struct {
		name       string
		accessTime int
		busWidth   int
		size       int
		wantCycles []uint64 // cycles (relative to acceptance) words arrive
	}{
		{"T1_W4_4B", 1, 4, 4, []uint64{1}},
		{"T1_W8_8B", 1, 8, 8, []uint64{1, 1}},
		{"T6_W4_16B", 6, 4, 16, []uint64{6, 7, 8, 9}},
		{"T6_W8_16B", 6, 8, 16, []uint64{6, 6, 7, 7}},
		{"T6_W8_32B", 6, 8, 32, []uint64{6, 6, 7, 7, 8, 8, 9, 9}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, st, o := newSys(t, Config{AccessTime: c.accessTime, BusWidthBytes: c.busWidth, FPULatency: 4})
			s.Submit(Request{Kind: stats.ReqIFetch, Addr: program.TextBase, Size: c.size})
			run(s, 1, 40)
			got := o.words()
			if len(got) != len(c.wantCycles) {
				t.Fatalf("delivered %d words, want %d", len(got), len(c.wantCycles))
			}
			// Request is accepted at cycle 1 (first tick).
			for i, d := range got {
				if d.cycle != 1+c.wantCycles[i] {
					t.Errorf("word %d at cycle %d, want %d", i, d.cycle, 1+c.wantCycles[i])
				}
				if want := program.TextBase + uint32(4*i); d.addr != want {
					t.Errorf("word %d addr %#x, want %#x", i, d.addr, want)
				}
			}
			transfers := (c.size + c.busWidth - 1) / c.busWidth
			if len(o.fetch) != transfers || st.InputBusCycles != uint64(transfers) {
				t.Errorf("%d FetchWords calls, %d bus cycles; want %d each", len(o.fetch), st.InputBusCycles, transfers)
			}
			last := 1 + c.wantCycles[len(c.wantCycles)-1]
			if len(o.done) != 1 || o.done[0] != last {
				t.Errorf("FetchDone at %v, want once at %d", o.done, last)
			}
			if len(o.data) != 0 {
				t.Errorf("an instruction read reached the data owner: %v", o.data)
			}
		})
	}
}

// TestNonPipelinedAcceptanceCadence verifies the initiation interval
// T + n - 1 for back-to-back single requests, including the paper's claim
// that pipelining is irrelevant at T=1 with single transfers.
func TestNonPipelinedAcceptanceCadence(t *testing.T) {
	cases := []struct {
		accessTime, busWidth, size int
		pipelined                  bool
		wantInterval               uint64 // between consecutive first words
	}{
		{1, 4, 4, false, 1}, // T=1: one request per cycle even non-pipelined
		{1, 4, 4, true, 1},
		{6, 4, 4, false, 6},
		{6, 4, 4, true, 1}, // pipelined: bus-limited, 1 word/cycle
		{6, 8, 16, false, 7},
		{6, 8, 16, true, 2}, // two transfers per request
	}
	for _, c := range cases {
		s, _, o := newSys(t, Config{AccessTime: c.accessTime, BusWidthBytes: c.busWidth, Pipelined: c.pipelined, FPULatency: 4})
		for i := 0; i < 3; i++ {
			s.Submit(Request{Kind: stats.ReqIFetch, Addr: program.TextBase + uint32(i*c.size), Size: c.size})
		}
		run(s, 1, 100)
		var firstWords []uint64
		for _, tr := range o.fetch {
			if int(tr.addr-program.TextBase)%c.size == 0 {
				firstWords = append(firstWords, tr.cycle)
			}
		}
		if len(firstWords) != 3 || len(o.done) != 3 {
			t.Fatalf("%+v: got %d first words, %d completions", c, len(firstWords), len(o.done))
		}
		for i := 1; i < 3; i++ {
			if got := firstWords[i] - firstWords[i-1]; got != c.wantInterval {
				t.Errorf("config %+v: interval %d, want %d", c, got, c.wantInterval)
			}
		}
	}
}

// TestPipelinedOverlappingRequests: with pipelined memory, two multi-word
// requests accepted on consecutive cycles overlap their access times and
// serialize only on the input bus.
func TestPipelinedOverlappingRequests(t *testing.T) {
	s, _, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 8, Pipelined: true, FPULatency: 4})
	for i := 0; i < 2; i++ {
		s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase + uint32(16*i), Size: 16})
	}
	run(s, 1, 30)
	got := o.words()
	if len(got) != 8 {
		t.Fatalf("delivered %d words", len(got))
	}
	// Request 0 accepted at 1: transfers at 7,7,8,8. Request 1 accepted
	// at 2: earliest at 8, but the bus is busy until 9: transfers 9,9,10,10.
	wantCycles := []uint64{7, 7, 8, 8, 9, 9, 10, 10}
	for i, a := range got {
		if a.cycle != wantCycles[i] {
			t.Errorf("word %d arrived at %d, want %d", i, a.cycle, wantCycles[i])
		}
	}
	// Words of the two requests must not interleave.
	for i := 0; i < 4; i++ {
		if got[i].addr >= program.TextBase+16 {
			t.Errorf("request 1 word delivered before request 0 finished")
		}
	}
	if len(o.done) != 2 || o.done[0] != 8 || o.done[1] != 10 {
		t.Errorf("completions at %v, want [8 10]", o.done)
	}
}

// TestStoreAppliesAndCompletes: a store writes at acceptance, reaches no
// owner, and keeps the non-pipelined memory busy for the access time.
func TestStoreAppliesAndCompletes(t *testing.T) {
	s, st, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	s.Submit(Request{Kind: stats.ReqDataStore, Addr: program.DataBase + 8, Size: 4, Store: true, Word: 0xDEAD})
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase + 8, Size: 4, Seq: 5})
	run(s, 1, 6)
	if got := s.ReadWord(program.DataBase + 8); got != 0xDEAD {
		t.Errorf("stored word = %#x", got)
	}
	if s.Drained() {
		t.Error("drained while the store is in flight")
	}
	run(s, 7, 20)
	if st.StoreWords != 1 {
		t.Errorf("StoreWords = %d", st.StoreWords)
	}
	// Store accepted at 1 completes at 1+6, which frees the memory for
	// the load: accepted at 7, delivered at 13 with the stored word.
	if len(o.data) != 1 || o.data[0] != (dataWord{cycle: 13, addr: program.DataBase + 8, word: 0xDEAD, seq: 5}) {
		t.Errorf("data owner saw %+v, want the stored word at cycle 13", o.data)
	}
	if len(o.fetch) != 0 || len(o.done) != 0 {
		t.Errorf("a data request reached the fetch owner: %v %v", o.fetch, o.done)
	}
	if !s.Drained() {
		t.Error("not drained")
	}
}

// TestUnwrittenMemoryReadsZero covers the paged RAM: an address no image
// segment or store has touched reads as zero until its first write, and
// addresses wrap at the 20-bit mask.
func TestUnwrittenMemoryReadsZero(t *testing.T) {
	s, _, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	const addr = program.DataBase + 0x20000
	if got := s.ReadWord(addr); got != 0 {
		t.Fatalf("unwritten word = %#x, want 0", got)
	}
	s.WriteWord(addr+program.AddrMask+1, 0xBEEF) // wraps onto addr
	if got := s.ReadWord(addr); got != 0xBEEF {
		t.Errorf("written word = %#x, want 0xbeef", got)
	}
	if got := s.ReadWord(addr + 4); got != 0 {
		t.Errorf("neighbour of a written word = %#x, want 0", got)
	}
}

func TestLoadSnapshotsAtAcceptance(t *testing.T) {
	// A load accepted before a (timing-bypassed) later write must return
	// the old value even though it delivers after the write.
	s, _, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4, Seq: 9})
	s.Tick(1) // accepted here
	s.WriteWord(program.DataBase, 0xFFFF)
	run(s, 2, 10)
	want := dataWord{cycle: 7, addr: program.DataBase, word: 0x1000, seq: 9}
	if len(o.data) != 1 || o.data[0] != want {
		t.Errorf("data owner saw %+v, want %+v (the acceptance-time value)", o.data, want)
	}
}

func TestArbitrationPriorityInstrFirst(t *testing.T) {
	s, st, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, InstrPriority: true, FPULatency: 4})
	// Submit in inverse priority order; acceptance should re-sort them.
	s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase + 64, Size: 4})
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase + 4, Size: 4})
	s.Submit(Request{Kind: stats.ReqIFetch, Addr: program.TextBase, Size: 4})
	run(s, 1, 60)
	want := []uint32{program.TextBase, program.DataBase + 4, program.TextBase + 64}
	if len(o.order) != len(want) {
		t.Fatalf("deliveries = %#x", o.order)
	}
	for i := range want {
		if o.order[i] != want[i] {
			t.Fatalf("delivery order = %#x, want %#x", o.order, want)
		}
	}
	if st.Accepted[stats.ReqIFetch] != 1 || st.Accepted[stats.ReqDataLoad] != 1 {
		t.Error("acceptance counters wrong")
	}
}

func TestArbitrationPriorityDataFirst(t *testing.T) {
	s, _, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, InstrPriority: false, FPULatency: 4})
	s.Submit(Request{Kind: stats.ReqIFetch, Addr: program.TextBase, Size: 4})
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
	run(s, 1, 40)
	if len(o.order) != 2 || o.order[0] != program.DataBase {
		t.Fatalf("delivery order = %#x, want data load first", o.order)
	}
}

func TestCancelQueuedRequest(t *testing.T) {
	s, st, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	// Occupy the memory with a load, then queue a prefetch and cancel it
	// before it can be accepted.
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
	h := s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase, Size: 4})
	s.Tick(1)
	if !h.Queued() {
		t.Fatal("prefetch should still be queued behind the busy memory")
	}
	if !h.Cancel() {
		t.Fatal("Cancel failed on queued request")
	}
	if h.Queued() || h.Cancel() {
		t.Fatal("canceled request still queued, or canceled twice")
	}
	run(s, 2, 40)
	if len(o.fetch) != 0 || len(o.done) != 0 {
		t.Error("canceled prefetch still delivered")
	}
	if st.Accepted[stats.ReqIPrefetch] != 0 {
		t.Error("canceled prefetch was accepted")
	}
	if !s.Drained() {
		t.Error("system not drained after cancel")
	}
}

func TestCancelAcceptedRequestFails(t *testing.T) {
	s, _, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	h := s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
	s.Tick(1)
	if h.Queued() || h.Cancel() {
		t.Error("accepted request reported queued / canceled")
	}
	var zero Handle
	if zero.Queued() || zero.Cancel() {
		t.Error("the zero Handle reported queued / canceled")
	}
}

// TestCanceledHeadDroppedByArbiter: a canceled request at the head of its
// class is dropped at the next cycle the memory could accept, and the
// request behind it is accepted in that same cycle.
func TestCanceledHeadDroppedByArbiter(t *testing.T) {
	s, st, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4}) // busy until 7
	head := s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase, Size: 4})
	next := s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase + 4, Size: 4})
	s.Tick(1)
	if !head.Cancel() {
		t.Fatal("Cancel failed on the queued head")
	}
	run(s, 2, 6)
	if !next.Queued() {
		t.Fatal("the request behind the canceled head left the queue early")
	}
	s.Tick(7) // the memory frees: the canceled head is dropped, next accepted
	if next.Queued() || st.Accepted[stats.ReqIPrefetch] != 1 {
		t.Fatalf("at cycle 7: next queued=%v, prefetches accepted %d; want accepted once",
			next.Queued(), st.Accepted[stats.ReqIPrefetch])
	}
	run(s, 8, 20)
	if len(o.fetch) != 1 || o.fetch[0] != (transfer{cycle: 13, addr: program.TextBase + 4, n: 1}) {
		t.Errorf("fetch transfers %+v, want only the second prefetch at cycle 13", o.fetch)
	}
	if !s.Drained() {
		t.Error("not drained")
	}
}

// TestHandleInertAfterSlotReuse: a Handle kept past acceptance names a
// ticket, not a ring slot, so once its class ring wraps and a later
// request occupies the same slot, the old Handle still reads as accepted
// and cannot cancel the newcomer.
func TestHandleInertAfterSlotReuse(t *testing.T) {
	s, st, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	old := s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase, Size: 4})
	q := &s.queues[classIPrefetch]
	slot := q.front()
	s.Tick(1)
	if old.Queued() {
		t.Fatal("accepted request still queued")
	}
	// Fill the ring once around without growing it: no cycle runs while
	// they are submitted, so the queue holds them all.
	var later []Handle
	for i := 1; i <= len(q.buf); i++ {
		later = append(later, s.Submit(Request{Kind: stats.ReqIPrefetch, Addr: program.TextBase + uint32(4*i), Size: 4}))
	}
	var reused Handle
	for i, h := range later {
		if h.q.ticket(h.ticket) == slot {
			reused = later[i]
		}
	}
	if reused.q == nil {
		t.Fatal("no later request landed in the old request's slot")
	}
	if old.Queued() || old.Cancel() {
		t.Error("the stale Handle aliased the request now in its slot")
	}
	if !reused.Queued() {
		t.Error("the request in the reused slot was canceled through the stale Handle")
	}
	run(s, 2, 40)
	if got := st.Accepted[stats.ReqIPrefetch]; got != uint64(1+len(later)) {
		t.Errorf("accepted %d prefetches, want %d", got, 1+len(later))
	}
}

func TestFPUMultiplyProtocol(t *testing.T) {
	s, st, o := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	a, b := float32(2.5), float32(4.0)
	s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4, Word: math.Float32bits(a)})
	s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4, Word: math.Float32bits(b), Seq: 77})
	run(s, 1, 40)
	if len(o.data) != 1 {
		t.Fatalf("data owner saw %+v, want one FPU result", o.data)
	}
	r := o.data[0]
	if math.Float32frombits(r.word) != 10.0 {
		t.Errorf("FPU result = %v, want 10", math.Float32frombits(r.word))
	}
	if r.seq != 77 {
		t.Errorf("FPU seq = %d, want 77", r.seq)
	}
	if r.addr < program.FPUBase {
		t.Errorf("FPU result address %#x lies outside the FPU range", r.addr)
	}
	if st.FPUOps != 1 || st.Accepted[stats.ReqFPUResult] != 1 {
		t.Errorf("FPUOps = %d, results accepted %d", st.FPUOps, st.Accepted[stats.ReqFPUResult])
	}
	// Trigger store accepted at cycle 2 (store A at 1), arrives at 2+1,
	// ready at 3+4=7, result request submitted at 7, accepted at 7,
	// bus transfer at 8.
	if r.cycle != 8 {
		t.Errorf("FPU result delivered at %d, want 8", r.cycle)
	}
}

func TestFPUAllOps(t *testing.T) {
	ops := []struct {
		trigger uint32
		want    float32
	}{
		{AddrFPUMul, 3 * 7},
		{AddrFPUAdd, 3 + 7},
		{AddrFPUSub, 3 - 7},
		{AddrFPUDiv, 3.0 / 7.0},
	}
	for _, op := range ops {
		s, _, o := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
		s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4, Word: math.Float32bits(3)})
		s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: op.trigger, Size: 4, Word: math.Float32bits(7)})
		run(s, 1, 40)
		if len(o.data) != 1 {
			t.Fatalf("trigger %#x: %d results", op.trigger, len(o.data))
		}
		if got := math.Float32frombits(o.data[0].word); got != op.want {
			t.Errorf("trigger %#x: result = %v, want %v", op.trigger, got, op.want)
		}
	}
}

func TestFPUSerializesOperations(t *testing.T) {
	// Two back-to-back multiplies must finish FPULatency apart, not
	// together: the unit is not internally pipelined.
	s, _, o := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	for i := 0; i < 2; i++ {
		s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4, Word: math.Float32bits(1)})
		s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4, Word: math.Float32bits(1), Seq: uint64(i)})
	}
	run(s, 1, 60)
	if len(o.data) != 2 {
		t.Fatalf("arrivals = %+v", o.data)
	}
	if o.data[0].seq != 0 || o.data[1].seq != 1 {
		t.Errorf("results arrived as seq %d, %d; want 0, 1", o.data[0].seq, o.data[1].seq)
	}
	if gap := o.data[1].cycle - o.data[0].cycle; gap < 4 {
		t.Errorf("second result only %d cycles after first; FPU must serialize", gap)
	}
}

func TestIsFPUTrigger(t *testing.T) {
	for _, a := range []uint32{AddrFPUMul, AddrFPUAdd, AddrFPUSub, AddrFPUDiv} {
		if !IsFPUTrigger(a) {
			t.Errorf("IsFPUTrigger(%#x) = false", a)
		}
	}
	if IsFPUTrigger(AddrFPUA) || IsFPUTrigger(program.DataBase) {
		t.Error("non-trigger address reported as trigger")
	}
}

func TestFPUResultBypassesBusyMemory(t *testing.T) {
	// With non-pipelined slow memory saturated by loads, FPU results
	// (which need only the input bus) must still get through.
	s, _, o := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4, InstrPriority: true})
	s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4, Word: math.Float32bits(1)})
	s.Submit(Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4, Word: math.Float32bits(1), Seq: 1})
	var resultAt uint64
	for cyc := uint64(1); cyc <= 64; cyc++ {
		// Keep the memory permanently busy with queued loads from cycle
		// 8 on (after the operand stores have been accepted).
		if cyc >= 8 {
			s.Submit(Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4, Seq: 100 + cyc})
		}
		s.Tick(cyc)
		for _, d := range o.data {
			if d.seq == 1 && resultAt == 0 {
				resultAt = cyc
			}
		}
	}
	if resultAt == 0 {
		t.Fatal("FPU result starved behind busy memory")
	}
	// Operand A accepted at 1, trigger at 7 (store occupies memory 6
	// cycles), op starts when the trigger store completes at 13, ready at
	// 17, bus transfer shortly after — well before the load queue drains.
	if resultAt > 25 {
		t.Errorf("FPU result arrived at cycle %d; it should bypass the busy memory", resultAt)
	}
}

func TestMalformedRequestsPanic(t *testing.T) {
	s, _, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	bad := []Request{
		{Kind: stats.ReqDataLoad, Addr: 2, Size: 4},                        // unaligned
		{Kind: stats.ReqIFetch, Addr: 0, Size: 0},                          // empty
		{Kind: stats.ReqIFetch, Addr: 0, Size: 6},                          // not word multiple
		{Kind: stats.ReqDataStore, Addr: 0, Size: 8, Store: true, Word: 1}, // stores are one word
		{Kind: stats.ReqDataLoad, Addr: 0, Size: 8},                        // so are loads
	}
	for _, r := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", r)
				}
			}()
			s.Submit(r)
		}()
	}
}

// TestQuickDeliveryInvariants drives a random request mix, canceling some
// queued prefetches, and checks the invariants every configuration must
// uphold: each read's words arrive in address order, never earlier than
// submission+T, the input bus is never double-booked, every non-canceled
// request completes exactly once, and no canceled one delivers anything.
func TestQuickDeliveryInvariants(t *testing.T) {
	const stride = 64 // request i reads from DataBase + stride*i
	f := func(seed int64, pipelined bool, t6 bool, wide bool) bool {
		cfg := Config{AccessTime: 1, BusWidthBytes: 4, Pipelined: pipelined, FPULatency: 4}
		if t6 {
			cfg.AccessTime = 6
		}
		if wide {
			cfg.BusWidthBytes = 8
		}
		s, err := New(cfg, testImage(t), &stats.Mem{})
		if err != nil {
			return false
		}
		type tracker struct {
			kind      stats.ReqKind
			submitted uint64
			lastAddr  int64
			lastCycle uint64
			words     int
			expected  int
			completed int
			h         Handle
			canceled  bool
		}
		var trackers []*tracker
		of := func(addr uint32) *tracker { return trackers[(addr-program.DataBase)/stride] }
		busWords := map[uint64]int{}
		var current *tracker // the instruction read on the bus
		o := &quickOwners{
			word: func(addr uint32) {
				tr := of(addr)
				if int64(addr) <= tr.lastAddr {
					t.Errorf("out-of-order word delivery")
				}
				tr.lastAddr = int64(addr)
				tr.lastCycle = s.Cycle()
				tr.words++
				busWords[s.Cycle()]++
			},
		}
		o.fetchWords = func(addr uint32, n int) {
			current = of(addr)
			for i := 0; i < n; i++ {
				o.word(addr + uint32(4*i))
			}
		}
		o.fetchDone = func() { current.completed++ }
		o.dataWord = func(addr uint32, seq uint64) {
			o.word(addr)
			if tr := of(addr); uint64((addr-program.DataBase)/stride) != seq {
				t.Errorf("load seq %d at %#x", seq, addr)
			} else {
				tr.completed++
			}
		}
		s.SetFetchOwner(o)
		s.SetDataOwner(o)
		rng := rand.New(rand.NewSource(seed))
		for cyc := uint64(1); cyc <= 400; cyc++ {
			if len(trackers) < 25 && rng.Intn(3) == 0 {
				kind := []stats.ReqKind{stats.ReqDataLoad, stats.ReqIFetch, stats.ReqIPrefetch}[rng.Intn(3)]
				size := 4
				if kind != stats.ReqDataLoad {
					size = 4 * (1 + rng.Intn(8))
				}
				i := len(trackers)
				tr := &tracker{kind: kind, submitted: cyc, lastAddr: -1, expected: size / 4}
				trackers = append(trackers, tr)
				tr.h = s.Submit(Request{Kind: kind, Addr: program.DataBase + uint32(stride*i), Size: size, Seq: uint64(i)})
			}
			for _, tr := range trackers {
				if tr.kind == stats.ReqIPrefetch && !tr.canceled && tr.h.Queued() && rng.Intn(8) == 0 {
					tr.canceled = tr.h.Cancel()
				}
			}
			s.Tick(cyc)
		}
		for c, n := range busWords {
			if n > cfg.BusWidthBytes/4 {
				t.Errorf("cycle %d carried %d words on a %d-byte bus", c, n, cfg.BusWidthBytes)
				return false
			}
		}
		for _, tr := range trackers {
			if tr.canceled {
				if tr.words != 0 || tr.completed != 0 {
					return false
				}
				continue
			}
			if tr.completed != 1 || tr.words != tr.expected {
				return false
			}
			if tr.lastCycle < tr.submitted+uint64(cfg.AccessTime) {
				return false
			}
		}
		return s.Drained()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// quickOwners adapts closures to the two owner interfaces.
type quickOwners struct {
	word       func(addr uint32)
	fetchWords func(addr uint32, n int)
	fetchDone  func()
	dataWord   func(addr uint32, seq uint64)
}

func (o *quickOwners) FetchWords(addr uint32, n int)       { o.fetchWords(addr, n) }
func (o *quickOwners) FetchDone()                          { o.fetchDone() }
func (o *quickOwners) DataWord(addr, _ uint32, seq uint64) { o.dataWord(addr, seq) }

// TestTxRingFIFOAcrossGrowth keeps up to 20 elements in a ring that starts
// empty and doubles past 8 and 16, with its head at every offset: pops
// return the elements in push order, and every queued element is found by
// its ticket while popped tickets find nothing.
func TestTxRingFIFOAcrossGrowth(t *testing.T) {
	var q ring[int]
	pushed, popped := 0, 0
	for round := 0; round < 40 && pushed < 64; round++ {
		for i := 0; i < round%5+1 && pushed-popped < 20 && pushed < 64; i++ {
			q.reserve()
			*q.push() = pushed
			pushed++
		}
		for i := 0; i < round%3 && q.n > 0; i++ {
			if got := *q.front(); got != popped {
				t.Fatalf("round %d: front %d, want %d", round, got, popped)
			}
			q.pop()
			popped++
		}
		if q.n != pushed-popped || q.popped != uint64(popped) {
			t.Fatalf("round %d: ring holds %d (popped %d), want %d (%d)", round, q.n, q.popped, pushed-popped, popped)
		}
		for k := 0; k < pushed; k++ {
			e := q.ticket(uint64(k))
			if k < popped && e != nil {
				t.Fatalf("round %d: popped ticket %d still found", round, k)
			}
			if k >= popped && (e == nil || *e != k) {
				t.Fatalf("round %d: ticket %d not found", round, k)
			}
		}
		if q.ticket(uint64(pushed)) != nil {
			t.Fatalf("round %d: a ticket not yet issued was found", round)
		}
	}
	if len(q.buf) < 16 {
		t.Fatalf("ring never grew past %d slots", len(q.buf))
	}
}
