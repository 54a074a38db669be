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

func newSys(t *testing.T, cfg Config) (*System, *stats.Mem) {
	t.Helper()
	st := &stats.Mem{}
	s, err := New(cfg, testImage(t), st)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

type delivery struct {
	cycle uint64
	addr  uint32
	word  uint32
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
// parameter combinations used in the paper's figures.
func TestReadTimingTable(t *testing.T) {
	cases := []struct {
		name        string
		accessTime  int
		busWidth    int
		size        int
		wantCycles  []uint64 // cycles (relative to acceptance) words arrive
		wantPerWord int
	}{
		{"T1_W4_4B", 1, 4, 4, []uint64{1}, 1},
		{"T1_W8_8B", 1, 8, 8, []uint64{1, 1}, 1},
		{"T6_W4_16B", 6, 4, 16, []uint64{6, 7, 8, 9}, 1},
		{"T6_W8_16B", 6, 8, 16, []uint64{6, 6, 7, 7}, 1},
		{"T6_W8_32B", 6, 8, 32, []uint64{6, 6, 7, 7, 8, 8, 9, 9}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, _ := newSys(t, Config{AccessTime: c.accessTime, BusWidthBytes: c.busWidth, FPULatency: 4})
			var got []delivery
			s.Submit(&Request{
				Kind: stats.ReqDataLoad,
				Addr: program.DataBase,
				Size: c.size,
				OnWord: func(addr, w uint32, _ uint64) {
					got = append(got, delivery{cycle: s.Cycle(), addr: addr, word: w})
				},
			})
			for cyc := uint64(1); cyc <= 40; cyc++ {
				s.Tick(cyc)
			}
			if len(got) != len(c.wantCycles) {
				t.Fatalf("delivered %d words, want %d", len(got), len(c.wantCycles))
			}
			// Request is accepted at cycle 1 (first tick).
			for i, d := range got {
				if d.cycle != 1+c.wantCycles[i] {
					t.Errorf("word %d at cycle %d, want %d", i, d.cycle, 1+c.wantCycles[i])
				}
				wantAddr := program.DataBase + uint32(4*i)
				if d.addr != wantAddr {
					t.Errorf("word %d addr %#x, want %#x", i, d.addr, wantAddr)
				}
				if d.word != uint32(0x1000+i) {
					t.Errorf("word %d value %#x, want %#x", i, d.word, 0x1000+i)
				}
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
		s, _ := newSys(t, Config{AccessTime: c.accessTime, BusWidthBytes: c.busWidth, Pipelined: c.pipelined, FPULatency: 4})
		var firstWords []uint64
		for i := 0; i < 3; i++ {
			idx := i
			s.Submit(&Request{
				Kind: stats.ReqDataLoad,
				Addr: program.DataBase + uint32(idx*c.size),
				Size: c.size,
				OnWord: func(addr, _ uint32, _ uint64) {
					if int(addr-program.DataBase) == idx*c.size {
						firstWords = append(firstWords, s.Cycle())
					}
				},
			})
		}
		for cyc := uint64(1); cyc <= 100; cyc++ {
			s.Tick(cyc)
		}
		if len(firstWords) != 3 {
			t.Fatalf("%+v: got %d responses", c, len(firstWords))
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
	s, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 8, Pipelined: true, FPULatency: 4})
	type arrival struct {
		addr  uint32
		cycle uint64
	}
	var got []arrival
	for i := 0; i < 2; i++ {
		s.Submit(&Request{
			Kind: stats.ReqDataLoad,
			Addr: program.DataBase + uint32(16*i),
			Size: 16,
			OnWord: func(addr, _ uint32, _ uint64) {
				got = append(got, arrival{addr: addr, cycle: s.Cycle()})
			},
		})
	}
	for cyc := uint64(1); cyc <= 30; cyc++ {
		s.Tick(cyc)
	}
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
		if got[i].addr >= program.DataBase+16 {
			t.Errorf("request 1 word delivered before request 0 finished")
		}
	}
}

func TestStoreAppliesAndCompletes(t *testing.T) {
	s, st := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	var doneAt uint64
	s.Submit(&Request{
		Kind:       stats.ReqDataStore,
		Addr:       program.DataBase + 8,
		Size:       4,
		Store:      true,
		Data:       []uint32{0xDEAD},
		OnComplete: func(_ uint64) { doneAt = s.Cycle() },
	})
	for cyc := uint64(1); cyc <= 20; cyc++ {
		s.Tick(cyc)
	}
	if got := s.ReadWord(program.DataBase + 8); got != 0xDEAD {
		t.Errorf("stored word = %#x", got)
	}
	if doneAt != 7 { // accepted at 1, completes at 1+6
		t.Errorf("store completed at %d, want 7", doneAt)
	}
	if st.StoreWords != 1 {
		t.Errorf("StoreWords = %d", st.StoreWords)
	}
}

// TestUnwrittenMemoryReadsZero covers the paged RAM: an address no image
// segment or store has touched reads as zero until its first write, and
// addresses wrap at the 20-bit mask.
func TestUnwrittenMemoryReadsZero(t *testing.T) {
	s, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
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
	s, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	var got uint32
	s.Submit(&Request{
		Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4,
		OnWord: func(_, w uint32, _ uint64) { got = w },
	})
	s.Tick(1) // accepted here
	s.WriteWord(program.DataBase, 0xFFFF)
	for cyc := uint64(2); cyc <= 10; cyc++ {
		s.Tick(cyc)
	}
	if got != 0x1000 {
		t.Errorf("load observed %#x, want acceptance-time value 0x1000", got)
	}
}

func TestArbitrationPriorityInstrFirst(t *testing.T) {
	s, st := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, InstrPriority: true, FPULatency: 4})
	order := []stats.ReqKind{}
	mk := func(kind stats.ReqKind, addr uint32) *Request {
		return &Request{
			Kind: kind, Addr: addr, Size: 4,
			OnWord: func(_, _ uint32, _ uint64) {},
			OnComplete: func(_ uint64) {
				order = append(order, kind)
			},
		}
	}
	// Submit in inverse priority order; acceptance should re-sort them.
	s.Submit(mk(stats.ReqIPrefetch, program.DataBase))
	s.Submit(mk(stats.ReqDataLoad, program.DataBase+4))
	s.Submit(mk(stats.ReqIFetch, program.TextBase))
	for cyc := uint64(1); cyc <= 60; cyc++ {
		s.Tick(cyc)
	}
	want := []stats.ReqKind{stats.ReqIFetch, stats.ReqDataLoad, stats.ReqIPrefetch}
	if len(order) != len(want) {
		t.Fatalf("completions = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
	if st.Accepted[stats.ReqIFetch] != 1 || st.Accepted[stats.ReqDataLoad] != 1 {
		t.Error("acceptance counters wrong")
	}
}

func TestArbitrationPriorityDataFirst(t *testing.T) {
	s, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, InstrPriority: false, FPULatency: 4})
	var order []stats.ReqKind
	mk := func(kind stats.ReqKind, addr uint32) *Request {
		return &Request{
			Kind: kind, Addr: addr, Size: 4,
			OnWord:     func(_, _ uint32, _ uint64) {},
			OnComplete: func(_ uint64) { order = append(order, kind) },
		}
	}
	s.Submit(mk(stats.ReqIFetch, program.TextBase))
	s.Submit(mk(stats.ReqDataLoad, program.DataBase))
	for cyc := uint64(1); cyc <= 40; cyc++ {
		s.Tick(cyc)
	}
	if len(order) != 2 || order[0] != stats.ReqDataLoad {
		t.Fatalf("order = %v, want data load first", order)
	}
}

func TestCancelQueuedRequest(t *testing.T) {
	s, st := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	delivered := false
	// Occupy the memory with a load, then queue a prefetch and cancel it
	// before it can be accepted.
	s.Submit(&Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
	h := s.Submit(&Request{
		Kind: stats.ReqIPrefetch, Addr: program.TextBase, Size: 4,
		OnWord: func(_, _ uint32, _ uint64) { delivered = true },
	})
	s.Tick(1)
	if !h.Queued() {
		t.Fatal("prefetch should still be queued behind the busy memory")
	}
	if !h.Cancel() {
		t.Fatal("Cancel failed on queued request")
	}
	if h.Cancel() {
		t.Fatal("second Cancel succeeded")
	}
	for cyc := uint64(2); cyc <= 40; cyc++ {
		s.Tick(cyc)
	}
	if delivered {
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
	s, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4})
	h := s.Submit(&Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
	s.Tick(1)
	if h.Queued() || h.Cancel() {
		t.Error("accepted request reported queued / canceled")
	}
}

func TestFPUMultiplyProtocol(t *testing.T) {
	s, st := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	var result uint32
	var seq uint64
	var at uint64
	s.FPUSink = func(sq uint64, v uint32) { result, seq, at = v, sq, s.Cycle() }
	a, b := float32(2.5), float32(4.0)
	s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4,
		Data: []uint32{math.Float32bits(a)}})
	s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4,
		Data: []uint32{math.Float32bits(b)}, Seq: 77})
	for cyc := uint64(1); cyc <= 40; cyc++ {
		s.Tick(cyc)
	}
	if math.Float32frombits(result) != 10.0 {
		t.Errorf("FPU result = %v, want 10", math.Float32frombits(result))
	}
	if seq != 77 {
		t.Errorf("FPU seq = %d, want 77", seq)
	}
	if st.FPUOps != 1 {
		t.Errorf("FPUOps = %d", st.FPUOps)
	}
	// Trigger store accepted at cycle 2 (store A at 1), arrives at 2+1,
	// ready at 3+4=7, result request submitted at 7, accepted at 7,
	// bus transfer at 8.
	if at != 8 {
		t.Errorf("FPU result delivered at %d, want 8", at)
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
		s, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
		var result uint32
		s.FPUSink = func(_ uint64, v uint32) { result = v }
		s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4,
			Data: []uint32{math.Float32bits(3)}})
		s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: op.trigger, Size: 4,
			Data: []uint32{math.Float32bits(7)}})
		for cyc := uint64(1); cyc <= 40; cyc++ {
			s.Tick(cyc)
		}
		if got := math.Float32frombits(result); got != op.want {
			t.Errorf("trigger %#x: result = %v, want %v", op.trigger, got, op.want)
		}
	}
}

func TestFPUSerializesOperations(t *testing.T) {
	// Two back-to-back multiplies must finish FPULatency apart, not
	// together: the unit is not internally pipelined.
	s, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	var arrivals []uint64
	s.FPUSink = func(_ uint64, _ uint32) { arrivals = append(arrivals, s.Cycle()) }
	for i := 0; i < 2; i++ {
		s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4,
			Data: []uint32{math.Float32bits(1)}})
		s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4,
			Data: []uint32{math.Float32bits(1)}})
	}
	for cyc := uint64(1); cyc <= 60; cyc++ {
		s.Tick(cyc)
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[1]-arrivals[0] < 4 {
		t.Errorf("second result only %d cycles after first; FPU must serialize", arrivals[1]-arrivals[0])
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
	s, _ := newSys(t, Config{AccessTime: 6, BusWidthBytes: 4, FPULatency: 4, InstrPriority: true})
	gotResult := false
	s.FPUSink = func(_ uint64, _ uint32) { gotResult = true }
	s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUA, Size: 4,
		Data: []uint32{math.Float32bits(1)}})
	s.Submit(&Request{Kind: stats.ReqDataStore, Store: true, Addr: AddrFPUMul, Size: 4,
		Data: []uint32{math.Float32bits(1)}})
	var resultAt uint64
	for cyc := uint64(1); cyc <= 64; cyc++ {
		// Keep the memory permanently busy with queued loads from cycle
		// 8 on (after the operand stores have been accepted).
		if cyc >= 8 {
			s.Submit(&Request{Kind: stats.ReqDataLoad, Addr: program.DataBase, Size: 4})
		}
		s.Tick(cyc)
		if gotResult && resultAt == 0 {
			resultAt = cyc
		}
	}
	if !gotResult {
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
	s, _ := newSys(t, Config{AccessTime: 1, BusWidthBytes: 4, FPULatency: 4})
	bad := []*Request{
		{Kind: stats.ReqDataLoad, Addr: 2, Size: 4},                                  // unaligned
		{Kind: stats.ReqDataLoad, Addr: 0, Size: 0},                                  // empty
		{Kind: stats.ReqDataLoad, Addr: 0, Size: 6},                                  // not word multiple
		{Kind: stats.ReqDataStore, Addr: 0, Size: 8, Store: true, Data: []uint32{1}}, // short data
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

// TestQuickDeliveryInvariants drives a random request mix and checks the
// invariants every configuration must uphold: words arrive in address order
// per request, never earlier than acceptance+T, the input bus is never
// double-booked, and every non-canceled request completes.
func TestQuickDeliveryInvariants(t *testing.T) {
	f := func(seed int64, pipelined bool, t6 bool, wide bool) bool {
		cfg := Config{AccessTime: 1, BusWidthBytes: 4, Pipelined: pipelined, FPULatency: 4}
		if t6 {
			cfg.AccessTime = 6
		}
		if wide {
			cfg.BusWidthBytes = 8
		}
		st := &stats.Mem{}
		b := program.NewBuilder()
		b.Halt()
		b.Space(256)
		img, _ := b.Link()
		s, err := New(cfg, img, st)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		type tracker struct {
			lastAddr  int64
			lastCycle uint64
			complete  bool
			submitted uint64
			words     int
			expected  int
		}
		var trackers []*tracker
		busCycles := map[uint64]int{}
		submitted := 0
		for cyc := uint64(1); cyc <= 400; cyc++ {
			if submitted < 25 && rng.Intn(3) == 0 {
				size := 4 * (1 + rng.Intn(8))
				tr := &tracker{lastAddr: -1, submitted: cyc, expected: size / 4}
				trackers = append(trackers, tr)
				kind := []stats.ReqKind{stats.ReqDataLoad, stats.ReqIFetch, stats.ReqIPrefetch}[rng.Intn(3)]
				s.Submit(&Request{
					Kind: kind,
					Addr: program.DataBase + uint32(4*rng.Intn(64)),
					Size: size,
					OnWord: func(addr, _ uint32, _ uint64) {
						if int64(addr) <= tr.lastAddr {
							t.Errorf("out-of-order word delivery")
						}
						tr.lastAddr = int64(addr)
						tr.lastCycle = s.Cycle()
						tr.words++
						busCycles[s.Cycle()]++
					},
					OnComplete: func(_ uint64) { tr.complete = true },
				})
				submitted++
			}
			s.Tick(cyc)
		}
		wordsPerCycle := cfg.BusWidthBytes / 4
		for c, n := range busCycles {
			if n > wordsPerCycle {
				t.Errorf("cycle %d carried %d words on a %d-byte bus", c, n, cfg.BusWidthBytes)
				return false
			}
		}
		for _, tr := range trackers {
			if !tr.complete || tr.words != tr.expected {
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
