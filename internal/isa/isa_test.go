package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeBranchClass(t *testing.T) {
	if !OpPBR.IsBranch() {
		t.Error("OpPBR must be branch-class")
	}
	for _, op := range []Opcode{OpNOP, OpHALT, OpADD, OpADDI, OpLD, OpST, OpSETB, OpSETBR} {
		if op.IsBranch() {
			t.Errorf("%s must not be branch-class", op)
		}
	}
}

func TestEncodeDecodeRoundTripAll(t *testing.T) {
	cases := []Inst{
		{Op: OpNOP},
		{Op: OpHALT},
		{Op: OpADD, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpSUB, Rd: 7, Ra: 0, Rb: 7},
		{Op: OpAND, Rd: 4, Ra: 5, Rb: 6},
		{Op: OpOR, Rd: 0, Ra: 0, Rb: 0},
		{Op: OpXOR, Rd: 3, Ra: 3, Rb: 3},
		{Op: OpSLL, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpSRL, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpSRA, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpADDI, Rd: 2, Ra: 1, Imm: -1},
		{Op: OpADDI, Rd: 2, Ra: 1, Imm: 0x7FFF},
		{Op: OpADDI, Rd: 2, Ra: 1, Imm: -0x8000},
		{Op: OpANDI, Rd: 2, Ra: 1, Imm: 255},
		{Op: OpORI, Rd: 2, Ra: 1, Imm: 16},
		{Op: OpXORI, Rd: 2, Ra: 1, Imm: -16},
		{Op: OpSLLI, Rd: 2, Ra: 1, Imm: 31},
		{Op: OpSRLI, Rd: 2, Ra: 1, Imm: 1},
		{Op: OpSRAI, Rd: 2, Ra: 1, Imm: 2},
		{Op: OpLI, Rd: 6, Imm: -12345},
		{Op: OpLUI, Rd: 6, Imm: 0x7ABC},
		{Op: OpLD, Ra: 3, Imm: 40},
		{Op: OpST, Ra: 3, Imm: -4},
		{Op: OpSETB, Bn: 7, Imm: 0xFFFFF},
		{Op: OpSETB, Bn: 0, Imm: 0},
		{Op: OpSETBR, Bn: 3, Ra: 5},
		{Op: OpPBR, Cond: CondNE, Bn: 2, N: 7, Ra: 4},
		{Op: OpPBR, Cond: CondAL, Bn: 0, N: 0, Ra: 0},
		{Op: OpPBR, Cond: CondLE, Bn: 7, N: 3, Ra: 6},
	}
	for _, in := range cases {
		w := Encode(in)
		got, err := DecodeChecked(w)
		if err != nil {
			t.Fatalf("%v: decode error: %v", in, err)
		}
		if got != in {
			t.Errorf("round trip %v -> %#08x -> %v", in, w, got)
		}
	}
}

func TestEncodePanicsOnInvalid(t *testing.T) {
	bad := []Inst{
		{Op: Opcode(0x55)},
		{Op: OpADD, Rd: 8},
		{Op: OpADDI, Rd: 1, Imm: 0x8000},
		{Op: OpADDI, Rd: 1, Imm: -0x8001},
		{Op: OpSETB, Bn: 8},
		{Op: OpSETB, Bn: 0, Imm: 0x100000},
		{Op: OpSETB, Bn: 0, Imm: -1},
		{Op: OpPBR, Cond: Cond(12)},
		{Op: OpPBR, N: 8},
		{Op: OpPBR, Bn: 9},
	}
	for _, in := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(%+v) did not panic", in)
				}
			}()
			Encode(in)
		}()
	}
}

func TestDecodeCheckedRejectsUnknownOpcode(t *testing.T) {
	if _, err := DecodeChecked(0x5500_0000); err == nil {
		t.Fatal("unknown opcode decoded without error")
	}
}

func TestCondHolds(t *testing.T) {
	cases := []struct {
		c    Cond
		v    int32
		want bool
	}{
		{CondAL, 0, true}, {CondAL, -5, true},
		{CondEQ, 0, true}, {CondEQ, 1, false},
		{CondNE, 0, false}, {CondNE, -1, true},
		{CondLT, -1, true}, {CondLT, 0, false}, {CondLT, 1, false},
		{CondGE, 0, true}, {CondGE, -1, false}, {CondGE, 5, true},
		{CondGT, 1, true}, {CondGT, 0, false},
		{CondLE, 0, true}, {CondLE, 1, false}, {CondLE, -3, true},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.v); got != c.want {
			t.Errorf("%s.Holds(%d) = %v, want %v", c.c, c.v, got, c.want)
		}
	}
	if Cond(99).Holds(0) {
		t.Error("invalid condition must not hold")
	}
}

func TestQueueRegisterSemantics(t *testing.T) {
	cases := []struct {
		in        Inst
		readsLDQ  bool
		writesSDQ bool
	}{
		{Inst{Op: OpADD, Rd: 1, Ra: 7, Rb: 2}, true, false},
		{Inst{Op: OpADD, Rd: 1, Ra: 2, Rb: 7}, true, false},
		{Inst{Op: OpADD, Rd: 7, Ra: 1, Rb: 2}, false, true},
		{Inst{Op: OpADD, Rd: 7, Ra: 7, Rb: 7}, true, true},
		{Inst{Op: OpADDI, Rd: 7, Ra: 0, Imm: 0}, false, true},
		{Inst{Op: OpADDI, Rd: 0, Ra: 7, Imm: 0}, true, false},
		{Inst{Op: OpLI, Rd: 7, Imm: 1}, false, true},
		{Inst{Op: OpLD, Ra: 7, Imm: 0}, true, false},
		{Inst{Op: OpLD, Ra: 2, Imm: 0}, false, false},
		{Inst{Op: OpST, Ra: 7, Imm: 0}, true, false},
		{Inst{Op: OpPBR, Cond: CondNE, Ra: 7}, true, false},
		{Inst{Op: OpPBR, Cond: CondAL, Ra: 7}, false, false},
		{Inst{Op: OpSETBR, Bn: 1, Ra: 7}, true, false},
		{Inst{Op: OpNOP}, false, false},
	}
	for _, c := range cases {
		cls := ClassOf(c.in)
		if got := cls.LDQPops() > 0; got != c.readsLDQ {
			t.Errorf("%v pops the LDQ = %v, want %v", c.in, got, c.readsLDQ)
		}
		if got := cls&PushSDQ != 0; got != c.writesSDQ {
			t.Errorf("%v pushes the SDQ = %v, want %v", c.in, got, c.writesSDQ)
		}
	}
	if got := ClassOf(Inst{Op: OpADD, Rd: 1, Ra: 7, Rb: 7}).LDQPops(); got != 2 {
		t.Errorf("ADD r1, r7, r7 pops %d LDQ values, want 2", got)
	}
}

// TestHasDest checks that only instructions with a destination register
// push the SDQ when that register is R7.
func TestHasDest(t *testing.T) {
	if ClassOf(Inst{Op: OpADD, Rd: 7})&PushSDQ == 0 {
		t.Error("ADD has a destination: Rd = R7 must push the SDQ")
	}
	for _, in := range []Inst{{Op: OpLD}, {Op: OpST}, {Op: OpPBR}, {Op: OpNOP}, {Op: OpSETB}} {
		in.Rd = 7
		if ClassOf(in)&PushSDQ != 0 {
			t.Errorf("%s has no destination and must not push the SDQ", in.Op)
		}
	}
}

func TestWordBranchScan(t *testing.T) {
	pbr := Encode(Inst{Op: OpPBR, Cond: CondNE, Bn: 1, N: 5, Ra: 2})
	if !WordIsBranch(pbr) {
		t.Fatal("PBR word not detected as branch")
	}
	if n := WordDelaySlots(pbr); n != 5 {
		t.Fatalf("WordDelaySlots = %d, want 5", n)
	}
	add := Encode(Inst{Op: OpADD, Rd: 1, Ra: 2, Rb: 3})
	if WordIsBranch(add) {
		t.Fatal("ADD word detected as branch")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpADD, Rd: 1, Ra: 2, Rb: 3}, "ADD r1, r2, r3"},
		{Inst{Op: OpADDI, Rd: 1, Ra: 2, Imm: -4}, "ADDI r1, r2, -4"},
		{Inst{Op: OpLI, Rd: 5, Imm: 9}, "LI r5, 9"},
		{Inst{Op: OpLD, Ra: 2, Imm: 8}, "LD 8(r2)"},
		{Inst{Op: OpST, Ra: 3, Imm: -8}, "ST -8(r3)"},
		{Inst{Op: OpPBR, Cond: CondNE, Ra: 1, Bn: 2, N: 4}, "PBR NE, r1, b2, 4"},
		{Inst{Op: OpNOP}, "NOP"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if s := Opcode(0x66).String(); !strings.Contains(s, "66") {
		t.Errorf("unknown opcode String = %q", s)
	}
}

// TestQuickRoundTrip generates random valid instructions and checks that
// Encode/Decode is the identity on them.
func TestQuickRoundTrip(t *testing.T) {
	ops := []Opcode{
		OpNOP, OpHALT, OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI,
		OpLD, OpST, OpSETB, OpSETBR, OpPBR,
	}
	f := func(opIdx uint8, rd, ra, rb uint8, imm int16, addr uint32, cond, bn, n uint8) bool {
		in := Inst{Op: ops[int(opIdx)%len(ops)]}
		switch in.Op {
		case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
			in.Rd, in.Ra, in.Rb = rd%8, ra%8, rb%8
		case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI, OpLD, OpST:
			in.Rd, in.Ra, in.Imm = rd%8, ra%8, int32(imm)
		case OpSETB:
			in.Bn, in.Imm = bn%8, int32(addr%0x100000)
		case OpSETBR:
			in.Bn, in.Ra = bn%8, ra%8
		case OpPBR:
			in.Cond, in.Bn, in.N, in.Ra = Cond(cond%uint8(condMax)), bn%8, n%8, ra%8
		}
		got, err := DecodeChecked(Encode(in))
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
