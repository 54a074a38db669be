package isa

import (
	"math/bits"
	"testing"
)

// The reference definitions below are the per-cycle opcode switches the
// pipeline used before timing classes existed, kept verbatim so the class
// table is checked against independent code rather than against itself.

// refOperandReads reports which register operand fields the opcode reads.
func refOperandReads(in Inst) (ra, rb bool) {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		return true, true
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI,
		OpLD, OpST, OpSETBR:
		return true, false
	case OpPBR:
		return in.Cond != CondAL, false
	}
	return false, false
}

// refReadsLDQ reports whether the instruction reads R7 as a source.
func refReadsLDQ(in Inst) bool {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		return in.Ra == QueueReg || in.Rb == QueueReg
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLD, OpST:
		return in.Ra == QueueReg
	case OpSETBR:
		return in.Ra == QueueReg
	case OpPBR:
		return in.Cond != CondAL && in.Ra == QueueReg
	}
	return false
}

// refWritesSDQ reports whether the instruction writes R7 as a destination.
func refWritesSDQ(in Inst) bool {
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI:
		return in.Rd == QueueReg
	}
	return false
}

// TestTimingClassExhaustive checks ClassOf against the reference switches
// for every opcode value (defined or not), R7 or another register in each
// of Rd, Ra and Rb, and every condition code (plus one undefined).
func TestTimingClassExhaustive(t *testing.T) {
	regs := []uint8{0, 3, QueueReg}
	checked := 0
	for op := 0; op < 256; op++ {
		for _, rd := range regs {
			for _, ra := range regs {
				for _, rb := range regs {
					for cond := Cond(0); cond <= condMax; cond++ {
						in := Inst{Op: Opcode(op), Rd: rd, Ra: ra, Rb: rb, Cond: cond}
						checkClass(t, in, ClassOf(in))
						checked++
					}
				}
			}
		}
	}
	if checked != 256*27*int(condMax+1) {
		t.Fatalf("checked %d combinations", checked)
	}
}

func checkClass(t *testing.T, in Inst, c Class) {
	t.Helper()
	readsA, readsB := refOperandReads(in)
	need := 0
	if readsA && in.Ra == QueueReg {
		need++
	}
	if readsB && in.Rb == QueueReg {
		need++
	}
	for _, f := range []struct {
		name      string
		got, want bool
	}{
		{"ReadsRa", c&ReadsRa != 0, readsA},
		{"ReadsRb", c&ReadsRb != 0, readsB},
		{"PopsRa", c&PopsRa != 0, readsA && in.Ra == QueueReg},
		{"PopsRb", c&PopsRb != 0, readsB && in.Rb == QueueReg},
		{"pops the LDQ", c.LDQPops() > 0, refReadsLDQ(in)},
		{"PushLAQ", c&PushLAQ != 0, in.Op == OpLD},
		{"PushSAQ", c&PushSAQ != 0, in.Op == OpST},
		{"PushSDQ", c&PushSDQ != 0, refWritesSDQ(in)},
	} {
		if f.got != f.want {
			t.Fatalf("%+v: %s = %v, want %v (class %#x)", in, f.name, f.got, f.want, c)
		}
	}
	if got := c.LDQPops(); got != need {
		t.Fatalf("%+v: LDQPops = %d, want %d", in, got, need)
	}
	if bits.OnesCount8(uint8(c&Pushes)) > 1 {
		t.Fatalf("%+v: class %#x pushes more than one queue", in, c)
	}
}

// TestPredecodeMatchesClassOf checks that Predecode resolves the class of
// what it decodes, for every encodable instruction shape.
func TestPredecodeMatchesClassOf(t *testing.T) {
	for op := range opNames {
		for _, r := range []uint8{0, QueueReg} {
			in := Inst{Op: op, Rd: r, Ra: r, Rb: r}
			if op == OpSETB || op == OpSETBR || op == OpPBR {
				in.Rd, in.Rb = 0, 0
			}
			if op == OpSETB {
				in.Ra = 0
			}
			for _, cond := range []Cond{CondAL, CondNE} {
				if op == OpPBR {
					in.Cond = cond
				}
				d := Predecode(Encode(in))
				if d.Inst != Decode(Encode(in)) || d.Class != ClassOf(d.Inst) {
					t.Errorf("Predecode(%v) = %+v", in, d)
				}
			}
		}
	}
}
