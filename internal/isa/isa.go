// Package isa defines the PIPE instruction set architecture used throughout
// the simulator: opcodes, register names, the fixed 32-bit instruction
// encoding used for all results presented in the paper, and the 16/32-bit
// two-parcel "native" PIPE encoding kept as an extension (paper simulation
// parameter 1).
//
// The ISA is a register-to-register load/store architecture modeled on the
// PIPE processor (Farrens & Pleszkun, ISCA 1989):
//
//   - Eight 32-bit foreground data registers R0..R7. R7 is the architectural
//     queue register: reading R7 pops the head of the Load Data Queue (LDQ),
//     writing R7 pushes onto the tail of the Store Data Queue (SDQ).
//   - Eight branch registers B0..B7 holding branch target addresses, loaded
//     by SETB/SETBR ahead of the branch itself.
//   - Memory access only through LD (enqueue a load address on the LAQ) and
//     ST (enqueue a store address on the SAQ); store data arrives via R7.
//   - A generalized delayed branch, PBR ("prepare to branch"), carrying a
//     3-bit count of delay slots (0..7) that execute unconditionally.
//
// A single opcode bit (the branch-class bit, bit 7 of the opcode field)
// identifies PBR instructions, so fetch hardware can scan raw instruction
// words in the instruction queue for upcoming branches, exactly as the PIPE
// cache control logic does in the paper.
package isa

import "fmt"

// WordBytes is the size in bytes of one instruction in the fixed 32-bit
// format. All results presented in the paper use this format.
const WordBytes = 4

// ParcelBytes is the size of one parcel (16 bits) in the native PIPE
// encoding, where instructions are one or two parcels long.
const ParcelBytes = 2

// NumDataRegs is the number of visible data registers (R0..R7).
const NumDataRegs = 8

// NumBranchRegs is the number of branch registers (B0..B7).
const NumBranchRegs = 8

// QueueReg is the register number of the architectural queue register R7.
// Reads pop the LDQ; writes push the SDQ.
const QueueReg = 7

// MaxDelaySlots is the largest delay-slot count a PBR instruction can carry
// (3-bit field).
const MaxDelaySlots = 7

// Opcode identifies an instruction's operation. Opcodes with BranchClassBit
// set are branch-class (PBR) instructions.
type Opcode uint8

// BranchClassBit is the single opcode bit that identifies a branch-class
// instruction. The PIPE fetch logic scans instruction-queue words for this
// bit to find upcoming PBRs.
const BranchClassBit Opcode = 0x80

// Instruction opcodes.
const (
	OpNOP  Opcode = 0x00 // no operation
	OpHALT Opcode = 0x01 // stop simulation; the program is complete

	// Three-operand register instructions (R-type): rd := ra OP rb.
	OpADD Opcode = 0x02
	OpSUB Opcode = 0x03
	OpAND Opcode = 0x04
	OpOR  Opcode = 0x05
	OpXOR Opcode = 0x06
	OpSLL Opcode = 0x07 // shift left logical by rb&31
	OpSRL Opcode = 0x08 // shift right logical by rb&31
	OpSRA Opcode = 0x09 // shift right arithmetic by rb&31

	// Immediate instructions (I-type): rd := ra OP signExtend(imm16).
	OpADDI Opcode = 0x10
	OpANDI Opcode = 0x11
	OpORI  Opcode = 0x12
	OpXORI Opcode = 0x13
	OpSLLI Opcode = 0x14 // shift left logical by imm&31
	OpSRLI Opcode = 0x15 // shift right logical by imm&31
	OpSRAI Opcode = 0x16 // shift right arithmetic by imm&31
	OpLI   Opcode = 0x17 // rd := signExtend(imm16)
	OpLUI  Opcode = 0x18 // rd := imm16 << 16

	// Memory instructions. LD enqueues (ra+imm16) on the Load Address
	// Queue; the returned word is later read through R7. ST enqueues
	// (ra+imm16) on the Store Address Queue; the datum is the next value
	// written to R7 (i.e. pushed on the Store Data Queue).
	OpLD Opcode = 0x20
	OpST Opcode = 0x21

	// Branch-register setup. SETB loads branch register bn with a 20-bit
	// absolute byte address; SETBR copies data register ra into bn.
	OpSETB  Opcode = 0x30
	OpSETBR Opcode = 0x31

	// OpBANK exchanges the foreground and background register sets
	// (R0..R6; the queue register R7 is shared hardware and is not
	// banked). The PIPE architecture provides the second bank "to
	// improve the speed of subroutine calling".
	OpBANK Opcode = 0x33

	// OpPBR is the prepare-to-branch instruction: if condition Cond holds
	// for register ra, control transfers to the address in branch register
	// bn after N more instructions (the delay slots) have executed.
	OpPBR Opcode = 0x80
)

// IsBranch reports whether the opcode is branch-class (a PBR).
func (op Opcode) IsBranch() bool { return op&BranchClassBit != 0 }

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool {
	_, ok := opNames[op]
	return ok
}

var opNames = map[Opcode]string{
	OpNOP: "NOP", OpHALT: "HALT",
	OpADD: "ADD", OpSUB: "SUB", OpAND: "AND", OpOR: "OR", OpXOR: "XOR",
	OpSLL: "SLL", OpSRL: "SRL", OpSRA: "SRA",
	OpADDI: "ADDI", OpANDI: "ANDI", OpORI: "ORI", OpXORI: "XORI",
	OpSLLI: "SLLI", OpSRLI: "SRLI", OpSRAI: "SRAI", OpLI: "LI", OpLUI: "LUI",
	OpLD: "LD", OpST: "ST",
	OpSETB: "SETB", OpSETBR: "SETBR", OpBANK: "BANK",
	OpPBR: "PBR",
}

// String returns the assembler mnemonic for the opcode.
func (op Opcode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("OP(%#02x)", uint8(op))
}

// Cond is a PBR branch condition, evaluated against a single data register.
type Cond uint8

// Branch conditions. All compare the tested register against zero.
const (
	CondAL Cond = iota // always taken; the register is ignored
	CondEQ             // taken if ra == 0
	CondNE             // taken if ra != 0
	CondLT             // taken if ra < 0 (signed)
	CondGE             // taken if ra >= 0 (signed)
	CondGT             // taken if ra > 0 (signed)
	CondLE             // taken if ra <= 0 (signed)
	condMax
)

var condNames = [...]string{"AL", "EQ", "NE", "LT", "GE", "GT", "LE"}

// Valid reports whether c is a defined condition.
func (c Cond) Valid() bool { return c < condMax }

// String returns the assembler name of the condition.
func (c Cond) String() string {
	if c.Valid() {
		return condNames[c]
	}
	return fmt.Sprintf("COND(%d)", uint8(c))
}

// Holds evaluates the condition against a register value.
func (c Cond) Holds(v int32) bool {
	switch c {
	case CondAL:
		return true
	case CondEQ:
		return v == 0
	case CondNE:
		return v != 0
	case CondLT:
		return v < 0
	case CondGE:
		return v >= 0
	case CondGT:
		return v > 0
	case CondLE:
		return v <= 0
	}
	return false
}

// Inst is a decoded instruction. Fields not used by the opcode's format are
// zero.
type Inst struct {
	Op   Opcode
	Rd   uint8 // destination data register (R-type, I-type)
	Ra   uint8 // first source data register / tested register for PBR
	Rb   uint8 // second source data register (R-type)
	Imm  int32 // sign-extended 16-bit immediate, or 20-bit address for SETB
	Cond Cond  // PBR condition
	Bn   uint8 // branch register (PBR, SETB, SETBR)
	N    uint8 // PBR delay-slot count (0..7)
}

// Format classes of the fixed 32-bit encoding.
//
//	R-type:  op[31:24] rd[23:20] ra[19:16] rb[15:12] 0[11:0]
//	I-type:  op[31:24] rd[23:20] ra[19:16] imm16[15:0]
//	SETB:    op[31:24] bn[23:20] addr20[19:0]
//	SETBR:   op[31:24] bn[23:20] ra[19:16] 0[15:0]
//	PBR:     op[31:24] cond[23:20] bn[19:16] n[15:12] ra[11:8] 0[7:0]
//
// Reads and writes of the queue register R7 follow the architectural queue
// semantics regardless of format.

// Encode packs the instruction into a 32-bit word in the fixed format.
// It panics if a field is out of range; use Validate first for untrusted
// input.
func Encode(in Inst) uint32 {
	if err := Validate(in); err != nil {
		panic("isa.Encode: " + err.Error())
	}
	w := uint32(in.Op) << 24
	switch in.Op {
	case OpNOP, OpHALT, OpBANK:
		// no operands
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(in.Rb)<<12
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI, OpLD, OpST:
		w |= uint32(in.Rd)<<20 | uint32(in.Ra)<<16 | uint32(uint16(in.Imm))
	case OpSETB:
		w |= uint32(in.Bn)<<20 | (uint32(in.Imm) & 0xFFFFF)
	case OpSETBR:
		w |= uint32(in.Bn)<<20 | uint32(in.Ra)<<16
	case OpPBR:
		w |= uint32(in.Cond)<<20 | uint32(in.Bn)<<16 | uint32(in.N)<<12 | uint32(in.Ra)<<8
	}
	return w
}

// Decode unpacks a 32-bit word into an instruction. Unknown opcodes yield an
// Inst whose Op does not Validate; callers that execute instructions should
// check Validate or use DecodeChecked.
func Decode(w uint32) Inst {
	op := Opcode(w >> 24)
	in := Inst{Op: op}
	switch op {
	case OpNOP, OpHALT, OpBANK:
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		in.Rd = uint8(w >> 20 & 0xF)
		in.Ra = uint8(w >> 16 & 0xF)
		in.Rb = uint8(w >> 12 & 0xF)
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI, OpLD, OpST:
		in.Rd = uint8(w >> 20 & 0xF)
		in.Ra = uint8(w >> 16 & 0xF)
		in.Imm = int32(int16(w & 0xFFFF))
	case OpSETB:
		in.Bn = uint8(w >> 20 & 0xF)
		in.Imm = int32(w & 0xFFFFF)
	case OpSETBR:
		in.Bn = uint8(w >> 20 & 0xF)
		in.Ra = uint8(w >> 16 & 0xF)
	case OpPBR:
		in.Cond = Cond(w >> 20 & 0xF)
		in.Bn = uint8(w >> 16 & 0xF)
		in.N = uint8(w >> 12 & 0xF)
		in.Ra = uint8(w >> 8 & 0xF)
	}
	return in
}

// DecodeChecked decodes w and reports an error for undefined opcodes or
// out-of-range fields.
func DecodeChecked(w uint32) (Inst, error) {
	in := Decode(w)
	if err := Validate(in); err != nil {
		return Inst{}, fmt.Errorf("isa: word %#08x: %w", w, err)
	}
	return in, nil
}

// Validate reports whether the instruction's fields are in range for its
// opcode.
func Validate(in Inst) error {
	if !in.Op.Valid() {
		return fmt.Errorf("invalid opcode %#02x", uint8(in.Op))
	}
	checkReg := func(name string, r uint8) error {
		if r >= NumDataRegs {
			return fmt.Errorf("%s: register R%d out of range (0..%d)", name, r, NumDataRegs-1)
		}
		return nil
	}
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		for _, c := range []struct {
			n string
			r uint8
		}{{"rd", in.Rd}, {"ra", in.Ra}, {"rb", in.Rb}} {
			if err := checkReg(c.n, c.r); err != nil {
				return err
			}
		}
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI, OpLD, OpST:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
		if in.Imm < -0x8000 || in.Imm > 0x7FFF {
			return fmt.Errorf("immediate %d out of 16-bit range", in.Imm)
		}
	case OpSETB:
		if in.Bn >= NumBranchRegs {
			return fmt.Errorf("branch register B%d out of range", in.Bn)
		}
		if in.Imm < 0 || in.Imm > 0xFFFFF {
			return fmt.Errorf("SETB address %#x out of 20-bit range", in.Imm)
		}
	case OpSETBR:
		if in.Bn >= NumBranchRegs {
			return fmt.Errorf("branch register B%d out of range", in.Bn)
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
	case OpPBR:
		if !in.Cond.Valid() {
			return fmt.Errorf("invalid condition %d", uint8(in.Cond))
		}
		if in.Bn >= NumBranchRegs {
			return fmt.Errorf("branch register B%d out of range", in.Bn)
		}
		if in.N > MaxDelaySlots {
			return fmt.Errorf("delay-slot count %d out of range (0..%d)", in.N, MaxDelaySlots)
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
	}
	return nil
}

// Class is an instruction's timing class: which register operands issue
// reads, how many of them pop the Load Data Queue (reads of R7), and which
// architectural queue the EX1 stage pushes. It is the one definition of
// what an opcode does to the queues; the pipeline's issue and execute
// stages and the skip-ahead stall classifier all test its bits instead of
// switching on opcodes every cycle. Resolve it with ClassOf, or with
// Predecode alongside the decode.
type Class uint8

// Timing-class bits.
const (
	ReadsRa Class = 1 << iota // issue reads operand Ra
	ReadsRb                   // issue reads operand Rb
	PopsRa                    // Ra is R7 and read: issue pops the LDQ
	PopsRb                    // Rb is R7 and read: issue pops the LDQ
	PushLAQ                   // EX1 pushes the Load Address Queue (LD)
	PushSAQ                   // EX1 pushes the Store Address Queue (ST)
	PushSDQ                   // EX1 pushes the Store Data Queue (Rd is R7)

	// Pushes is every push bit; an instruction has at most one.
	Pushes = PushLAQ | PushSAQ | PushSDQ
)

// ClassOf resolves the timing class of an instruction. Undefined opcodes
// have the zero class: they read nothing and push nothing (executing one
// is an error the CPU reports at issue).
func ClassOf(in Inst) Class {
	var c Class
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		c = ReadsRa | ReadsRb
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI:
		c = ReadsRa
	case OpLD:
		c = ReadsRa | PushLAQ
	case OpST:
		c = ReadsRa | PushSAQ
	case OpSETBR:
		c = ReadsRa
	case OpPBR:
		if in.Cond != CondAL {
			c = ReadsRa // an unconditional branch ignores its register
		}
	}
	switch in.Op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA,
		OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI, OpLI, OpLUI:
		if in.Rd == QueueReg {
			c |= PushSDQ
		}
	}
	if c&ReadsRa != 0 && in.Ra == QueueReg {
		c |= PopsRa
	}
	if c&ReadsRb != 0 && in.Rb == QueueReg {
		c |= PopsRb
	}
	return c
}

// LDQPops returns how many values issue pops from the Load Data Queue
// (0, 1 or 2): the instruction cannot issue until that many have arrived.
func (c Class) LDQPops() int { return int(c>>2&1) + int(c>>3&1) }

// Decoded is an instruction together with its timing class: the form the
// pipeline latches carry, and the element of a program image's shared
// predecoded text (program.Image.Decoded).
type Decoded struct {
	Inst
	Class Class
}

// Predecode decodes w and resolves its timing class.
func Predecode(w uint32) Decoded {
	in := Decode(w)
	return Decoded{Inst: in, Class: ClassOf(in)}
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case OpNOP, OpHALT, OpBANK:
		return in.Op.String()
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpSLL, OpSRL, OpSRA:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Ra, in.Rb)
	case OpLI, OpLUI:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Rd, in.Imm)
	case OpADDI, OpANDI, OpORI, OpXORI, OpSLLI, OpSRLI, OpSRAI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Ra, in.Imm)
	case OpLD, OpST:
		return fmt.Sprintf("%s %d(r%d)", in.Op, in.Imm, in.Ra)
	case OpSETB:
		return fmt.Sprintf("SETB b%d, %#x", in.Bn, in.Imm)
	case OpSETBR:
		return fmt.Sprintf("SETBR b%d, r%d", in.Bn, in.Ra)
	case OpPBR:
		return fmt.Sprintf("PBR %s, r%d, b%d, %d", in.Cond, in.Ra, in.Bn, in.N)
	}
	return fmt.Sprintf("%s ???", in.Op)
}

// WordIsBranch reports whether a raw instruction word encodes a branch-class
// instruction, using only the branch-class opcode bit. This is the check the
// PIPE instruction-fetch control logic performs when scanning the IQ.
func WordIsBranch(w uint32) bool { return Opcode(w >> 24).IsBranch() }

// WordDelaySlots extracts the delay-slot count from a raw branch-class word.
// The result is meaningful only when WordIsBranch(w) is true.
func WordDelaySlots(w uint32) uint8 { return uint8(w >> 12 & 0xF) }
