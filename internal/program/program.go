// Package program defines the linked program image the simulator executes:
// a text segment of fixed 32-bit instruction words, a preloaded data
// segment, an entry point, and a symbol table. It also provides Builder, the
// low-level code generator shared by the assembler (internal/asm) and the
// Livermore-loop workload generator (internal/kernels).
package program

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"pipesim/internal/isa"
)

// Memory layout. The PIPE address space in this model is a 20-bit byte
// address space (1 MiB): text at the bottom, data in the middle, and the
// memory-mapped floating point unit at the top (see internal/mem).
const (
	TextBase uint32 = 0x00000 // base byte address of the text segment
	DataBase uint32 = 0x40000 // base byte address of the data segment
	FPUBase  uint32 = 0x7F000 // base byte address of the FPU registers
	AddrMask uint32 = 0xFFFFF // 20-bit address space
)

// Image is a linked, executable program.
type Image struct {
	// Text holds the instruction words in program order, always in the
	// fixed 32-bit encoding (decode with isa.Decode). For fixed-format
	// images the instruction at byte address TextBase+4*i is Text[i];
	// native images place instruction i at its parcel address instead
	// (see InstAt).
	Text []uint32
	// Data holds the preloaded data segment starting at DataBase, as
	// 32-bit words; the word at byte address DataBase+4*i is Data[i].
	Data []uint32
	// Entry is the byte address of the first instruction.
	Entry uint32
	// Symbols maps label names to byte addresses.
	Symbols map[string]uint32

	// Native marks an image laid out in the 16/32-bit parcel format
	// (paper simulation parameter 1); see ToNative.
	Native      bool
	nativeAddrs []uint32 // instruction start addresses (ascending)
	nativeLens  []uint8  // instruction byte lengths (2 or 4)
	nativeRAM   []uint32 // packed parcels as word-addressed memory

	// Lazily built derived state. Images are immutable once linked, so
	// both are computed at most once and shared by every simulation
	// running the image, including concurrent ones.
	decodeOnce sync.Once
	decoded    []isa.Decoded
	fpOnce     sync.Once
	fp         [sha256.Size]byte
}

// TextEnd returns the byte address one past the last instruction.
func (im *Image) TextEnd() uint32 { return TextBase + uint32(len(im.Text))*isa.WordBytes }

// InstWord returns the instruction word at byte address addr, or false if
// addr is outside the text segment or unaligned.
func (im *Image) InstWord(addr uint32) (uint32, bool) {
	if addr%isa.WordBytes != 0 || addr < TextBase || addr >= im.TextEnd() {
		return 0, false
	}
	return im.Text[(addr-TextBase)/isa.WordBytes], true
}

// Decoded returns the text segment predecoded into isa.Decoded form, each
// instruction with its timing class: the instruction at byte address
// TextBase+4*i is Decoded()[i]. The table is built once per image and
// shared read-only across all simulations of it, so neither the per-fetch
// decode nor the opcode-to-queue classification is on the simulator's hot
// loop. Only meaningful for fixed-format images; native images keep
// decoding from the queued instruction word (their text indices are not
// parcel addresses).
func (im *Image) Decoded() []isa.Decoded {
	im.decodeOnce.Do(func() {
		tbl := make([]isa.Decoded, len(im.Text))
		for i, w := range im.Text {
			tbl[i] = isa.Predecode(w)
		}
		im.decoded = tbl
	})
	return im.decoded
}

// Fingerprint returns a content hash identifying everything about the image
// that can influence a simulation: the text and data segments, the entry
// point and the layout format. Two images with equal fingerprints produce
// identical runs under identical configurations (the simulator is
// deterministic), which is what makes results memoizable. Symbols are
// deliberately excluded: they name addresses but never change execution.
func (im *Image) Fingerprint() [sha256.Size]byte {
	im.fpOnce.Do(func() {
		h := sha256.New()
		// Each segment is hashed as its length (u64) then its words (u32),
		// all little-endian, in one Write.
		buf := make([]byte, 0, 8+4*max(len(im.Text), len(im.Data)))
		writeSegment := func(ws []uint32) {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(ws)))
			for _, w := range ws {
				buf = binary.LittleEndian.AppendUint32(buf, w)
			}
			h.Write(buf)
		}
		writeSegment(im.Text)
		writeSegment(im.Data)
		var native uint32
		if im.Native {
			native = 1
		}
		buf = binary.LittleEndian.AppendUint32(buf[:0], im.Entry)
		h.Write(binary.LittleEndian.AppendUint32(buf, native))
		h.Sum(im.fp[:0])
	})
	return im.fp
}

// Lookup returns the address of a symbol.
func (im *Image) Lookup(name string) (uint32, bool) {
	a, ok := im.Symbols[name]
	return a, ok
}

// Disassemble renders the text segment with addresses and symbols, for
// debugging and the llgen/pipeasm tools.
func (im *Image) Disassemble() string {
	byAddr := make(map[uint32][]string)
	for name, a := range im.Symbols {
		byAddr[a] = append(byAddr[a], name)
	}
	for _, names := range byAddr {
		sort.Strings(names)
	}
	var out []byte
	for i, w := range im.Text {
		addr := TextBase + uint32(i)*isa.WordBytes
		for _, name := range byAddr[addr] {
			out = append(out, fmt.Sprintf("%s:\n", name)...)
		}
		out = append(out, fmt.Sprintf("  %05x:  %08x  %s\n", addr, w, isa.Decode(w))...)
	}
	return string(out)
}

// Builder incrementally assembles an Image. Instructions are appended with
// Emit and friends; labels may be referenced before they are defined (SETB
// and LA record fixups resolved at Link time). Data words are appended to
// the data segment with Word, Float and Space.
//
// The zero Builder is not ready; construct with NewBuilder.
type Builder struct {
	text    []uint32
	data    []uint32
	symbols map[string]uint32
	fixups  []fixup
	errs    []error
}

type fixupKind int

const (
	fixSETB fixupKind = iota // patch 20-bit address field of a SETB word
	fixLUI                   // patch the LUI half of an LA pair
	fixORI                   // patch the ORI half of an LA pair
)

type fixup struct {
	textIndex int
	label     string
	offset    int32
	kind      fixupKind
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{symbols: make(map[string]uint32)}
}

// PC returns the byte address of the next instruction to be emitted.
func (b *Builder) PC() uint32 { return TextBase + uint32(len(b.text))*isa.WordBytes }

// DataPC returns the byte address of the next data word to be emitted.
func (b *Builder) DataPC() uint32 { return DataBase + uint32(len(b.data))*isa.WordBytes }

// errf records a deferred error reported by Link.
func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Label defines name at the current text position.
func (b *Builder) Label(name string) {
	b.defineSymbol(name, b.PC())
}

// DataLabel defines name at the current data position.
func (b *Builder) DataLabel(name string) {
	b.defineSymbol(name, b.DataPC())
}

// DefineSymbol binds name to an absolute address (used by the assembler's
// predefined FPU symbols).
func (b *Builder) DefineSymbol(name string, addr uint32) {
	b.defineSymbol(name, addr)
}

func (b *Builder) defineSymbol(name string, addr uint32) {
	if name == "" {
		b.errf("empty label name")
		return
	}
	if _, dup := b.symbols[name]; dup {
		b.errf("duplicate label %q", name)
		return
	}
	b.symbols[name] = addr
}

// Emit appends one instruction. Invalid instructions are recorded as errors
// and reported by Link.
func (b *Builder) Emit(in isa.Inst) {
	if err := isa.Validate(in); err != nil {
		b.errf("at %#05x: %v: %v", b.PC(), in, err)
		b.text = append(b.text, isa.Encode(isa.Inst{Op: isa.OpNOP}))
		return
	}
	b.text = append(b.text, isa.Encode(in))
}

// Convenience emitters used heavily by the kernel generator.

// Nop emits a NOP.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.OpNOP}) }

// Halt emits a HALT.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.OpHALT}) }

// R3 emits a three-register instruction rd := ra op rb.
func (b *Builder) R3(op isa.Opcode, rd, ra, rb uint8) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// RI emits an immediate instruction rd := ra op imm.
func (b *Builder) RI(op isa.Opcode, rd, ra uint8, imm int32) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// LI emits rd := imm (16-bit signed).
func (b *Builder) LI(rd uint8, imm int32) { b.Emit(isa.Inst{Op: isa.OpLI, Rd: rd, Imm: imm}) }

// Mov emits rd := ra (as ADDI rd, ra, 0).
func (b *Builder) Mov(rd, ra uint8) { b.RI(isa.OpADDI, rd, ra, 0) }

// LD emits a load from imm(ra): the address is pushed on the LAQ and the
// datum later read through R7.
func (b *Builder) LD(ra uint8, imm int32) { b.Emit(isa.Inst{Op: isa.OpLD, Ra: ra, Imm: imm}) }

// ST emits a store to imm(ra): the address is pushed on the SAQ; the datum
// is the next value written to R7.
func (b *Builder) ST(ra uint8, imm int32) { b.Emit(isa.Inst{Op: isa.OpST, Ra: ra, Imm: imm}) }

// SetB emits SETB bn, label(+offset). The label may be defined later.
func (b *Builder) SetB(bn uint8, label string, offset int32) {
	b.fixups = append(b.fixups, fixup{textIndex: len(b.text), label: label, offset: offset, kind: fixSETB})
	b.Emit(isa.Inst{Op: isa.OpSETB, Bn: bn, Imm: 0})
}

// SetBAddr emits SETB bn with an absolute address.
func (b *Builder) SetBAddr(bn uint8, addr uint32) {
	b.Emit(isa.Inst{Op: isa.OpSETB, Bn: bn, Imm: int32(addr & AddrMask)})
}

// PBR emits a prepare-to-branch with n delay slots, testing cond on ra,
// targeting branch register bn.
func (b *Builder) PBR(cond isa.Cond, ra, bn, n uint8) {
	b.Emit(isa.Inst{Op: isa.OpPBR, Cond: cond, Ra: ra, Bn: bn, N: n})
}

// LA emits a two-instruction sequence loading the 20-bit address of
// label(+offset) into rd (LUI+ORI). The label may be defined later.
func (b *Builder) LA(rd uint8, label string, offset int32) {
	b.fixups = append(b.fixups, fixup{textIndex: len(b.text), label: label, offset: offset, kind: fixLUI})
	b.Emit(isa.Inst{Op: isa.OpLUI, Rd: rd, Imm: 0})
	b.fixups = append(b.fixups, fixup{textIndex: len(b.text), label: label, offset: offset, kind: fixORI})
	b.Emit(isa.Inst{Op: isa.OpORI, Rd: rd, Ra: rd, Imm: 0})
}

// LAAddr emits the same LUI+ORI pair for an absolute address. The ORI
// immediate carries the raw low 16 bits (logical immediates zero-extend at
// execution), encoded in the int16 view the instruction format stores.
func (b *Builder) LAAddr(rd uint8, addr uint32) {
	addr &= AddrMask
	b.RI(isa.OpLUI, rd, 0, int32(addr>>16))
	b.RI(isa.OpORI, rd, rd, int32(int16(addr&0xFFFF)))
}

// Word appends 32-bit words to the data segment.
func (b *Builder) Word(ws ...uint32) { b.data = append(b.data, ws...) }

// Float appends IEEE-754 single-precision values to the data segment.
func (b *Builder) Float(fs ...float32) {
	for _, f := range fs {
		b.data = append(b.data, math.Float32bits(f))
	}
}

// Space appends n zero words to the data segment.
func (b *Builder) Space(n int) {
	if n < 0 {
		b.errf("negative .space %d", n)
		return
	}
	b.data = append(b.data, make([]uint32, n)...)
}

// TextLen returns the number of instructions emitted so far.
func (b *Builder) TextLen() int { return len(b.text) }

// Link resolves fixups and returns the finished image. The entry point is
// the first instruction.
func (b *Builder) Link() (*Image, error) {
	for _, f := range b.fixups {
		addr, ok := b.symbols[f.label]
		if !ok {
			b.errf("undefined label %q", f.label)
			continue
		}
		target := (addr + uint32(f.offset)) & AddrMask
		w := b.text[f.textIndex]
		switch f.kind {
		case fixSETB:
			w = w&^uint32(0xFFFFF) | target
		case fixLUI:
			w = w&^uint32(0xFFFF) | target>>16
		case fixORI:
			w = w&^uint32(0xFFFF) | target&0xFFFF
		}
		b.text[f.textIndex] = w
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("program: %d error(s), first: %w", len(b.errs), b.errs[0])
	}
	if len(b.text) == 0 {
		return nil, fmt.Errorf("program: empty text segment")
	}
	syms := make(map[string]uint32, len(b.symbols))
	for k, v := range b.symbols {
		syms[k] = v
	}
	return &Image{
		Text:    append([]uint32(nil), b.text...),
		Data:    append([]uint32(nil), b.data...),
		Entry:   TextBase,
		Symbols: syms,
	}, nil
}

// Errors returns the deferred build errors accumulated so far (nil if none).
// Link also reports them; Errors is useful for tests.
func (b *Builder) Errors() []error { return b.errs }
