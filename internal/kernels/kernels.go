package kernels

import (
	"fmt"
	"math"
	"sync"

	"pipesim/internal/isa"
	"pipesim/internal/obs"
	"pipesim/internal/program"
)

// TotalInstructions is the exact number of instructions one run of the
// benchmark executes, matching the paper ("A total of 150,575 instructions
// are executed in a single run through the benchmark program").
const TotalInstructions = 150575

// tableI lists the paper's Table I inner-loop sizes in bytes.
var tableI = [14]int{116, 204, 64, 80, 76, 72, 288, 732, 272, 260, 56, 56, 328, 224}

// LoopInfo describes one kernel for reporting.
type LoopInfo struct {
	Index      int    // 1-based loop number
	Name       string // short kernel name
	InnerBytes int    // Table I inner-loop size in bytes
	Iterations int    // calibrated iteration count
}

// TableI returns the inner-loop sizes the generated program is calibrated
// to (identical to the paper's Table I). Each call returns a fresh copy.
func TableI() []LoopInfo {
	return append([]LoopInfo(nil), loopInfo()...)
}

// loopInfo is the Table I listing, derived from the kernel definitions once.
var loopInfo = sync.OnceValue(func() []LoopInfo {
	defs := kernelDefs(0)
	out := make([]LoopInfo, len(defs))
	for i, d := range defs {
		out[i] = LoopInfo{Index: d.index, Name: d.name, InnerBytes: d.tableIBytes, Iterations: d.iters}
	}
	return out
})

// array declares one named region array.
type array struct {
	name  string
	words int
	init  func(i int) uint32
}

// advanceSpec is a pointer bump executed in the delay slots.
type advanceSpec struct {
	reg   uint8
	delta int32
}

// kernelDef declares one Livermore loop.
type kernelDef struct {
	index       int
	name        string
	desc        string
	tableIBytes int
	iters       int
	ptrStart    int32 // initial primary-pointer element (for k-1 accesses)
	arrays      []array
	scratch     []uint8 // registers free for expression spills
	setup       func(c *ctx)
	stmts       func(c *ctx) []Stmt
	advances    []advanceSpec
	epilogue    func(c *ctx)
}

// ctx carries per-kernel emission state.
type ctx struct {
	b      *program.Builder
	def    *kernelDef
	region uint32           // region base byte address
	offs   map[string]int32 // array name -> word offset within region
}

// off returns the word offset of an array within the kernel's region
// (relative to the initial primary pointer).
func (c *ctx) off(name string) int32 {
	o, ok := c.offs[name]
	if !ok {
		panic(fmt.Sprintf("kernels: ll%d references unknown array %q", c.def.index, name))
	}
	return o
}

// ldConst emits prologue code loading the array word at off into reg (two
// instructions: LD + queue pop).
func (c *ctx) ldConst(reg uint8, name string, idx int32) {
	c.b.LD(regPtr, 4*(c.off(name)+idx-c.def.ptrStart))
	c.b.RI(isa.OpADDI, reg, isa.QueueReg, 0)
}

// setPtr2 points the secondary pointer at an array (one instruction).
func (c *ctx) setPtr2(name string, idx int32) {
	c.b.RI(isa.OpADDI, regPtr2, regPtr, 4*(c.off(name)+idx-c.def.ptrStart))
}

// loadAddr loads the absolute address of an array element into reg (two
// instructions).
func (c *ctx) loadAddr(reg uint8, name string, idx int32) {
	c.b.LAAddr(reg, c.region+uint32(4*(c.off(name)+idx)))
}

// storeRegTo emits epilogue code writing reg to an array word: the primary
// pointer is re-pointed at the region, then a store pair is issued.
func (c *ctx) storeRegTo(name string, idx int32, reg uint8) {
	c.b.LAAddr(regPtr, c.region)
	c.b.ST(regPtr, 4*(c.off(name)+idx))
	c.b.RI(isa.OpADDI, isa.QueueReg, reg, 0)
}

// Counts reports the exact instruction arithmetic of a built program.
type Counts struct {
	PerKernel []KernelCount
	Filler    int // trailing NOPs before HALT
	Total     int // executed instructions including HALT
}

// KernelCount is the instruction accounting for one kernel.
type KernelCount struct {
	Index      int
	Prologue   int
	Body       int // instructions per iteration (== Table I bytes / 4)
	Iterations int
	Epilogue   int
}

// Executed returns the kernel's executed-instruction total.
func (k KernelCount) Executed() int { return k.Prologue + k.Body*k.Iterations + k.Epilogue }

// LoopBody returns the instruction words of loop `index`'s inner loop (from
// its loop label through the last delay slot), for code-density analysis.
func LoopBody(img *program.Image, index int) ([]uint32, error) {
	if index < 1 || index > len(tableI) {
		return nil, fmt.Errorf("kernels: loop %d out of range", index)
	}
	start, ok := img.Lookup(fmt.Sprintf("ll%d.loop", index))
	if !ok {
		return nil, fmt.Errorf("kernels: image has no loop symbol for loop %d", index)
	}
	n := tableI[index-1] / isa.WordBytes
	words := make([]uint32, n)
	for i := 0; i < n; i++ {
		w, ok := img.InstWord(start + uint32(4*i))
		if !ok {
			return nil, fmt.Errorf("kernels: loop %d body extends past text", index)
		}
		words[i] = w
	}
	return words, nil
}

// ArrayAddr returns the absolute byte address of element idx of the named
// array in loop `index`, for inspecting results after a run. The layout is
// independent of calibration.
func ArrayAddr(img *program.Image, index int, name string, idx int32) (uint32, error) {
	defs := kernelDefs(0)
	if index < 1 || index > len(defs) {
		return 0, fmt.Errorf("kernels: loop %d out of range", index)
	}
	base, ok := img.Lookup(fmt.Sprintf("ll%d", index))
	if !ok {
		return 0, fmt.Errorf("kernels: image has no region symbol for loop %d", index)
	}
	off := int32(0)
	for _, a := range defs[index-1].arrays {
		if a.name == name {
			return base + uint32(4*(off+idx)), nil
		}
		off += int32(a.words)
	}
	return 0, fmt.Errorf("kernels: loop %d has no array %q", index, name)
}

// LoopRanges resolves the PC range of each Livermore loop (prologue through
// epilogue) against the image's symbol table, for per-loop cycle
// attribution. Loop i spans from its ll<i>.code label to the next loop's
// label; the last loop ends at the text segment's end, so the trailing
// filler and HALT fall outside every range. Pass the image the simulator
// actually runs (Simulation/core Image()), since the native-format relayout
// moves every symbol.
func LoopRanges(img *program.Image) ([]obs.LoopRange, error) {
	defs := kernelDefs(0)
	out := make([]obs.LoopRange, 0, len(defs))
	for i, d := range defs {
		start, ok := img.Lookup(fmt.Sprintf("ll%d.code", d.index))
		if !ok {
			return nil, fmt.Errorf("kernels: image has no code symbol for loop %d", d.index)
		}
		end := img.TextEnd()
		if i+1 < len(defs) {
			next, ok := img.Lookup(fmt.Sprintf("ll%d.code", defs[i+1].index))
			if !ok {
				return nil, fmt.Errorf("kernels: image has no code symbol for loop %d", defs[i+1].index)
			}
			end = next
		}
		out = append(out, obs.LoopRange{Loop: d.index, Name: d.name, Start: start, End: end})
	}
	return out, nil
}

// Program builds the paper's benchmark: all 14 loops compiled as one
// program, each loop running to completion and falling through to the next
// (flushing the small instruction cache between loops). The build is
// calibrated so every inner loop matches Table I exactly and the executed
// instruction count equals TotalInstructions.
func Program() (*program.Image, *Counts, error) {
	// Pass 1: measure with base iteration counts.
	counts, err := buildCounts(0)
	if err != nil {
		return nil, nil, err
	}
	base := counts.Total
	deficit := TotalInstructions - base
	if deficit < 0 {
		return nil, nil, fmt.Errorf("kernels: base program executes %d instructions, over the %d target", base, TotalInstructions)
	}
	// Calibrate: extra iterations of LL11 (the smallest body) absorb most
	// of the deficit; a short run of trailing NOPs absorbs the remainder.
	ll11Body := tableI[10] / isa.WordBytes
	extraIters := deficit / ll11Body
	img, counts2, err := build(extraIters, deficit%ll11Body)
	if err != nil {
		return nil, nil, err
	}
	if counts2.Total != TotalInstructions {
		return nil, nil, fmt.Errorf("kernels: calibration produced %d instructions, want %d", counts2.Total, TotalInstructions)
	}
	return img, counts2, nil
}

// buildCounts measures the program without materializing it for callers.
func buildCounts(extraLL11 int) (*Counts, error) {
	_, c, err := build(extraLL11, 0)
	return c, err
}

// build emits the full benchmark with the given LL11 iteration bump and
// trailing filler.
func build(extraLL11, filler int) (*program.Image, *Counts, error) {
	b := program.NewBuilder()
	counts := &Counts{Filler: filler}
	// Program prologue: the FPU base pointer lives in r1 for the whole
	// run.
	b.LAAddr(regFPU, program.FPUBase)
	total := 2
	for _, def := range kernelDefs(extraLL11) {
		def := def
		kc, err := emitKernel(b, &def)
		if err != nil {
			return nil, nil, err
		}
		counts.PerKernel = append(counts.PerKernel, kc)
		total += kc.Executed()
	}
	for i := 0; i < filler; i++ {
		b.Nop()
	}
	b.Halt()
	total += filler + 1
	counts.Total = total
	img, err := b.Link()
	if err != nil {
		return nil, nil, err
	}
	return img, counts, nil
}

// KernelProgram builds a single loop as a standalone program (prologue,
// loop, epilogue, HALT), for focused tests and examples. Loops are
// numbered 1..14.
func KernelProgram(index int) (*program.Image, error) {
	defs := kernelDefs(0)
	if index < 1 || index > len(defs) {
		return nil, fmt.Errorf("kernels: loop %d out of range 1..%d", index, len(defs))
	}
	b := program.NewBuilder()
	b.LAAddr(regFPU, program.FPUBase)
	def := defs[index-1]
	if _, err := emitKernel(b, &def); err != nil {
		return nil, err
	}
	b.Halt()
	return b.Link()
}

// emitKernel lays down one kernel's data region and code.
func emitKernel(b *program.Builder, def *kernelDef) (KernelCount, error) {
	c := &ctx{b: b, def: def, offs: make(map[string]int32)}
	// Data region.
	c.region = b.DataPC()
	b.DataLabel(fmt.Sprintf("ll%d", def.index))
	off := int32(0)
	for _, a := range def.arrays {
		c.offs[a.name] = off
		for i := 0; i < a.words; i++ {
			var w uint32
			if a.init != nil {
				w = a.init(i)
			}
			b.Word(w)
		}
		off += int32(a.words)
	}
	if off*4 > 0x7000 {
		return KernelCount{}, fmt.Errorf("kernels: ll%d region %d bytes exceeds the 16-bit offset budget", def.index, off*4)
	}

	// Prologue.
	proStart := b.TextLen()
	b.Label(fmt.Sprintf("ll%d.code", def.index))
	b.LAAddr(regPtr, c.region+uint32(4*def.ptrStart))
	if def.setup != nil {
		def.setup(c)
	}
	if def.iters < 1 || def.iters > 0x7FFF {
		return KernelCount{}, fmt.Errorf("kernels: ll%d iteration count %d out of range", def.index, def.iters)
	}
	b.LI(regCounter, int32(def.iters))
	loopLabel := fmt.Sprintf("ll%d.loop", def.index)
	b.SetB(0, loopLabel, 0)
	prologue := b.TextLen() - proStart

	// Body: generate statements, then arrange the prepare-to-branch so
	// the trailing instructions and pointer advances fill the delay
	// slots (the paper reports the compiler averages 4 usable slots).
	g := &gen{scratch: append([]uint8(nil), def.scratch...)}
	for _, s := range def.stmts(c) {
		g.emitStmt(s)
	}
	body := g.out
	budget := def.tableIBytes / isa.WordBytes
	nAdv := len(def.advances)
	fixed := len(body) + 2 + nAdv // counter decrement + PBR + advances
	pads := budget - fixed
	if pads < 0 {
		return KernelCount{}, fmt.Errorf("kernels: ll%d body needs %d instructions, budget %d (Table I %dB)",
			def.index, fixed, budget, def.tableIBytes)
	}
	tail := min(3, len(body))
	if tail > isa.MaxDelaySlots-nAdv {
		tail = isa.MaxDelaySlots - nAdv
	}
	slotPad := min(pads, isa.MaxDelaySlots-nAdv-tail)
	prePad := pads - slotPad
	slots := tail + nAdv + slotPad

	bodyStart := b.TextLen()
	b.Label(loopLabel)
	for _, in := range body[:len(body)-tail] {
		b.Emit(in)
	}
	for i := 0; i < prePad; i++ {
		b.Nop()
	}
	b.RI(isa.OpADDI, regCounter, regCounter, -1)
	b.PBR(isa.CondNE, regCounter, 0, uint8(slots))
	for _, in := range body[len(body)-tail:] {
		b.Emit(in)
	}
	for _, a := range def.advances {
		b.RI(isa.OpADDI, a.reg, a.reg, a.delta)
	}
	for i := 0; i < slotPad; i++ {
		b.Nop()
	}
	bodyLen := b.TextLen() - bodyStart
	if bodyLen != budget {
		return KernelCount{}, fmt.Errorf("kernels: ll%d emitted %d body instructions, want %d", def.index, bodyLen, budget)
	}

	epiStart := b.TextLen()
	if def.epilogue != nil {
		def.epilogue(c)
	}
	epilogue := b.TextLen() - epiStart

	return KernelCount{
		Index:      def.index,
		Prologue:   prologue,
		Body:       bodyLen,
		Iterations: def.iters,
		Epilogue:   epilogue,
	}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f32 packs a float value for data initialization.
func f32(f float32) uint32 { return math.Float32bits(f) }

// Data initializers. Values stay well inside float32 range across all
// iterations (recurrence multipliers are below one).
func initLin(i int) uint32   { return f32(0.25 + 0.001*float32(i%97)) }
func initSmall(i int) uint32 { return f32(0.0625 * float32(i%17)) }
func initFrac(i int) uint32  { return f32(0.5 + 0.25*float32(i%3)) }
