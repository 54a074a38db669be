// Package kernels generates the benchmark program of the paper: the first
// 14 Lawrence Livermore Loops compiled to PIPE assembly, calibrated so that
// every inner loop's byte size matches the paper's Table I exactly and a
// full run executes exactly 150,575 instructions.
//
// The kernels are written against a small expression code generator that
// plays the role of the PIPE compiler. Floating-point arithmetic goes
// through the memory-mapped external FPU ("a pair of data stores causes a
// multiply to occur"), and all array traffic flows through the
// architectural queues, so each inner loop generates the heavy data-request
// stream the paper relies on to study the interaction of instruction and
// data fetching.
//
// # Code generation model
//
// Values travel through the Load Data Queue (R7). The LDQ is FIFO, so the
// generator enforces the fundamental discipline that values must be
// requested in exactly the order they will be consumed:
//
//   - a Load leaf issues LD off(ptr) and its value is popped later;
//   - an FPU operation stores operand A (popping it from the LDQ or moving
//     it from a register), then stores operand B to the trigger address;
//     the result occupies the next LDQ slot;
//   - an operation's right operand must be a register or a direct load —
//     compound right operands are first evaluated and spilled to a scratch
//     register (one extra instruction), keeping the request/pop orders
//     aligned.
//
// Register convention inside a kernel:
//
//	r1 — FPU base pointer (program-wide)
//	r2 — moving array pointer (advanced each iteration)
//	r3 — second moving pointer or scratch, per kernel
//	r5 — loop counter (counts down)
//	r0, r4, r6 — constants and spill scratch, per kernel
//	r7 — the architectural queue register
package kernels

import (
	"fmt"

	"pipesim/internal/isa"
)

// Register roles. Exported aliases let other front ends (internal/minic)
// target the same convention.
const (
	regFPU     = 1 // FPU base pointer, program-wide
	regPtr     = 2 // primary moving array pointer
	regPtr2    = 3 // secondary pointer / scratch
	regCounter = 5 // loop counter
)

// Exported register-convention names for other code generators.
const (
	RegFPU     = regFPU
	RegPtr     = regPtr
	RegPtr2    = regPtr2
	RegCounter = regCounter
)

// FPU register offsets from the FPU base pointer (see internal/mem).
const (
	fpuOffA   = 0
	fpuOffMul = 4
	fpuOffAdd = 8
	fpuOffSub = 12
	fpuOffDiv = 16
)

// Expr is a floating-point expression evaluated through the FPU.
type Expr interface{ isExpr() }

// LoadX reads the array word at off(r2), the moving primary pointer.
type LoadX struct{ Off int32 }

// LoadY reads the array word at off(r3), the moving secondary pointer.
type LoadY struct{ Off int32 }

// Reg uses a register's bits directly (preloaded constants, spilled
// temporaries, accumulators).
type Reg struct{ R uint8 }

// Op applies an FPU operation to two subexpressions.
type Op struct {
	Kind byte // '*', '+', '-', '/'
	A, B Expr
}

func (LoadX) isExpr() {}
func (LoadY) isExpr() {}
func (Reg) isExpr()   {}
func (Op) isExpr()    {}

// Convenience constructors.

// Mul returns a*b.
func Mul(a, b Expr) Expr { return Op{Kind: '*', A: a, B: b} }

// Add returns a+b.
func Add(a, b Expr) Expr { return Op{Kind: '+', A: a, B: b} }

// Sub returns a-b.
func Sub(a, b Expr) Expr { return Op{Kind: '-', A: a, B: b} }

// Div returns a/b.
func Div(a, b Expr) Expr { return Op{Kind: '/', A: a, B: b} }

// X reads element off words past the primary pointer.
func X(off int32) Expr { return LoadX{Off: 4 * off} }

// Y reads element off words past the secondary pointer.
func Y(off int32) Expr { return LoadY{Off: 4 * off} }

// R reads a register.
func R(r uint8) Expr { return Reg{R: r} }

// gen emits instructions for one kernel iteration body into a buffer, so
// the kernel emitter can place the prepare-to-branch ahead of the trailing
// body instructions and use them as delay slots.
type gen struct {
	out     []isa.Inst
	scratch []uint8 // registers free for spills, used LIFO
}

func (g *gen) emitInst(in isa.Inst) {
	if err := isa.Validate(in); err != nil {
		panic("kernels: " + err.Error())
	}
	g.out = append(g.out, in)
}

func (g *gen) ld(base uint8, off int32) {
	g.emitInst(isa.Inst{Op: isa.OpLD, Ra: base, Imm: off})
}

func (g *gen) st(base uint8, off int32) {
	g.emitInst(isa.Inst{Op: isa.OpST, Ra: base, Imm: off})
}

func (g *gen) mov(rd, ra uint8) {
	g.emitInst(isa.Inst{Op: isa.OpADDI, Rd: rd, Ra: ra, Imm: 0})
}

// popTo pops the LDQ head into a register.
func (g *gen) popTo(rd uint8) { g.mov(rd, isa.QueueReg) }

// takeScratch allocates a spill register.
func (g *gen) takeScratch() uint8 {
	if len(g.scratch) == 0 {
		panic("kernels: out of scratch registers; restructure the expression")
	}
	r := g.scratch[len(g.scratch)-1]
	g.scratch = g.scratch[:len(g.scratch)-1]
	return r
}

func (g *gen) releaseScratch(r uint8) { g.scratch = append(g.scratch, r) }

// trigger returns the FPU trigger offset for an operation kind.
func trigger(kind byte) int32 {
	switch kind {
	case '*':
		return fpuOffMul
	case '+':
		return fpuOffAdd
	case '-':
		return fpuOffSub
	case '/':
		return fpuOffDiv
	}
	panic(fmt.Sprintf("kernels: unknown op %q", kind))
}

// emit generates code for e. Afterwards the value is the newest LDQ entry
// (for loads and ops) or sits in a register (for Reg). It returns the
// operand source for the consumer: the register, or QueueReg for LDQ.
func (g *gen) emit(e Expr) uint8 {
	switch e := e.(type) {
	case Reg:
		return e.R
	case LoadX:
		g.ld(regPtr, e.Off)
		return isa.QueueReg
	case LoadY:
		g.ld(regPtr2, e.Off)
		return isa.QueueReg
	case Op:
		// FIFO discipline: the operation pops A then B, so their values
		// must be requested in that order with nothing interleaved.
		// When B is compound its internal traffic would break that for
		// an in-queue A, so A is parked: a compound A is evaluated and
		// spilled to a scratch register (released as soon as this
		// operation's code is emitted, so chains of accumulating
		// operations need only one scratch per live nesting level); a
		// leaf-load A defers behind a spilled B; a register A needs no
		// spill at all.
		_, bCompound := e.B.(Op)
		if !bCompound {
			aSrc := g.emit(e.A)
			g.st(regFPU, fpuOffA)
			g.mov(isa.QueueReg, aSrc) // pops the LDQ if aSrc == r7
			bSrc := g.emit(e.B)       // register or direct load
			g.st(regFPU, trigger(e.Kind))
			g.mov(isa.QueueReg, bSrc)
			return isa.QueueReg
		}
		switch a := e.A.(type) {
		case Reg:
			g.emit(e.B)
			g.st(regFPU, fpuOffA)
			g.mov(isa.QueueReg, a.R)
			g.st(regFPU, trigger(e.Kind))
			g.mov(isa.QueueReg, isa.QueueReg) // pops B's result
		case Op:
			g.emit(a)
			r := g.takeScratch()
			g.popTo(r)
			g.emit(e.B)
			g.st(regFPU, fpuOffA)
			g.mov(isa.QueueReg, r)
			g.st(regFPU, trigger(e.Kind))
			g.mov(isa.QueueReg, isa.QueueReg)
			g.releaseScratch(r)
		default: // leaf load: evaluate and spill B instead
			g.emit(e.B)
			r := g.takeScratch()
			g.popTo(r)
			g.emit(e.A)
			g.st(regFPU, fpuOffA)
			g.mov(isa.QueueReg, isa.QueueReg) // pops A
			g.st(regFPU, trigger(e.Kind))
			g.mov(isa.QueueReg, r)
			g.releaseScratch(r)
		}
		return isa.QueueReg
	}
	panic("kernels: unknown expression node")
}

// Stmt is one statement of a kernel body.
type Stmt interface{ isStmt() }

// storeX writes an expression to off(r2).
type storeX struct {
	Off int32
	E   Expr
}

// storeY writes an expression to off(r3).
type storeY struct {
	Off int32
	E   Expr
}

// popReg evaluates an expression and leaves it in a register (used for
// accumulators that live across iterations).
type popReg struct {
	R uint8
	E Expr
}

// raw injects hand-written instructions (integer index arithmetic, gather
// address computation) between expression statements.
type raw struct{ ins []isa.Inst }

func (storeX) isStmt() {}
func (storeY) isStmt() {}
func (popReg) isStmt() {}
func (raw) isStmt()    {}

// StoreX writes e to element off (in words) past the primary pointer.
func StoreX(off int32, e Expr) Stmt { return storeX{Off: 4 * off, E: e} }

// StoreY writes e to element off (in words) past the secondary pointer.
func StoreY(off int32, e Expr) Stmt { return storeY{Off: 4 * off, E: e} }

// PopReg evaluates e into register r.
func PopReg(r uint8, e Expr) Stmt { return popReg{R: r, E: e} }

// Raw injects literal instructions.
func Raw(ins ...isa.Inst) Stmt { return raw{ins: ins} }

func (g *gen) emitStmt(s Stmt) {
	switch s := s.(type) {
	case storeX:
		src := g.emit(s.E)
		g.st(regPtr, s.Off)
		g.mov(isa.QueueReg, src)
	case storeY:
		src := g.emit(s.E)
		g.st(regPtr2, s.Off)
		g.mov(isa.QueueReg, src)
	case popReg:
		src := g.emit(s.E)
		if src == isa.QueueReg {
			g.popTo(s.R)
		} else if src != s.R {
			g.mov(s.R, src)
		}
	case raw:
		for _, in := range s.ins {
			g.emitInst(in)
		}
	}
}

// CompileBody lowers statements to instructions under the FIFO queue
// discipline, using the given spill registers. Generation errors (spill
// exhaustion, invalid instructions) are returned rather than panicking, so
// front ends can surface them to users.
func CompileBody(stmts []Stmt, scratch []uint8) (ins []isa.Inst, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	g := &gen{scratch: append([]uint8(nil), scratch...)}
	for _, s := range stmts {
		g.emitStmt(s)
	}
	return g.out, nil
}
