package core

// This file is the robustness layer: the machine-check error path and the
// forward-progress watchdog. Together they make Simulator.Run total —
// internal inconsistencies (panics escaping the substrates) and silent
// deadlocks surface as structured, diagnosable errors instead of crashing
// the caller or burning cycles until MaxCycles.

import (
	"fmt"
	"strings"

	"pipesim/internal/obs"
)

// RetireTraceDepth is how many recently retired instructions a
// machine-check or deadlock post-mortem holds.
const RetireTraceDepth = 32

// DefaultWatchdogCycles is the forward-progress watchdog window used when
// Config.WatchdogCycles is zero: the longest a run may go without retiring
// an instruction before it is declared deadlocked. It is far above any
// legitimate stall (the worst validated memory configuration drains its
// request queues in well under a quarter of this) yet far below the
// MaxCycles runaway guard, so deadlocks are reported in seconds, not hours.
const DefaultWatchdogCycles = 1_000_000

// DefaultMaxCycles is the runaway-run guard used when Config.MaxCycles is
// zero. Exported so result memoization (internal/runcache) can canonicalize
// configurations: a zero and an explicit default are the same machine.
const DefaultMaxCycles = 500_000_000

// MachineCheckError reports a simulator bug: a panic escaped the internal
// packages during Run. It carries enough context — cycle, PC, strategy, the
// offending configuration and the tail of the retirement trace — to
// reproduce and diagnose the fault without a debugger. Callers sweeping
// many configurations can log it and move on; the process never crashes.
type MachineCheckError struct {
	PanicValue   any         // the recovered panic value
	Stack        string      // goroutine stack captured at the recovery point
	Cycle        uint64      // cycle during which the panic escaped
	PC           uint32      // PC of the most recently retired instruction
	Instructions uint64      // instructions retired before the fault
	Strategy     string      // fetch strategy name
	Config       Config      // the offending configuration
	Trace        []Retired   // recently retired instructions, oldest first
	Recent       []obs.Event // flight-recorder tail: recent probe events, oldest first
}

// Error summarizes the machine check in one line.
func (e *MachineCheckError) Error() string {
	return fmt.Sprintf("core: machine check at cycle %d (pc %#05x, %d retired, strategy %s): %v",
		e.Cycle, e.PC, e.Instructions, e.Strategy, e.PanicValue)
}

// Detail renders the full diagnostic report: the summary line, the retained
// retirement trace and the capture-point stack.
func (e *MachineCheckError) Detail() string {
	var sb strings.Builder
	sb.WriteString(e.Error())
	sb.WriteString("\nconfig: ")
	fmt.Fprintf(&sb, "%+v", e.Config)
	if len(e.Trace) > 0 {
		fmt.Fprintf(&sb, "\nlast %d retired instructions:\n", len(e.Trace))
		for _, ev := range e.Trace {
			sb.WriteString("  ")
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
	}
	writeRecent(&sb, e.Recent)
	if e.Stack != "" {
		sb.WriteString("stack:\n")
		sb.WriteString(e.Stack)
	}
	return sb.String()
}

// flightDetailTail caps how much of the flight-recorder snapshot a Detail
// report prints: the full ring (default 256 entries) belongs in the JSON /
// Chrome-trace surfaces, not a terminal dump.
const flightDetailTail = 32

// writeRecent renders the tail of the flight-recorder snapshot.
func writeRecent(sb *strings.Builder, recent []obs.Event) {
	if len(recent) == 0 {
		return
	}
	tail := recent
	if len(tail) > flightDetailTail {
		fmt.Fprintf(sb, "flight recorder (%d earlier events omitted):\n", len(recent)-flightDetailTail)
		tail = tail[len(tail)-flightDetailTail:]
	} else {
		sb.WriteString("flight recorder:\n")
	}
	for _, ev := range tail {
		sb.WriteString("  ")
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
}

// DeadlockError reports that the forward-progress watchdog fired: the run
// retired no instruction for a full watchdog window, long before MaxCycles.
// The fetch-engine, CPU and memory-system state strings describe where the
// machine is stuck (e.g. an issue stall on an empty Load Data Queue with no
// load in flight).
type DeadlockError struct {
	Cycle        uint64      // cycle at which the watchdog fired
	LastProgress uint64      // last cycle that retired an instruction (0 = never)
	Window       uint64      // the watchdog window that elapsed
	Instructions uint64      // instructions retired before the stall
	Strategy     string      // fetch strategy name
	FetchState   string      // fetch-engine occupancy and cursor state
	CPUState     string      // architectural queue occupancy and pipeline state
	MemState     string      // memory-system queue occupancy
	Trace        []Retired   // recently retired instructions, oldest first
	Recent       []obs.Event // flight-recorder tail: recent probe events, oldest first
}

// Error summarizes the deadlock in one line.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: no forward progress for %d cycles (cycle %d, last retirement at cycle %d, %d retired, strategy %s)",
		e.Window, e.Cycle, e.LastProgress, e.Instructions, e.Strategy)
}

// Detail renders the full deadlock diagnosis.
func (e *DeadlockError) Detail() string {
	var sb strings.Builder
	sb.WriteString(e.Error())
	fmt.Fprintf(&sb, "\nfetch: %s\ncpu:   %s\nmem:   %s\n", e.FetchState, e.CPUState, e.MemState)
	if len(e.Trace) > 0 {
		fmt.Fprintf(&sb, "last %d retired instructions:\n", len(e.Trace))
		for _, ev := range e.Trace {
			sb.WriteString("  ")
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
	}
	writeRecent(&sb, e.Recent)
	return sb.String()
}

// machineCheck wraps a recovered panic in a MachineCheckError with the
// run's current context and its replayed post-mortem.
func (s *Simulator) machineCheck(p any, stack []byte) *MachineCheckError {
	recent, retired := s.PostMortem()
	e := &MachineCheckError{
		PanicValue:   p,
		Stack:        string(stack),
		Cycle:        s.cycle,
		Instructions: s.st.CPU.Instructions,
		Strategy:     s.cfg.Fetch.String(),
		Config:       s.cfg,
		Trace:        retired,
		Recent:       recent,
	}
	if n := len(e.Trace); n > 0 {
		e.PC = e.Trace[n-1].PC
	}
	return e
}

// deadlock builds the watchdog's diagnosis of a stalled run and its
// replayed post-mortem.
func (s *Simulator) deadlock(cycle, lastProgress, window uint64) *DeadlockError {
	recent, retired := s.PostMortem()
	return &DeadlockError{
		Cycle:        cycle,
		LastProgress: lastProgress,
		Window:       window,
		Instructions: s.st.CPU.Instructions,
		Strategy:     s.cfg.Fetch.String(),
		FetchState:   s.eng.DebugState(),
		CPUState:     s.cpu.DebugState(),
		MemState:     s.sys.DebugState(),
		Trace:        retired,
		Recent:       recent,
	}
}
