package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"pipesim/internal/core"
	"pipesim/internal/obs"
)

// tailDigest hashes a post-mortem: the flight-recorder events, then the
// retirement tail, one canonical line per entry.
func tailDigest(events []obs.Event, retired []core.Retired) string {
	h := sha256.New()
	for _, e := range events {
		fmt.Fprintf(h, "%d %d %d %d %d\n", e.Kind, e.Cycle, e.Addr, e.Arg, e.Value)
	}
	fmt.Fprint(h, "--\n")
	for _, r := range retired {
		fmt.Fprintf(h, "%d %d %s\n", r.Cycle, r.PC, r.Inst)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deadlockDigests pins the post-mortem of stuckProgram's deadlock as
// commit c26f737 recorded it live; the replayed tail must match.
var deadlockDigests = map[core.FetchStrategy]string{
	core.FetchPIPE:         "391f48f05da57a91a888261dc2a9b5b92f5c186ee5780ff68e09fdfd34014d81",
	core.FetchConventional: "232a8568486b3f219c5d3f398cd6aa3b8c248f9b3779a69a2bc46085cc1ea50e",
	core.FetchTIB:          "2478fcb96abd825d1727c2303809accdcf13db60b2acea3466f429b70100a421",
}

func TestDeadlockReplayMatchesLiveRecorder(t *testing.T) {
	for _, strat := range []core.FetchStrategy{core.FetchPIPE, core.FetchConventional, core.FetchTIB} {
		cfg := core.DefaultConfig()
		cfg.Fetch = strat
		cfg.TIBEntries = 4
		cfg.TIBLineBytes = 16
		cfg.WatchdogCycles = 2_000
		sim, err := core.New(cfg, stuckProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run()
		var dl *core.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("%s: Run err = %v, want *DeadlockError", strat, err)
		}
		if got, want := tailDigest(dl.Recent, dl.Trace), deadlockDigests[strat]; got != want {
			t.Errorf("core.%s: %q, // digest drifted, pinned %q", strat, got, want)
		}
		events, retired := sim.PostMortem()
		if tailDigest(events, retired) != tailDigest(dl.Recent, dl.Trace) {
			t.Errorf("%s: PostMortem differs from the error's tails", strat)
		}
	}
}

// TestMachineCheckReplayEndsAtFaultCycle covers a fault raised by a user
// observer, which the replay does not reproduce: the replay runs to the end
// of the faulting cycle, so the tail ends there and holds the retirement
// the observer faulted on.
func TestMachineCheckReplayEndsAtFaultCycle(t *testing.T) {
	sim, err := core.New(core.DefaultConfig(), smallProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	sim.SetProbe(&panicRecorder{after: 20})
	_, err = sim.Run()
	var mce *core.MachineCheckError
	if !errors.As(err, &mce) {
		t.Fatalf("Run err = %v, want *MachineCheckError", err)
	}
	n := len(mce.Recent)
	if n == 0 {
		t.Fatal("machine check carries no flight-recorder events")
	}
	if last := mce.Recent[n-1].Cycle; last != mce.Cycle {
		t.Errorf("last replayed event at cycle %d, machine check at cycle %d", last, mce.Cycle)
	}
	sawRetire := false
	for _, e := range mce.Recent {
		if e.Kind == obs.KindRetire && e.Addr == mce.PC && e.Cycle == mce.Cycle {
			sawRetire = true
		}
	}
	if !sawRetire {
		t.Errorf("tail holds no retirement of pc %#05x at cycle %d: %v", mce.PC, mce.Cycle, mce.Recent)
	}
}
