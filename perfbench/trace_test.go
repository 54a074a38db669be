package main

import (
	"math"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pipesim/internal/cpu.(*CPU).Tick":                                      "cpu",
		"pipesim/internal/queue.(*Queue[go.shape.*pipesim/internal/mem.x]).Pop": "cpu",
		"pipesim/internal/trace.(*Ring).Record":                                 "obs",
		"pipesim/internal/isa.Inst.WritesSDQ":                                   "program",
		"pipesim/internal/stats.(*Sim).Add":                                     "other",
		"pipesim.resultFrom":                                                    "other",
		"encoding/json.(*encodeState).marshal":                                  "json",
		"net/http.(*conn).serve":                                                "net",
		"bufio.(*Writer).Flush":                                                 "net",
		"runtime.mallocgc":                                                      "runtime",
		"internal/runtime/syscall.Syscall6":                                     "runtime",
		"gcWriteBarrier":                                                        "runtime",
		"main.run":                                                              "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	const out = `File: pipesimd
Type: cpu
Duration: 2.19s, Total samples = 3.60s (164.42%)
Showing nodes accounting for 3.60s, 100% of 3.60s total
      flat  flat%   sum%        cum   cum%
     1.80s 50.00% 50.00%      2.79s 77.50%  pipesim/internal/core.(*Simulator).Run
     0.90s 25.00% 75.00%      0.90s 25.00%  pipesim/internal/mem.(*System).deliver
     0.54s 15.00% 90.00%      0.54s 15.00%  encoding/json.(*decodeState).object
     0.36s 10.00%   100%      0.36s 10.00%  pipesim/internal/queue.(*Queue[go.shape.struct { a uint32 }]).Peek (inline)
`
	sh, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 0.5, "mem": 0.25, "json": 0.15, "cpu": 0.10}
	total := 0.0
	for _, b := range profileBuckets {
		if math.Abs(sh[b]-want[b]) > 1e-9 {
			t.Errorf("share %s = %g, want %g", b, sh[b], want[b])
		}
		total += sh[b]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %g", total)
	}
	if _, err := parsePprofTop("no table here"); err == nil {
		t.Error("output without a sample table parsed")
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		in   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{0, 100}, {10, 20}, {30, 40}}, 100},
	} {
		if got := covered(tc.in); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
