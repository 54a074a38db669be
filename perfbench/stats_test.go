package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		in   samples
		want [3]float64
	}{
		{samples{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{samples{1, 2, 3}, [3]float64{1, 2, 3}},
		{samples{5, 1}, [3]float64{0, 3, 6}},
		{samples{0.5, 2.5, 1.5, 9, 4, 7.25, 3}, [3]float64{1.5, 3, 7.25}},
		{samples{4}, [3]float64{4, 4, 4}},
	} {
		got := tc.in.quartiles()
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	if q := (samples{}).quartiles(); !math.IsNaN(q[1]) {
		t.Errorf("quartiles of no samples = %v, want NaN", q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted input
		s = append(s, float64(i))
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%g of 1..100 = %g, want %g", tc.p*100, got, tc.want)
		}
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		p   float64
		min int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(tc.p); got != tc.min {
			t.Errorf("minSamples(%g) = %d, want %d", tc.p, got, tc.min)
		}
		if b := beyond(tc.min, tc.p); b != minBeyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", tc.min, tc.p, b, minBeyond)
		}
		short := make(samples, tc.min-1)
		if err := checkPercentile("x", short, tc.p); err == nil {
			t.Errorf("p%g of %d samples passed the rule", tc.p*100, len(short))
		}
		if err := checkPercentile("x", make(samples, tc.min), tc.p); err != nil {
			t.Errorf("p%g of %d samples: %v", tc.p*100, tc.min, err)
		}
	}
}

func TestAddPercentileFailsShortRuns(t *testing.T) {
	r := &result{}
	r.addPercentile("run_ms_p90", "ms", passes{make(samples, 99)}, 0.9)
	if r.failed != 1 || len(r.metrics) != 1 {
		t.Fatalf("short p90: failed=%d metrics=%d, want 1 and 1", r.failed, len(r.metrics))
	}
	r.addPercentile("run_ms_p50", "ms", passes{make(samples, 99)}, 0.5)
	if r.failed != 1 {
		t.Errorf("p50 of 99 samples counted as a failure")
	}
}

func TestPassesPercentile(t *testing.T) {
	// Fewer samples than one window: the plain percentile of them all.
	var one samples
	for i := 1; i <= 150; i++ {
		one = append(one, float64(i))
	}
	if got, want := (passes{one[:50], one[50:]}).percentile(0.9), one.percentile(0.9); got != want {
		t.Errorf("one window: p90 %g, want %g", got, want)
	}
	// Five passes of 100 samples, one slow: it moves its own window's p90
	// but not the median over windows.
	var ps passes
	for w := 0; w < 5; w++ {
		var pass samples
		for i := 1; i <= 100; i++ {
			v := float64(i)
			if w == 2 {
				v *= 10
			}
			pass = append(pass, v)
		}
		ps = append(ps, pass)
	}
	if got := ps.percentile(0.9); got != 90 {
		t.Errorf("p90 with one slow pass = %g, want 90", got)
	}
	// Windows hold whole passes: three passes of 40 make one window of
	// 120, and a short tail joins the last window.
	ps = passes{make(samples, 40), make(samples, 40), make(samples, 40), {5, 5}}
	for i := range ps[:3] {
		for j := range ps[i] {
			ps[i][j] = float64(j + 1)
		}
	}
	if got, want := ps.percentile(0.9), ps.flat().percentile(0.9); got != want {
		t.Errorf("whole-pass window p90 = %g, want %g", got, want)
	}
}
