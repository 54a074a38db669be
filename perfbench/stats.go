package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie strictly beyond a
// reported percentile: a p90 needs 100 samples, a p99 needs 1000.
const minBeyond = 10

// samples is one metric's raw observations, in arrival order.
type samples []float64

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of s: the
// smallest sample with at least p·n samples at or below it.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := s.sorted()
	return xs[rankIndex(len(xs), p)]
}

// rankIndex is the 0-based nearest-rank index of the p-quantile of n
// samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond counts the samples strictly past the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// minSamples is the smallest sample count whose p-quantile has minBeyond
// samples beyond it.
func minSamples(p float64) int {
	n := minBeyond
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// passes holds one metric's samples grouped by the pass (rotation,
// catalog, tier round or serve-mix round) that produced them, in order.
type passes []samples

// flat is every sample, in order.
func (ps passes) flat() samples {
	var out samples
	for _, p := range ps {
		out = append(out, p...)
	}
	return out
}

// percentile is the reported form of a p-quantile: consecutive whole
// passes are grouped into windows of at least minSamples(p) samples (the
// last window takes any remainder), the nearest-rank p-quantile is taken
// in each window, and the median over windows is reported. Every window
// keeps minBeyond samples past its quantile and the mix of operations a
// pass contains, and a burst of slow seconds inside a run moves only the
// windows it falls in, not the median.
func (ps passes) percentile(p float64) float64 {
	need := minSamples(p)
	var windows passes
	var cur samples
	for _, pass := range ps {
		cur = append(cur, pass...)
		if len(cur) >= need {
			windows = append(windows, cur)
			cur = nil
		}
	}
	if len(windows) == 0 {
		return cur.percentile(p)
	}
	windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	var per samples
	for _, w := range windows {
		per = append(per, w.percentile(p))
	}
	return per.median()
}

// checkPercentile reports an error when s is too small to support the
// p-quantile under the minBeyond rule.
func checkPercentile(name string, s samples, p float64) error {
	if b := beyond(len(s), p); b < minBeyond {
		return fmt.Errorf("%s: p%g of %d samples has %d beyond it, want at least %d (need %d samples)",
			name, p*100, len(s), b, minBeyond, minSamples(p))
	}
	return nil
}

// quartiles returns the first, second and third quartile of s by the
// exclusive method of Python's statistics.quantiles(n=4), so the report
// matches what an external checker computes from the same values. With
// fewer than two samples all three are the single value (or NaN).
func (s samples) quartiles() [3]float64 {
	xs := s.sorted()
	n := len(xs)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return q
}

// median is the middle quartile.
func (s samples) median() float64 { return s.quartiles()[1] }
