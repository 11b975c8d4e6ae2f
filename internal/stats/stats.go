// Package stats provides the small statistical helpers used by the
// experiment harness and the batch runner: means, standard deviations,
// confidence intervals, quantiles and empirical CDFs (Figure 13).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than two
// samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Summary describes a sample: size, mean, sample standard deviation, the
// half-width of the normal-approximation 95% confidence interval of the
// mean, and range.
type Summary struct {
	N            int
	Mean, StdDev float64
	CI95         float64
	Min, Max     float64
}

// Summarize computes the Summary of xs (zero value for empty input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    xs[0],
		Max:    xs[0],
	}
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	if s.N > 1 {
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation on the sorted sample. It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
