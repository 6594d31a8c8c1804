package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds, or
// 0 for no samples.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the middle sample (the mean of the two middle ones for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func durMedian(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so a run-set's spread here is the spread
// anyone recomputing it from the printed values gets. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after clamping, as Python does
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// summary is one metric's statistics across a run-set.
type summary struct {
	Median, Q1, Q3 float64
	// Spread is the interquartile distance as a share of the median.
	Spread float64
}

func summarize(xs []float64) (summary, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return summary{}, err
	}
	s := summary{Median: q2, Q1: q1, Q3: q3}
	if q2 != 0 {
		s.Spread = (q3 - q1) / math.Abs(q2)
	}
	return s, nil
}

// worsening is how much cur is worse than base, as a share of base: a
// positive value is a regression for a metric whose better direction is
// "lower" (cur above base) or "higher" (cur below base); zero or
// negative means no worse.
func worsening(base, cur float64, better string) float64 {
	d := cur - base
	if base != 0 {
		d /= math.Abs(base)
	} else if d != 0 {
		d = math.Copysign(math.Inf(1), d)
	}
	if better == "higher" {
		d = -d
	}
	return d
}

// agrees reports whether a second run-set's median is within bound of
// the first's: no worse by more than the bound's share.
func agrees(first, second float64, better string, bound float64) bool {
	return worsening(first, second, better) <= bound
}
