package main

import (
	"math"
	"testing"
	"time"
)

// The expected values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{1, 100, 2, 99, 3, 98, 4}, 2, 4, 99},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatalf("%v: %v", tc.xs, err)
		}
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want an error")
	}
}

func TestSummarySpread(t *testing.T) {
	s, err := summarize([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 55 || math.Abs(s.Spread-55.0/55) > 1e-12 {
		t.Errorf("summary = %+v, want median 55 and spread 1", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 20; i++ {
		ds = append(ds, time.Duration(21-i))
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 10}, {0.9, 18}, {0.95, 19}, {1, 20}, {0.01, 1}} {
		if got := percentile(ds, tc.q); got != tc.want {
			t.Errorf("percentile(1..20, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestAgreement(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second float64
		better        string
		bound         float64
		want          bool
	}{
		{"equal", 100, 100, "lower", 0.1, true},
		{"faster", 100, 80, "lower", 0.1, true},
		{"slower within bound", 100, 109.9, "lower", 0.1, true},
		{"slower at bound", 100, 110, "lower", 0.1, true},
		{"slower past bound", 100, 110.1, "lower", 0.1, false},
		{"higher-better drop within bound", 0.9, 0.85, "higher", 0.1, true},
		{"higher-better drop past bound", 0.9, 0.7, "higher", 0.1, false},
		{"higher-better rise", 0.5, 0.9, "higher", 0.1, true},
		{"zero base unchanged", 0, 0, "lower", 0.1, true},
		{"zero base grew", 0, 1, "lower", 0.25, false},
		{"higher-better zero base rose", 0, 1, "higher", 0.1, true},
	} {
		if got := agrees(tc.first, tc.second, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: agrees(%v, %v, %s, %v) = %v, want %v",
				tc.name, tc.first, tc.second, tc.better, tc.bound, got, tc.want)
		}
	}
}
