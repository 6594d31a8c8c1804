package replay

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestReplaySmoke replays all three edit classes on two subjects against
// an in-process daemon and checks the report's shape and semantics:
// every class measured, interface edits (and only interface edits)
// re-prepare, and the JSON payload round-trips.
func TestReplaySmoke(t *testing.T) {
	rep, err := Run(Config{
		Subjects: []string{"02", "archiver"},
		Iters:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 4 {
		t.Fatalf("got %d classes, want 4", len(rep.Classes))
	}
	for _, class := range Classes() {
		cs := rep.Class(class)
		if cs.Edits != 2*2 {
			t.Errorf("%s: %d edits, want 4 (2 subjects x 2 iters)", class, cs.Edits)
		}
		if cs.Latency.Count != cs.Edits || cs.Latency.P95Ns <= 0 {
			t.Errorf("%s: bad latency stats %+v", class, cs.Latency)
		}
	}

	// Interface edits invalidate the prepared setup every time; comment,
	// body, and mixed edits never do — that asymmetry is the thing
	// replay exists to measure.
	iface := rep.Class(ClassInterface)
	if iface.Invalidations != 4 || iface.Prepares != 4 {
		t.Errorf("interface: invalidations=%d prepares=%d, want 4/4", iface.Invalidations, iface.Prepares)
	}
	for _, class := range []string{ClassComment, ClassBody, ClassMixed} {
		if cs := rep.Class(class); cs.Invalidations != 0 || cs.Prepares != 0 {
			t.Errorf("%s: invalidations=%d prepares=%d, want 0/0", class, cs.Invalidations, cs.Prepares)
		}
	}
	// Every mixed edit is a structural header edit the decl diff proves
	// benign: all of them must land as early-cutoff hits, with real diff
	// work behind them, and none may fall through to the other classes.
	mixed := rep.Class(ClassMixed)
	if mixed.EarlyCutoffHits != 4 {
		t.Errorf("mixed: early_cutoff_hits=%d, want 4", mixed.EarlyCutoffHits)
	}
	if mixed.DeclsDiffed == 0 {
		t.Errorf("mixed: decls_diffed=0, want > 0")
	}
	for _, class := range []string{ClassComment, ClassBody, ClassInterface} {
		if cs := rep.Class(class); cs.EarlyCutoffHits != 0 {
			t.Errorf("%s: early_cutoff_hits=%d, want 0", class, cs.EarlyCutoffHits)
		}
	}
	if rep.OverInvalidationX <= 0 {
		t.Errorf("over-invalidation ratio = %v, want > 0", rep.OverInvalidationX)
	}
	if rep.OverInvalidationVirtualX <= 1 {
		t.Errorf("virtual over-invalidation ratio = %v, want > 1", rep.OverInvalidationVirtualX)
	}
	// The early-cutoff win: a worst-case header edit must cost strictly
	// more virtual time than a benign one that keeps the setup.
	if rep.EarlyCutoffVirtualX <= 1 {
		t.Errorf("early-cutoff ratio = %v, want > 1", rep.EarlyCutoffVirtualX)
	}

	// Virtual-clock costs: present for every class, and the interface
	// class (which re-prepares) must cost more virtual time than a
	// comment edit (which only rebuilds one TU).
	for _, class := range Classes() {
		if cs := rep.Class(class); cs.VirtualP95Ms <= 0 || cs.VirtualMeanMs <= 0 {
			t.Errorf("%s: virtual stats missing: %+v", class, cs)
		}
	}
	if i, c := rep.Class(ClassInterface).VirtualMeanMs, rep.Class(ClassComment).VirtualMeanMs; i <= c {
		t.Errorf("interface virtual cost %.2fms not above comment %.2fms", i, c)
	}
	if len(rep.PerSubject) != 2 {
		t.Errorf("per-subject reports: %d, want 2", len(rep.PerSubject))
	}

	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// TestInjectDelay checks the synthetic-slowdown hook the regression
// gate's tests rely on: the injected sleep must land inside the timed
// window.
func TestInjectDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	rep, err := Run(Config{
		Subjects:    []string{"archiver"},
		Iters:       1,
		InjectDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range rep.Classes {
		if cs.Latency.P50Ns < delay.Nanoseconds() {
			t.Errorf("%s: p50 %dns below injected delay %v", cs.Class, cs.Latency.P50Ns, delay)
		}
	}
}

// TestEditScripts pins the determinism of the generated edits.
func TestEditScripts(t *testing.T) {
	if a, b := editScript(ClassBody, "x", 3), editScript(ClassBody, "x", 3); a != b {
		t.Errorf("edit script not deterministic: %q vs %q", a, b)
	}
	if a, b := editScript(ClassBody, "x", 1), editScript(ClassBody, "x", 2); a == b {
		t.Errorf("consecutive edits identical: %q", a)
	}
	if got := editScript(ClassComment, "orig", 0); got[:4] != "orig" {
		t.Errorf("edit script dropped the original content: %q", got)
	}
	// Mixed odd iterations rewrite exactly the probe's body.
	got := editScript(ClassMixed, "x\n"+mixedProbe, 3)
	if !strings.Contains(got, "yalla_replay_mixed_probe() { return 3; }") {
		t.Errorf("mixed body rewrite failed: %q", got)
	}
	if !strings.HasPrefix(got, "x\n") {
		t.Errorf("mixed rewrite dropped the original content: %q", got)
	}
}

// refSummarize and refVirtualStats are the formulas the committed
// replay figures were computed with, kept verbatim as the reference for
// the shared quantile helper.
func refSummarize(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	q := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i].Nanoseconds()
	}
	return LatencyStats{
		Count:  len(sorted),
		MeanNs: (sum / time.Duration(len(sorted))).Nanoseconds(),
		P50Ns:  q(0.50),
		P95Ns:  q(0.95),
		P99Ns:  q(0.99),
		MaxNs:  sorted[len(sorted)-1].Nanoseconds(),
	}
}

func refVirtualStats(ms []float64) (mean, p95 float64) {
	if len(ms) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return sum / float64(len(sorted)), sorted[int(0.95*float64(len(sorted)-1))]
}

// TestQuantilesMatchReference pins the wall and virtual statistics on
// fixed samples, unsorted on input, against the reference formulas.
func TestQuantilesMatchReference(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7)%n) + 0.5
		}
		return xs
	}
	cases := []struct {
		name    string
		samples []float64
		p95     float64 // the virtual p95, pinned
	}{
		{"empty", nil, 0},
		{"n=1", []float64{380.61}, 380.61},
		{"odd n", []float64{5, 1, 4, 2, 3}, 4},
		{"even n", []float64{40, 10, 30, 20}, 30},
		{"ties", []float64{7, 3, 7, 7, 3, 9}, 7},
		{"n=20", ramp(20), 18.5},
		{"n=101", ramp(101), 95.5},
	}
	for _, tc := range cases {
		wall := make([]time.Duration, len(tc.samples))
		for i, v := range tc.samples {
			wall[i] = time.Duration(v * 1e6)
		}
		if got, want := summarize(wall), refSummarize(wall); got != want {
			t.Errorf("%s: summarize = %+v, reference %+v", tc.name, got, want)
		}
		mean, p95 := virtualStats(tc.samples)
		refMean, refP95 := refVirtualStats(tc.samples)
		if mean != refMean || p95 != refP95 {
			t.Errorf("%s: virtualStats = (%v, %v), reference (%v, %v)", tc.name, mean, p95, refMean, refP95)
		}
		if p95 != tc.p95 {
			t.Errorf("%s: virtual p95 = %v, want %v", tc.name, p95, tc.p95)
		}
	}
}
