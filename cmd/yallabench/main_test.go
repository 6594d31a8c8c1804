package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// smallCfg is a fast observatory run: one subject, two edits per class.
// The injected base delay dominates the comment, body and mixed timed
// windows so real scheduling noise cannot trip the gate on them.
func smallCfg(out string, delay time.Duration) measureConfig {
	return measureConfig{
		Subjects:    []string{"archiver"},
		ReplayIters: 2,
		ReplayOut:   out,
		InjectDelay: delay,
	}
}

// logInterfaceP95 prints the interface class's wall p95 delta. That
// class pays a real re-Prepare per edit, which can swamp the injected
// delay and moves with the machine's load, so no half asserts on it.
func logInterfaceP95(t *testing.T, res *bench.Result) {
	t.Helper()
	for _, d := range res.Deltas {
		if d.Metric == "replay/interface/p95_ns" {
			t.Logf("%s: %.0f -> %.0f (%+.1f%%, not asserted)", d.Metric, d.Base, d.Cur, d.Pct)
		}
	}
}

// TestCompareGateDetectsSlowdown is the observatory's acceptance test:
// an unmodified re-run passes the gates, a synthetic 2× slowdown
// (injected sleep inside every timed window) fails the 10% p95 gate.
func TestCompareGateDetectsSlowdown(t *testing.T) {
	const baseDelay = 40 * time.Millisecond

	baseline, err := measure(smallCfg("", baseDelay))
	if err != nil {
		t.Fatal(err)
	}
	same, err := measure(smallCfg("", baseDelay))
	if err != nil {
		t.Fatal(err)
	}
	// The unmodified re-run asserts only what machine load cannot move:
	// CI's virtual gate reads exactly +0.0%, and the wall p95s the
	// injected delay dominates stay within the 10% gate.
	virt := bench.Compare(*baseline, *same, bench.Opts{Gate: "virtual"})
	if gatedCount(virt) == 0 {
		t.Fatalf("virtual gate selected no metric:\n%s", virt.Table())
	}
	for _, d := range virt.Deltas {
		if d.Gated && d.Cur != d.Base {
			t.Errorf("virtual metric %s moved on an unmodified run: %v -> %v", d.Metric, d.Base, d.Cur)
		}
	}
	wall := bench.Compare(*baseline, *same, bench.Opts{})
	logInterfaceP95(t, wall)
	flagged := strings.Join(wall.Regressions(), " ")
	for _, class := range []string{"comment", "body", "mixed"} {
		if name := "replay/" + class + "/p95_ns"; strings.Contains(flagged, name) {
			t.Errorf("unmodified run flagged %s as a regression:\n%s", name, wall.Table())
		}
	}

	slow, err := measure(smallCfg("", 2*baseDelay))
	if err != nil {
		t.Fatal(err)
	}
	res := bench.Compare(*baseline, *slow, bench.Opts{})
	logInterfaceP95(t, res)
	if res.OK() {
		t.Fatalf("2x slowdown passed the gate:\n%s", res.Table())
	}
	// The comment and body windows are dominated by the injected delay,
	// so their p95 metrics must be flagged. (The interface class also
	// pays a real re-Prepare per edit, which can swamp the synthetic
	// delta — its flagging depends on machine speed, so it isn't
	// asserted.)
	regs := strings.Join(res.Regressions(), " ")
	for _, class := range []string{"comment", "body"} {
		if !strings.Contains(regs, "replay/"+class+"/p95_ns") {
			t.Errorf("class %s not flagged; regressions: %s", class, regs)
		}
	}
	if !strings.Contains(res.Table(), "REGRESSION") {
		t.Errorf("table missing REGRESSION verdict:\n%s", res.Table())
	}
}

// TestMeasureWritesReplayReport checks the bench_replay.json side
// artifact and the entry's metric names.
func TestMeasureWritesReplayReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results", "bench_replay.json")
	entry, err := measure(smallCfg(out, 0))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("replay report not written: %v", err)
	}
	for _, want := range []string{`"class": "comment"`, `"class": "body"`, `"class": "interface"`, `"over_invalidation_x"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("replay report missing %s", want)
		}
	}
	for _, name := range []string{
		"replay/comment/p95_ns", "replay/body/p95_ns", "replay/interface/p95_ns",
	} {
		if entry.Metrics[name] <= 0 {
			t.Errorf("entry metric %s = %v, want > 0", name, entry.Metrics[name])
		}
	}
	if entry.Info["replay/over_invalidation_x"] <= 0 {
		t.Errorf("over-invalidation ratio missing from entry info")
	}
}
