// Command yallabench is the regression observatory: it runs the
// edit-stream replay and folds its per-class latencies and virtual
// compile costs into a versioned trajectory file. Successive runs build
// a performance history; -compare diffs the current run against a
// committed baseline benchstat-style and exits nonzero when a gated
// metric (p95 latencies by default) regresses beyond the tolerance,
// which is how CI catches performance regressions before merge. Wall
// time end to end is e2ebench's job, and stage micro-benchmarks are
// `go test -bench`.
//
// Usage:
//
//	yallabench [-subjects a,b,...] [-iters N]
//	           [-replay-out results/bench_replay.json]
//	           [-trajectory results/bench_trajectory.json]
//	           [-label text]
//	           [-compare results/bench_baseline.json]
//	           [-tolerance 0.10] [-gate p95]
//	           [-save-baseline path]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/replay"
)

func main() {
	var (
		subjects  = flag.String("subjects", "", "comma-separated subjects (default: whole corpus)")
		iters     = flag.Int("iters", 5, "replay edits per class per subject")
		replayOut = flag.String("replay-out", "results/bench_replay.json", "replay report path")
		trajPath  = flag.String("trajectory", "results/bench_trajectory.json", "trajectory file to append to")
		label     = flag.String("label", "", "label for this trajectory entry")
		comparePt = flag.String("compare", "", "baseline to compare against (entry or trajectory file); exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.10, "allowed relative growth on gated metrics")
		gate      = flag.String("gate", "p95", "substring selecting gated metrics")
		saveBase  = flag.String("save-baseline", "", "also write this run as a standalone baseline file")
		verbose   = flag.Bool("v", false, "debug-level progress logs")
	)
	flag.Parse()
	log := obs.StderrLogger(*verbose).With("run", obs.NewRunID())

	var subjectList []string
	if *subjects != "" {
		subjectList = strings.Split(*subjects, ",")
	}
	entry, err := measure(measureConfig{
		Subjects:    subjectList,
		ReplayIters: *iters,
		ReplayOut:   *replayOut,
		Log:         log,
	})
	if err != nil {
		fail("%v", err)
	}
	entry.Time = time.Now().UTC().Format(time.RFC3339)
	entry.Label = *label

	tr, err := bench.Load(*trajPath)
	if err != nil {
		fail("%v", err)
	}
	if err := tr.Append(*trajPath, *entry); err != nil {
		fail("append trajectory: %v", err)
	}
	log.Info("trajectory appended", "path", *trajPath, "seq", len(tr.Entries), "metrics", len(entry.Metrics))
	if *saveBase != "" {
		if err := bench.SaveEntry(*saveBase, *entry); err != nil {
			fail("save baseline: %v", err)
		}
		log.Info("baseline written", "path", *saveBase)
	}

	if *comparePt == "" {
		return
	}
	base, err := bench.LoadBaseline(*comparePt)
	if err != nil {
		fail("load baseline: %v", err)
	}
	res := bench.Compare(base, *entry, bench.Opts{Tolerance: *tolerance, Gate: *gate})
	fmt.Print(res.Table())
	if !res.OK() {
		fail("regression on %s (tolerance +%.0f%%)",
			strings.Join(res.Regressions(), ", "), *tolerance*100)
	}
	fmt.Printf("no regressions: %d gated metrics within +%.0f%% of %s\n",
		gatedCount(res), *tolerance*100, *comparePt)
}

func gatedCount(res *bench.Result) int {
	n := 0
	for _, d := range res.Deltas {
		if d.Gated {
			n++
		}
	}
	return n
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "yallabench: "+format+"\n", args...)
	os.Exit(1)
}

// measureConfig parameterizes one observatory run; tests shrink it and
// inject the synthetic delay.
type measureConfig struct {
	Subjects    []string
	ReplayIters int
	ReplayOut   string
	// InjectDelay is threaded to the replay harness (test-only).
	InjectDelay time.Duration
	Log         interface {
		Info(msg string, args ...any)
	}
}

// measure runs the replay and flattens its report into one bench.Entry.
func measure(cfg measureConfig) (*bench.Entry, error) {
	entry := &bench.Entry{Metrics: map[string]float64{}, Info: map[string]float64{}}

	rep, err := replay.Run(replay.Config{
		Subjects:    cfg.Subjects,
		Iters:       cfg.ReplayIters,
		InjectDelay: cfg.InjectDelay,
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %v", err)
	}
	if cfg.ReplayOut != "" {
		blob, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(filepath.Dir(cfg.ReplayOut), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(cfg.ReplayOut, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	for _, cs := range rep.Classes {
		prefix := "replay/" + cs.Class + "/"
		entry.Metrics[prefix+"p50_ns"] = float64(cs.Latency.P50Ns)
		entry.Metrics[prefix+"p95_ns"] = float64(cs.Latency.P95Ns)
		entry.Metrics[prefix+"p99_ns"] = float64(cs.Latency.P99Ns)
		entry.Metrics[prefix+"mean_ns"] = float64(cs.Latency.MeanNs)
		// Virtual-clock costs are byte-identical across machines; CI
		// gates on these (-gate virtual) so a baseline committed from
		// one machine is exact on another.
		entry.Metrics[prefix+"virtual_p95_ms"] = cs.VirtualP95Ms
		entry.Metrics[prefix+"virtual_mean_ms"] = cs.VirtualMeanMs
	}
	// The virtual over-invalidation ratio is gated too: if it grows, a
	// header edit got more expensive relative to a body edit — early
	// cutoff regressed. (The mixed class's gated virtual costs catch the
	// complementary failure, a benign header edit that stops being free.)
	entry.Metrics["replay/over_invalidation_virtual_x"] = rep.OverInvalidationVirtualX
	entry.Info["replay/over_invalidation_x"] = rep.OverInvalidationX
	entry.Info["replay/early_cutoff_virtual_x"] = rep.EarlyCutoffVirtualX
	if cfg.Log != nil {
		cfg.Log.Info("replay done", "subjects", rep.Subjects,
			"over_invalidation_x", fmt.Sprintf("%.1f", rep.OverInvalidationX),
			"early_cutoff_virtual_x", fmt.Sprintf("%.1f", rep.EarlyCutoffVirtualX))
	}
	return entry, nil
}
