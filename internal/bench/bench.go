// Package bench is the regression observatory's data model: versioned
// benchmark trajectories and benchstat-style comparisons. Every
// yallabench run flattens its replay report (per-class wall latencies
// and virtual costs) into one Entry — a map of metric names to float64
// values — appended to results/bench_trajectory.json. Comparing two
// entries yields a delta table; metrics matching the gate substring
// (default "p95") that regress beyond the tolerance fail the run, which
// is what CI hangs its exit code on.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Schema versions Entry's layout; bump when metric semantics change so
// old trajectory files aren't silently misread.
const Schema = 1

// Entry is one benchmark run flattened to named scalars. Metric names
// are slash-separated paths ("replay/comment/p95_ns",
// "frontend/lex/ns_per_op"); every recorded metric is lower-is-better
// so comparisons need no per-metric direction table.
type Entry struct {
	Schema int    `json:"schema"`
	Seq    int    `json:"seq"`
	Time   string `json:"time"`
	Label  string `json:"label,omitempty"`
	// Info carries higher-is-better or informational values (speedups,
	// ratios, counts) that are reported but never gated.
	Info    map[string]float64 `json:"info,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// Trajectory is the append-only run history.
type Trajectory struct {
	Entries []Entry `json:"entries"`
}

// Load reads a trajectory file; a missing file is an empty trajectory.
func Load(path string) (*Trajectory, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Trajectory{}, nil
	}
	if err != nil {
		return nil, err
	}
	var tr Trajectory
	if err := json.Unmarshal(blob, &tr); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", path, err)
	}
	return &tr, nil
}

// Append adds an entry (stamping Schema and Seq) and writes the file.
func (tr *Trajectory) Append(path string, e Entry) error {
	e.Schema = Schema
	e.Seq = len(tr.Entries) + 1
	tr.Entries = append(tr.Entries, e)
	blob, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Last returns the most recent entry, or false.
func (tr *Trajectory) Last() (Entry, bool) {
	if len(tr.Entries) == 0 {
		return Entry{}, false
	}
	return tr.Entries[len(tr.Entries)-1], true
}

// LoadBaseline reads a baseline for comparison: either a single Entry
// file or a Trajectory file (the last entry is the baseline then).
func LoadBaseline(path string) (Entry, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, err
	}
	var tr Trajectory
	if err := json.Unmarshal(blob, &tr); err == nil && len(tr.Entries) > 0 {
		return tr.Entries[len(tr.Entries)-1], nil
	}
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil || len(e.Metrics) == 0 {
		return Entry{}, fmt.Errorf("bench: %s is neither a trajectory nor an entry with metrics", path)
	}
	return e, nil
}

// SaveEntry writes a single entry as a standalone baseline file.
func SaveEntry(path string, e Entry) error {
	e.Schema = Schema
	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Opts configures a comparison.
type Opts struct {
	// Tolerance is the allowed relative growth on gated metrics before
	// the comparison counts a regression; <= 0 means 0.10 (+10%).
	Tolerance float64
	// Gate selects which metrics can fail the run: those whose name
	// contains this substring. Empty means "p95".
	Gate string
}

func (o *Opts) fill() {
	if o.Tolerance <= 0 {
		o.Tolerance = 0.10
	}
	if o.Gate == "" {
		o.Gate = "p95"
	}
}

// Delta is one metric's old→new movement.
type Delta struct {
	Metric string  `json:"metric"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"cur"`
	// Pct is the relative change in percent; +12.3 means 12.3% slower
	// (metrics are lower-is-better).
	Pct float64 `json:"pct"`
	// Gated marks metrics the gate substring selects.
	Gated bool `json:"gated"`
	// Regressed marks gated metrics beyond tolerance.
	Regressed bool `json:"regressed"`
}

// Result is a full comparison.
type Result struct {
	Deltas    []Delta
	Tolerance float64
	Gate      string
}

// Regressions lists the metrics that failed the gate.
func (r *Result) Regressions() []string {
	var out []string
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d.Metric)
		}
	}
	return out
}

// OK reports whether the comparison passed the gate.
func (r *Result) OK() bool { return len(r.Regressions()) == 0 }

// Compare diffs cur against base. Metrics present on only one side are
// skipped (a new benchmark is not a regression); gated metrics whose
// relative growth exceeds the tolerance regress.
func Compare(base, cur Entry, opts Opts) *Result {
	opts.fill()
	res := &Result{Tolerance: opts.Tolerance, Gate: opts.Gate}
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		if _, ok := base.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, c := base.Metrics[name], cur.Metrics[name]
		d := Delta{Metric: name, Base: b, Cur: c, Gated: strings.Contains(name, opts.Gate)}
		if b != 0 {
			d.Pct = (c - b) / b * 100
		}
		d.Regressed = d.Gated && b > 0 && c > b*(1+opts.Tolerance)
		res.Deltas = append(res.Deltas, d)
	}
	return res
}

// Table renders the comparison benchstat-style: one row per metric,
// old/new values, the delta, and a verdict on gated metrics.
func (r *Result) Table() string {
	var b strings.Builder
	name := "metric"
	width := len(name)
	for _, d := range r.Deltas {
		if len(d.Metric) > width {
			width = len(d.Metric)
		}
	}
	fmt.Fprintf(&b, "%-*s  %12s  %12s  %8s  %s\n", width, name, "old", "new", "delta", "")
	for _, d := range r.Deltas {
		verdict := ""
		switch {
		case d.Regressed:
			verdict = fmt.Sprintf("REGRESSION (> +%.0f%%)", r.Tolerance*100)
		case d.Gated:
			verdict = "ok"
		}
		fmt.Fprintf(&b, "%-*s  %12s  %12s  %+7.1f%%  %s\n",
			width, d.Metric, formatValue(d.Metric, d.Base), formatValue(d.Metric, d.Cur), d.Pct, verdict)
	}
	return b.String()
}

// formatValue renders nanosecond metrics as humane durations and leaves
// everything else as a plain number.
func formatValue(name string, v float64) string {
	if strings.HasSuffix(name, "_ns") || strings.HasSuffix(name, "ns_per_op") {
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.2fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.2fµs", v/1e3)
		}
		return fmt.Sprintf("%.0fns", v)
	}
	return fmt.Sprintf("%.3g", v)
}
