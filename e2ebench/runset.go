package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the workloads and the metrics they report.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is how far, as a share of the first run-set's median, a
	// metric may get worse; end-to-end metrics only.
	Bound float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}

// runChild runs one workload run in a fresh process, this binary
// re-executed, so every run starts cold and reports its own peak RSS.
func runChild(args []string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("run %s: no report (%v)", strings.Join(args, " "), runErr)
	}
	if runErr != nil || !rep.Correct {
		return nil, fmt.Errorf("run %s: %d of %d operations failed (%v)",
			strings.Join(args, " "), rep.Failed, rep.Attempted, runErr)
	}
	return &rep, nil
}

// runSets makes sets run-sets of runs runs each with seeds seed,
// seed+1, ..., one process per run and one run at a time. For every
// end-to-end metric it prints each set's median, quartiles and spread
// (the interquartile distance as a share of the median) next to the
// metric's bound in BENCHMARK.json, and checks each later set's median
// against the first's. It fails when a metric other than setup_s
// spreads wider than its bound, or when a later set is worse than the
// first by more than the bound.
func runSets(w io.Writer, name string, seed int64, seconds float64, runs, sets int, extra ...string) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("a run-set needs at least 2 runs")
	}
	vals := make([]map[string][]float64, sets)
	for s := range vals {
		vals[s] = map[string][]float64{}
		for r := 0; r < runs; r++ {
			args := append([]string{"-workload", name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}, extra...)
			rep, err := runChild(args)
			if err != nil {
				return err
			}
			for m, v := range rep.Metrics {
				vals[s][m] = append(vals[s][m], v.Value)
			}
		}
	}
	var bad []string
	fmt.Fprintf(w, "%-16s %3s %12s %12s %12s %8s %7s\n", "metric", "set", "median", "q1", "q3", "spread", "bound")
	for _, e := range sp.EndToEnd {
		var first float64
		for s := range vals {
			sum, err := summarize(vals[s][e.Name])
			if err != nil {
				return fmt.Errorf("%s: %v", e.Name, err)
			}
			verdict := ""
			if e.Name != "setup_s" && sum.Spread > e.Bound {
				verdict = "SPREAD"
				bad = append(bad, fmt.Sprintf("%s spreads %.3f > %.3f in set %d", e.Name, sum.Spread, e.Bound, s+1))
			}
			if s == 0 {
				first = sum.Median
			} else if !agrees(first, sum.Median, e.Better, e.Bound) {
				verdict += " DISAGREE"
				bad = append(bad, fmt.Sprintf("%s set %d median %.4g is worse than set 1's %.4g by more than %.2f",
					e.Name, s+1, sum.Median, first, e.Bound))
			}
			fmt.Fprintf(w, "%-16s %3d %12.4f %12.4f %12.4f %8.4f %7.3f %s\n",
				e.Name, s+1, sum.Median, sum.Q1, sum.Q3, sum.Spread, e.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s: %s", name, strings.Join(bad, "; "))
	}
	return nil
}
