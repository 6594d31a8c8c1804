package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The tests below run the real workloads on shrunk configurations: one
// set-up and one or two measured rounds.

func shrunk(seed int64, rounds int) config {
	return config{Seed: seed, Seconds: 600, Golden: "../results", Setups: 1, Rounds: rounds}
}

func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	expect := func(t *testing.T, rep *report, want []specMetric) {
		t.Helper()
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Fatalf("run failed %d of %d operations: %v", rep.Failed, rep.Attempted, rep.problems)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
		}
		for _, w := range want {
			got, ok := rep.Metrics[w.Name]
			if !ok || got.Unit != w.Unit {
				t.Errorf("metric %s: got %+v (reported: %v), want unit %s", w.Name, got, ok, w.Unit)
			}
		}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			plain, err := runPlain(workloads[name], shrunk(1, 1))
			if err != nil {
				t.Fatal(err)
			}
			expect(t, plain, sp.EndToEnd)
			for _, m := range sp.EndToEnd {
				if v := plain.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v)
				}
			}
			traced, err := runTraced(workloads[name], shrunk(1, 1), filepath.Join(t.TempDir(), "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			expect(t, traced, sp.PerLayer)
			if v := traced.Metrics["obs.flight.evicted"].Value; v != 0 {
				t.Errorf("flight recorder evicted %v request lanes", v)
			}
		})
	}
}

// plantGolden copies the committed CSVs into a directory, with one
// matrix subject's stats row changed.
func plantGolden(t *testing.T) string {
	dir := t.TempDir()
	paths, err := filepath.Glob("../results/*.csv")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed CSVs: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(p) == "stats.csv" {
			planted := strings.Replace(string(blob), "\ncondense,", "\ncondense,1", 1)
			if planted == string(blob) {
				t.Fatal("stats.csv has no condense row")
			}
			blob = []byte(planted)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestPlantedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a matrix pass")
	}
	var out, errs bytes.Buffer
	code := run([]string{"-workload", "matrix-cold", "-seconds", "1", "-golden", plantGolden(t)}, &out, &errs)
	if code == 0 {
		t.Fatalf("exit code 0 with a wrong golden; stderr:\n%s", errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("no report line: %v\n%s", err, out.String())
	}
	if rep.Correct || rep.Failed == 0 || rep.Failed > rep.Attempted {
		t.Fatalf("report %+v: want incorrect with failed_frac > 0", rep)
	}
	if !strings.Contains(errs.String(), "condense") {
		t.Errorf("stderr does not name the planted subject:\n%s", errs.String())
	}
}

func TestEditStreamIsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a daemon")
	}
	virtual := func(seed int64) []float64 {
		m, err := editStream(shrunk(seed, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 {
			t.Fatalf("seed %d: %d failures: %v", seed, m.failed, m.problems)
		}
		return m.virtualMs
	}
	a, b := virtual(7), virtual(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 twice: virtual costs differ:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, virtual(8)) {
		t.Fatal("seeds 7 and 8 gave identical virtual costs")
	}
}

func TestKeepEditsRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a daemon")
	}
	m, err := editStream(shrunk(3, 1), newProbe())
	if err != nil {
		t.Fatal(err)
	}
	sourceEdits := 0
	for _, k := range roundMix {
		if k == editBody || k == editComment {
			sourceEdits++
		}
	}
	if misses := m.win.counters["buildcache.tu.misses"]; misses < uint64(sourceEdits) {
		t.Fatalf("%d translation-unit misses over a round with %d source edits: keep-path edits did not rebuild",
			misses, sourceEdits)
	}
	if len(m.ops) != len(roundMix)-1 || len(m.prepares) != 1 {
		t.Fatalf("%d keep-path edits and %d re-Prepares, want %d and 1", len(m.ops), len(m.prepares), len(roundMix)-1)
	}
}
