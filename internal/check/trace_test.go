package check

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// twoSourceOptions is a two-TU checker run over libFS.
func twoSourceOptions() Options {
	fs := libFS()
	fs.Write("src/a.cpp", `#include "bigheader.hpp"
int fa() { lib::Mat m; return m.cols_; }
`)
	fs.Write("src/b.cpp", `#include "bigheader.hpp"
int fb() { return LIB_MAGIC; }
`)
	return Options{FS: fs, SearchPaths: []string{"lib", "src"},
		Sources: []string{"src/a.cpp", "src/b.cpp"}, Header: "bigheader.hpp", Jobs: 2}
}

// spanLanes exports the tracer and maps each wall-clock span name to the
// set of lanes (tids) it was recorded on.
func spanLanes(t *testing.T, tr *obs.Tracer) map[string]map[int]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	lanes := map[string]map[int]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" || ev.Pid != obs.PidWall {
			continue
		}
		if lanes[ev.Name] == nil {
			lanes[ev.Name] = map[int]bool{}
		}
		lanes[ev.Name][ev.Tid] = true
	}
	return lanes
}

// TestCheckTUsTracedTwoTUs runs the passes over two TUs at once with a
// live tracer. Each TU's span must be recorded on a lane of its own: a
// lane belongs to one goroutine, and recording two workers' spans on
// the caller's lane is a data race (go test -race).
func TestCheckTUsTracedTwoTUs(t *testing.T) {
	tus, err := buildTUs(twoSourceOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(nil)
	root := obs.New(tr, obs.NewRegistry())
	sp := root.Start("caller")
	res, err := CheckTUs(tus, nil, 2, sp.Obs())
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors()) == 0 {
		t.Fatalf("fixture should draw findings:\n%s", diagDump(res))
	}
	lanes := spanLanes(t, tr)
	if got := len(lanes["check.tu"]); got != 2 {
		t.Fatalf("check.tu spans on %d lanes, want one lane per TU (2)", got)
	}
	for tid := range lanes["caller"] {
		if lanes["check.tu"][tid] {
			t.Fatalf("a check.tu span shares the caller's lane %d", tid)
		}
	}
}

// TestRunTracedTwoSources is the same property for the standalone
// checker, whose frontend also runs one worker per source.
func TestRunTracedTwoSources(t *testing.T) {
	opts := twoSourceOptions()
	tr := obs.NewTracer(nil)
	opts.Obs = obs.New(tr, obs.NewRegistry())
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	lanes := spanLanes(t, tr)
	for _, name := range []string{"check.tu", "preprocess", "parse"} {
		if got := len(lanes[name]); got != 2 {
			t.Errorf("%s spans on %d lanes, want one lane per source (2)", name, got)
		}
	}
	for tid := range lanes["check"] {
		if lanes["check.tu"][tid] || lanes["preprocess"][tid] {
			t.Fatalf("worker spans share the caller's lane %d", tid)
		}
	}
}
