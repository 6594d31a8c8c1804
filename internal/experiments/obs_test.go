package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// chromeTrace mirrors the exported trace JSON for validation.
type chromeTrace struct {
	TraceEvents []struct {
		Ph   string         `json:"ph"`
		Name string         `json:"name"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestRunAllReturnsPartialResultsOnError checks the failure contract:
// the first error stops the fan-out, but subjects that completed before
// it keep their result slots (the failed and abandoned ones are nil), so
// the caller can report progress and flush recorded observability. At
// -j 1 no subject may start after the failure.
func TestRunAllReturnsPartialResultsOnError(t *testing.T) {
	good := corpus.ByName("condense")
	if good == nil {
		t.Fatal("subject condense missing from corpus")
	}
	bad := &corpus.Subject{Name: "broken-subject", Library: "none", FS: vfs.New(), MainFile: "absent.cpp"}

	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	out, err := RunAllWith(RunConfig{
		Jobs:     1,
		Subjects: []*corpus.Subject{good, bad, good},
		Obs:      o,
	})
	if err == nil {
		t.Fatal("expected an error from the unrunnable subject")
	}
	if len(out) != 3 {
		t.Fatalf("partial results length = %d, want 3", len(out))
	}
	if out[0] == nil {
		t.Error("subject completed before the failure lost its result")
	}
	if out[1] != nil {
		t.Error("failed subject has a non-nil result")
	}
	if out[2] != nil {
		t.Error("a subject queued behind the failure ran")
	}
	// The metrics recorded up to the failure must survive it.
	if got := reg.Snapshot().Counters["experiments.subjects"]; got != 1 {
		t.Errorf("experiments.subjects counter = %d, want 1", got)
	}
}

// TestObsRunTraceAndMetrics is the integration test for the tentpole: a
// traced, metered, cached -j 1 run must export a Chrome trace containing
// the full span hierarchy (worker lane, subject → mode → prepare/cycle →
// compile spans, and per subject × mode virtual phase lanes) plus a
// metrics snapshot whose buildcache counters equal the cache's own
// Stats() totals.
func TestObsRunTraceAndMetrics(t *testing.T) {
	s := corpus.ByName("condense")
	if s == nil {
		t.Fatal("subject condense missing from corpus")
	}

	tracer := obs.NewTracer(obs.NewVirtualClock(time.Millisecond))
	reg := obs.NewRegistry()
	o := obs.New(tracer, reg)
	bc := buildcache.New()
	bc.AttachMetrics(o)

	res, err := RunAllWith(RunConfig{Jobs: 1, Subjects: []*corpus.Subject{s}, Cache: bc, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] == nil {
		t.Fatalf("unexpected results: %+v", res)
	}

	var buf bytes.Buffer
	if err := tracer.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	type span struct{ ts, dur float64 }
	wallSpans := map[string][]span{} // name -> instances (wall pid only)
	virtualLanes := map[int]string{} // tid -> lane name
	virtualPhases := map[string][]string{}
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == obs.PidVirtual:
			virtualLanes[ev.Tid] = ev.Args["name"].(string)
		case ev.Ph == "X" && ev.Pid == obs.PidWall:
			wallSpans[ev.Name] = append(wallSpans[ev.Name], span{ev.TS, ev.Dur})
		case ev.Ph == "X" && ev.Pid == obs.PidVirtual:
			lane := virtualLanes[ev.Tid]
			virtualPhases[lane] = append(virtualPhases[lane], ev.Name)
		}
	}

	// Wall-clock hierarchy: one subject span, one mode span per mode,
	// each mode containing prepare and cycle, cycles containing compiles.
	if n := len(wallSpans["subject"]); n != 1 {
		t.Errorf("got %d subject spans, want 1", n)
	}
	if n := len(wallSpans["mode"]); n != len(Modes) {
		t.Errorf("got %d mode spans, want %d", n, len(Modes))
	}
	for _, name := range []string{"prepare", "cycle", "compile", "preprocess", "parse", "sema"} {
		if len(wallSpans[name]) == 0 {
			t.Errorf("no %q spans in trace", name)
		}
	}
	// Nesting: every mode span lies inside the subject span's interval,
	// and every cycle span inside some mode span (virtual clock ⇒ exact).
	subj := wallSpans["subject"][0]
	contains := func(outer, inner span) bool {
		return inner.ts >= outer.ts && inner.ts+inner.dur <= outer.ts+outer.dur
	}
	for _, m := range wallSpans["mode"] {
		if !contains(subj, m) {
			t.Errorf("mode span %+v not nested in subject %+v", m, subj)
		}
	}
	for _, c := range wallSpans["cycle"] {
		nested := false
		for _, m := range wallSpans["mode"] {
			if contains(m, c) {
				nested = true
			}
		}
		if !nested {
			t.Errorf("cycle span %+v not nested in any mode span", c)
		}
	}

	// Virtual lanes: one per subject × mode, each holding that mode's
	// positive phases in pipeline order.
	for _, mode := range Modes {
		lane := s.Name + "/" + mode.String()
		phases := virtualPhases[lane]
		if len(phases) == 0 {
			t.Errorf("virtual lane %q missing or empty", lane)
			continue
		}
		m := res[0].Modes[mode]
		want := 0
		for _, ms := range []float64{m.StartupMs, m.PreprocessMs, m.LexParseMs, m.SemaMs, m.PCHLoadMs, m.InstantiateMs, m.BackendMs} {
			if ms > 0 {
				want++
			}
		}
		if len(phases) != want {
			t.Errorf("lane %q has %d phase spans, want %d (%v)", lane, len(phases), want, phases)
		}
		if mode == devcycle.PCH && !contains2(phases, "PCHLoad") {
			t.Errorf("PCH lane %q missing PCHLoad phase: %v", lane, phases)
		}
	}

	// Metrics must agree with the cache's own totals.
	st := bc.Stats()
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"buildcache.token.hits":   st.TokenHits,
		"buildcache.token.misses": st.TokenMisses,
		"buildcache.tu.hits":      st.TUHits,
		"buildcache.tu.misses":    st.TUMisses,
		"buildcache.evictions":    st.Evictions,
		"buildcache.bytes_saved":  st.BytesSaved,
		"buildcache.tokens_saved": st.TokensSaved,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (cache stats: %+v)", name, got, want, st)
		}
	}
	if st.TokenHits == 0 {
		t.Error("cached run recorded no token hits; metric comparison is vacuous")
	}
	for _, name := range []string{"experiments.subjects", "preprocessor.files", "compilesim.compiles", "devcycle.cycles"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s not incremented", name)
		}
	}
	if snap.Histograms["compile.cost_ms"].Count == 0 {
		t.Error("compile.cost_ms histogram empty")
	}
}

func contains2(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestAttributionReport checks the cost-attribution artifact: rows for
// every subject × mode, per-mode totals that equal the row sums, and a
// cache section priced from TokensSaved.
func TestAttributionReport(t *testing.T) {
	s := corpus.ByName("condense")
	bc := buildcache.New()
	res, err := RunAllWith(RunConfig{Jobs: 1, Subjects: []*corpus.Subject{s}, Cache: bc})
	if err != nil {
		t.Fatal(err)
	}
	rep := Attribution(res, bc)
	if len(rep.Rows) != len(Modes) {
		t.Fatalf("got %d rows, want %d", len(rep.Rows), len(Modes))
	}
	for _, mt := range rep.Modes {
		var sum float64
		for _, row := range rep.Rows {
			if row.Mode == mt.Mode {
				sum += row.Phases.Total()
			}
		}
		if diff := sum - mt.TotalMs; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("mode %s total %v != row sum %v", mt.Mode, mt.TotalMs, sum)
		}
	}
	if rep.Cache == nil {
		t.Fatal("cache section missing")
	}
	if rep.Cache.TokensSaved > 0 && rep.Cache.FrontendSavedMs <= 0 {
		t.Errorf("tokens saved (%d) but no frontend ms attributed", rep.Cache.TokensSaved)
	}
	blob, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed AttributionReport
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("attribution JSON does not round-trip: %v", err)
	}
	if tbl := rep.Table(); !strings.Contains(tbl, "cache-adjusted total") {
		t.Errorf("Table() missing cache adjustment line:\n%s", tbl)
	}

	// Attribution over a partial result set skips the nil slots.
	partial := Attribution([]*SubjectResult{nil, res[0]}, nil)
	if len(partial.Rows) != len(Modes) {
		t.Errorf("partial attribution rows = %d, want %d", len(partial.Rows), len(Modes))
	}
	if partial.Cache != nil {
		t.Error("cache section present without a cache")
	}
}
