package experiments

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/vfs"
)

// condense runs the cheapest subject across the three modes once per
// test binary for the rendering tests.
var condense = sync.OnceValues(func() (*SubjectResult, error) {
	s := corpus.ByName("condense")
	if s == nil {
		return nil, errors.New("condense missing")
	}
	return runSubject(s, nil, nil)
})

func condenseResult(t *testing.T) *SubjectResult {
	t.Helper()
	r, err := condense()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSubjectAllModes(t *testing.T) {
	r := condenseResult(t)
	if r.Name != "condense" || r.Library != "RapidJSON" {
		t.Fatalf("result = %+v", r)
	}
	for _, mode := range Modes {
		m, ok := r.Modes[mode]
		if !ok {
			t.Fatalf("mode %v missing", mode)
		}
		if m.CompileMs <= 0 || m.RunMs <= 0 || m.LinkMs <= 0 {
			t.Fatalf("%v times = %+v", mode, m)
		}
	}
	if r.YallaSpeedup() < 10 {
		t.Fatalf("condense yalla speedup = %.1f", r.YallaSpeedup())
	}
	if r.PCHSpeedup() < 1.0 || r.PCHSpeedup() > 2.0 {
		t.Fatalf("condense pch speedup = %.1f", r.PCHSpeedup())
	}
	if r.CycleSpeedup(devcycle.Yalla) <= 1 {
		t.Fatalf("cycle speedup = %.2f", r.CycleSpeedup(devcycle.Yalla))
	}
}

func TestTableRendering(t *testing.T) {
	results := []*SubjectResult{condenseResult(t)}
	t2 := Table2(results)
	if !strings.Contains(t2, "condense") || !strings.Contains(t2, "Yalla Speedup") {
		t.Fatalf("table2:\n%s", t2)
	}
	if !strings.Contains(t2, "average") {
		t.Fatalf("table2 missing average row:\n%s", t2)
	}
	t3 := Table3(results)
	if !strings.Contains(t3, "Default LOCs") || !strings.Contains(t3, "condense") {
		t.Fatalf("table3:\n%s", t3)
	}
}

func TestFigRendering(t *testing.T) {
	results := []*SubjectResult{condenseResult(t)}
	f7 := Fig7(results, "condense")
	if !strings.Contains(f7, "backend") || !strings.Contains(f7, "Default") {
		t.Fatalf("fig7:\n%s", f7)
	}
	f8 := Fig8(results)
	if !strings.Contains(f8, "condense") {
		t.Fatalf("fig8:\n%s", f8)
	}
	f10 := Fig10(results, "condense")
	if !strings.Contains(f10, "tool") {
		t.Fatalf("fig10:\n%s", f10)
	}
	if Fig10(results, "nope") == "" {
		t.Fatal("fig10 unknown subject should say so")
	}
}

func TestFig9SelfContained(t *testing.T) {
	out := Fig9()
	if !strings.Contains(out, "callq count: 0") || !strings.Contains(out, "callq count: 3") {
		t.Fatalf("fig9:\n%s", out)
	}
	if !strings.Contains(out, "_Z14paren_operator") {
		t.Fatalf("fig9 missing mangled call:\n%s", out)
	}
}

func TestCSVsAndTraces(t *testing.T) {
	results := []*SubjectResult{condenseResult(t)}
	csvs := CSVs(results)
	want := []string{
		"compilation_kokkos_normal.csv", "compilation_other_normal.csv",
		"compilation_other_pch.csv", "compilation_other_yalla.csv",
		"stats.csv",
	}
	for _, w := range want {
		if _, ok := csvs[w]; !ok {
			t.Errorf("missing CSV %s", w)
		}
	}
	if !strings.Contains(csvs["compilation_other_normal.csv"], "condense,") {
		t.Fatalf("csv content:\n%s", csvs["compilation_other_normal.csv"])
	}
	if !strings.HasPrefix(csvs["stats.csv"], "subject,default_loc") {
		t.Fatalf("stats header:\n%s", csvs["stats.csv"])
	}

	traces := Traces(results)
	tr, ok := traces["condense-yalla.json"]
	if !ok {
		t.Fatalf("missing trace; have %v", keys(traces))
	}
	if !strings.Contains(tr, `"traceEvents"`) || !strings.Contains(tr, `"Backend"`) {
		t.Fatalf("trace content:\n%s", tr)
	}
}

func TestSortByTableOrder(t *testing.T) {
	a := &SubjectResult{Name: "condense"}
	b := &SubjectResult{Name: "02"}
	rs := []*SubjectResult{a, b}
	SortByTableOrder(rs)
	if rs[0].Name != "02" {
		t.Fatalf("order = %v, %v", rs[0].Name, rs[1].Name)
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestParallelAndCachedRunsAreByteIdentical is the tentpole's safety
// property: neither the worker pool width nor the build cache may change
// a single byte of the paper's outputs. It renders Table 2, Table 3, and
// Figure 7 from (a) a sequential uncached run, (b) a sequential run into
// a fresh build cache, and (c) an 8-way parallel run served from that
// warm cache, resetting the subject-result memo in between so every
// variant genuinely re-simulates.
func TestParallelAndCachedRunsAreByteIdentical(t *testing.T) {
	subjects := []*corpus.Subject{
		corpus.ByName("condense"),
		corpus.ByName("drawing"),
		corpus.ByName("chat_server"),
	}
	for _, s := range subjects {
		if s == nil {
			t.Fatal("subject missing from corpus")
		}
	}
	render := func(res []*SubjectResult) string {
		return Table2(res) + "\n" + Table3(res) + "\n" + Fig7(res, "drawing")
	}
	run := func(jobs int, bc *buildcache.Cache) string {
		t.Helper()
		res, err := RunAllWith(RunConfig{Jobs: jobs, Subjects: subjects, Cache: bc})
		if err != nil {
			t.Fatal(err)
		}
		return render(res)
	}
	bc := buildcache.New()
	uncached := run(1, nil)
	coldCache := run(1, bc)
	warmParallel := run(8, bc)
	if uncached != coldCache {
		t.Errorf("build cache changed the rendered output:\n--- uncached ---\n%s\n--- cached ---\n%s", uncached, coldCache)
	}
	if uncached != warmParallel {
		t.Errorf("-j 8 warm run changed the rendered output:\n--- -j 1 ---\n%s\n--- -j 8 ---\n%s", uncached, warmParallel)
	}
	if st := bc.Stats(); st.TUHits == 0 || st.TokenHits == 0 {
		t.Errorf("warm run did not hit the cache: %+v", st)
	}
}

// TestRunAllWithStopsOnFirstError checks error propagation from the
// worker pool: a subject that cannot run fails the whole fan-out.
func TestRunAllWithStopsOnFirstError(t *testing.T) {
	bad := &corpus.Subject{Name: "broken-subject", Library: "none", FS: vfs.New(), MainFile: "absent.cpp"}
	_, err := RunAllWith(RunConfig{Jobs: 4, Subjects: []*corpus.Subject{bad}})
	if err == nil {
		t.Fatal("expected an error from the unrunnable subject")
	}
}
