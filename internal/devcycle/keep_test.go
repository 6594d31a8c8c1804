package devcycle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// keepSetup returns a warm Yalla setup of archiver over a fresh cache,
// its metrics registry, and the substituted source's path and content.
// Saves to that source take the daemon's keep path: a Cycle that
// rebuilds the one translation unit whose manifest the save broke.
func keepSetup(tb testing.TB) (*Setup, *obs.Registry, string) {
	tb.Helper()
	reg := obs.NewRegistry()
	st, err := PrepareWith(corpus.ByName("archiver"), Yalla, Config{Cache: buildcache.New(), Obs: obs.New(nil, reg)})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := st.FS.Read(st.mainFile)
	if err != nil {
		tb.Fatal(err)
	}
	return st, reg, src
}

// save writes the n-th save to the substituted source: the original plus
// one body or comment line, as the edit-stream benchmark's saves are.
func save(st *Setup, src string, n int, body bool) {
	if body {
		st.FS.Write(st.mainFile, fmt.Sprintf("%s\nint keep_body_%d = %d;\n", src, n, n))
	} else {
		st.FS.Write(st.mainFile, fmt.Sprintf("%s\n// keep comment %d\n", src, n))
	}
}

// TestKeepPathMatchesColdCompile takes a seeded stream of saves to the
// substituted source of a warm archiver setup. Each save resumes the
// unit from its preamble — one preamble hit, one file preprocessed —
// and its Cycle costs and unit statistics equal a cache-less compile of
// the same tree.
func TestKeepPathMatchesColdCompile(t *testing.T) {
	st, reg, src := keepSetup(t)
	hits, files := reg.Counter("frontend.preamble.hits"), reg.Counter("preprocessor.files")
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 12; n++ {
		save(st, src, n, rng.Intn(2) == 0)
		h0, f0 := hits.Value(), files.Value()
		got, err := st.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if dh, df := hits.Value()-h0, files.Value()-f0; dh != 1 || df != 1 {
			t.Errorf("save %d: %d preamble hits and %d files preprocessed, want 1 and 1", n, dh, df)
		}
		cold := *st.compiler
		cold.Cache, cold.Obs = nil, nil
		obj, err := cold.Compile(st.mainFile)
		if err != nil {
			t.Fatal(err)
		}
		want := Times{Compile: obj.Phases.Total(), Link: cold.Link(obj, st.wrapperObj), Run: st.runTime()}
		if got != want {
			t.Errorf("save %d: Cycle %+v, cache-less compile %+v", n, got, want)
		}
		if st.Stats() != obj.Stats {
			t.Errorf("save %d: unit stats %+v, cache-less %+v", n, st.Stats(), obj.Stats)
		}
	}
}

// BenchmarkKeepPathCycle times the daemon's keep path on archiver: a
// save to the substituted source, alternating body and comment lines,
// then the Cycle that rebuilds its translation unit.
func BenchmarkKeepPathCycle(b *testing.B) {
	st, _, src := keepSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		save(st, src, i, i%2 == 0)
		if _, err := st.Cycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// keepPathAllocsBudget is the committed allocation ceiling of one keep
// path save and Cycle of archiver. A save that re-preprocessed and
// re-parsed its unit's headers allocated about 36 900 allocs/op; one
// that resumes from the preamble allocates about 145, so a save that
// stops resuming blows through the budget.
const keepPathAllocsBudget = 300

func TestKeepPathAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	res := testing.Benchmark(BenchmarkKeepPathCycle)
	if allocs := res.AllocsPerOp(); allocs > keepPathAllocsBudget {
		t.Errorf("a keep-path save and Cycle of archiver allocates %d allocs/op, budget is %d: the save no longer resumes from its preamble",
			allocs, keepPathAllocsBudget)
	}
}
