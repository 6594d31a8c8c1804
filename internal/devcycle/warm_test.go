package devcycle

import (
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/frontend"
	"repro/internal/pch"
)

// primed holds one build cache per mode that a cold Prepare of archiver
// has filled, shared by every run of the warm benchmark.
var primed sync.Map // Mode -> *buildcache.Cache

// warmPrepare returns a benchmark of one warm set-up of archiver under
// mode: a Prepare plus a Cycle against a primed cache, which is what a
// repeated set-up costs when nothing changed.
func warmPrepare(mode Mode) func(*testing.B) {
	return func(b *testing.B) {
		s := corpus.ByName("archiver")
		c, _ := primed.LoadOrStore(mode, buildcache.New())
		cfg := Config{Cache: c.(*buildcache.Cache)}
		run := func() {
			st, err := PrepareWith(s, mode, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Cycle(); err != nil {
				b.Fatal(err)
			}
		}
		run() // the first call primes the cache; later ones find it warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// BenchmarkWarmPrepare times a warm Prepare plus Cycle of archiver in
// Yalla and PCH mode. A warm Prepare parses nothing and rebuilds nothing
// it derives from a cached unit: the symbol table, the user views, the
// PCH size and the per-file token runs all ride on the cached units.
func BenchmarkWarmPrepare(b *testing.B) {
	b.Run("yalla", warmPrepare(Yalla))
	b.Run("pch", warmPrepare(PCH))
}

// warmPrepareAllocsBudget is the committed allocation ceiling for one
// warm Prepare plus Cycle of archiver per mode. Both land at a few
// hundredths of what rebuilding the symbol table, the user views and
// the PCH coverage scans on every Prepare allocates (about 103 000 and
// 2 300 allocs/op), so a regression that derives any of them again per
// Prepare blows through the budget.
var warmPrepareAllocsBudget = map[Mode]int64{Yalla: 4000, PCH: 300}

func TestWarmPrepareAllocsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, mode := range []Mode{Yalla, PCH} {
		res := testing.Benchmark(warmPrepare(mode))
		if allocs, budget := res.AllocsPerOp(), warmPrepareAllocsBudget[mode]; allocs > budget {
			t.Errorf("warm %s Prepare+Cycle of archiver allocates %d allocs/op, budget is %d: a warm Prepare derives something again",
				mode, allocs, budget)
		}
	}
}

// TestPCHCoverageMatchesTokenLoop checks the PCH statistics a compile
// reads from memoized products (the unit's per-file token runs, the
// header unit's serialized size) against the per-token loop and the
// serialized blob, for every subject in PCH and Yalla+PCH mode, on a
// cold and a warm Prepare.
func TestPCHCoverageMatchesTokenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	if raceEnabled {
		// One goroutine: the race detector finds nothing here and
		// multiplies the sweep's 20 s several times over.
		// TestConcurrentPCHCompilesShareMemos races these memos.
		t.Skip("single-goroutine corpus sweep under -race")
	}
	for _, s := range corpus.All() {
		for _, mode := range []Mode{PCH, YallaPCH} {
			cfg := Config{Cache: buildcache.New()}
			for _, run := range []string{"cold", "warm"} {
				st, err := PrepareWith(s, mode, cfg)
				if err != nil {
					t.Fatalf("%s %s %s Prepare: %v", s.Name, mode, run, err)
				}
				cc := st.compiler
				unit, err := frontend.Parse(frontend.Config{FS: st.FS, SearchPaths: cc.SearchPaths, Defines: cc.Defines, Cache: cfg.Cache}, st.mainFile, nil)
				if err != nil {
					t.Fatal(err)
				}
				user := 0
				for _, tok := range unit.Result.Tokens {
					if !cc.PCH.Covers(tok.Pos.File.Name()) {
						user++
					}
				}
				got := st.Stats()
				if want := len(pch.Serialize(cc.PCH.Tokens)); got.UserTokens != user || got.PCHBlobBytes != want {
					t.Errorf("%s %s %s: UserTokens %d, PCHBlobBytes %d; the token loop gives %d and the blob is %d bytes",
						s.Name, mode, run, got.UserTokens, got.PCHBlobBytes, user, want)
				}
			}
		}
	}
}
