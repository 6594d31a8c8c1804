package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestMemoSourceSets runs the two-source subject 02 on one cache with
// the source sets {main, functor}, {main} and {main, functor} again. The
// main file's tree carries one multi-source table slot and one user-view
// slot, which the changing source sets replace; each run must equal its
// uncached run.
func TestMemoSourceSets(t *testing.T) {
	s := corpus.ByName("02")
	cache := buildcache.New()
	uncached := map[string]string{}
	for i, sources := range [][]string{s.Sources, {s.MainFile}, s.Sources} {
		c := viewCase{name: s.Name, header: s.Header, paths: s.SearchPaths, sources: sources, fs: s.FS}
		got := c.outcome(t, cache, false)
		key := strings.Join(sources, " ")
		if _, ok := uncached[key]; !ok {
			uncached[key] = c.outcome(t, nil, false)
		}
		if got != uncached[key] {
			t.Errorf("run %d over %v: cached and uncached runs disagree\ncached:\n%s\nuncached:\n%s", i, sources, got, uncached[key])
		}
	}
}

// twoSources is a project with two sources that do not include each
// other.
func twoSources() viewCase {
	fs := vfs.New()
	fs.Write("lib/big.hpp", `#pragma once
namespace lib { class A { public: int f() const; }; class B { public: int g() const; }; }
`)
	fs.Write("one.cpp", "#include <big.hpp>\nint use1(lib::A& a) { return a.f(); }\n")
	fs.Write("two.cpp", "#include <big.hpp>\nint use2(lib::B& b) { return b.g(); }\n")
	return viewCase{name: "two", header: "big.hpp", paths: []string{"lib", "."},
		sources: []string{"one.cpp", "two.cpp"}, fs: fs}
}

// TestMemoRebuildsOnSecondSourceEdit substitutes two sources that do
// not include each other, then edits only the second. The first
// source's tree stays cached, so its multi-source table slot must notice
// the second tree changed and rebuild the table over both (sema.units
// counts two trees), and the output must equal a cold run.
func TestMemoRebuildsOnSecondSourceEdit(t *testing.T) {
	cold := twoSources()
	reg := obs.NewRegistry()
	tables := reg.Counter("sema.units")
	cached := cold
	cached.o = obs.New(nil, reg)
	cache := buildcache.New()
	for _, step := range []struct {
		name, two string
		tables    uint64
	}{
		{"first run", "", 2},
		{"unchanged", "", 0},
		{"second source edited", "#include <big.hpp>\nint use2(lib::B& b) { return b.g() + 1; }\nint use3(lib::A& a) { return a.f(); }\n", 2},
	} {
		if step.two != "" {
			cold.fs.Write("two.cpp", step.two)
		}
		before := tables.Value()
		got := cached.outcome(t, cache, false)
		if n := tables.Value() - before; n != step.tables {
			t.Errorf("%s: built tables over %d trees, want %d", step.name, n, step.tables)
		}
		if want := cold.outcome(t, nil, false); got != want {
			t.Errorf("%s: cached and cold runs disagree\ncached:\n%s\ncold:\n%s", step.name, got, want)
		}
	}
}

// TestMemoConcurrentSubstitutes runs Substitutes of one subject, and of
// a two-source project, at once on a shared cache, half of them walking
// whole units: they race to build the memoized tables and user views of
// the shared trees, and every result must equal the uncached run. CI
// repeats it under -race.
func TestMemoConcurrentSubstitutes(t *testing.T) {
	s := corpus.ByName("condense")
	for _, c := range []viewCase{
		{name: s.Name, header: s.Header, paths: s.SearchPaths, sources: s.Sources, fs: s.FS},
		twoSources(),
	} {
		want := c.outcome(t, nil, false)
		cache := buildcache.New()
		got := make([]string, 4)
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = c.render(cache, i%2 == 1)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", c.name, i, errs[i])
			}
			if got[i] != want {
				t.Errorf("%s run %d (whole units %v) disagrees with the uncached run\ngot:\n%s\nwant:\n%s",
					c.name, i, i%2 == 1, got[i], want)
			}
		}
	}
}
