package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/cpp/ast"
	"repro/internal/frontend"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// viewCase is one substitution input for the user-view exactness tests.
type viewCase struct {
	name, header   string
	paths, sources []string
	fs             *vfs.FS
	skipCheck      bool
	// o, when set, records the run (spans and parser.units).
	o *obs.Obs
}

// outcome runs Substitute on a copy of the case's tree and renders
// everything it decides: the gate's refusal with its diagnostics, or the
// report, the dependency manifest and every generated file. full makes
// the analysis and the gate walk whole units instead of user views.
func (c viewCase) outcome(t *testing.T, cache *buildcache.Cache, full bool) string {
	t.Helper()
	out, err := c.render(cache, full)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// render is outcome for callers off the test goroutine: it returns the
// failures outcome reports.
func (c viewCase) render(cache *buildcache.Cache, full bool) (string, error) {
	fs := c.fs.Clone()
	e, err := newEngine(Options{FS: fs, SearchPaths: c.paths, Sources: c.sources,
		Header: c.header, OutDir: "out/" + c.name, SkipCheck: c.skipCheck, Cache: cache, Obs: c.o})
	if err != nil {
		return "", err
	}
	e.fullUnits = full
	res, err := e.run()
	var b strings.Builder
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		var ge *GateError
		if errors.As(err, &ge) {
			js, _ := json.Marshal(ge.Diagnostics)
			fmt.Fprintf(&b, "gate %s %s\n", ge.Verdict, js)
		}
		return b.String(), nil
	}
	js, _ := json.Marshal(res.Report)
	fmt.Fprintf(&b, "report %s\nincludes %v\nabsent %v\n", js, res.Includes, res.AbsentDeps)
	paths := []string{res.LightweightPath, res.WrappersPath}
	for _, p := range res.ModifiedSources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		content, err := fs.Read(p)
		if err != nil {
			return "", fmt.Errorf("%s: generated %s: %v", c.name, p, err)
		}
		fmt.Fprintf(&b, "== %s\n%s\n", p, content)
	}
	return b.String(), nil
}

// TestUserViewExact proves the user views and the memos exact: over
// every corpus subject and generated programs (plain, with unsafe plants
// — checked gated and, so the analysis sees them too, ungated — and
// god-header shaped), an uncached run, a cold and a warm run on one
// cache, and a run walking the whole units yield the same gate
// diagnostics, report and generated files. The warm run and the
// whole-unit run find the symbol table (and the warm run the user
// views) memoized on the cached trees.
func TestUserViewExact(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus and fuzz sweep in -short mode")
	}
	var cases []viewCase
	for _, s := range corpus.All() {
		cases = append(cases, viewCase{name: s.Name, header: s.Header, paths: s.SearchPaths,
			sources: s.Sources, fs: s.FS})
	}
	for seed := int64(1); seed <= 70; seed++ {
		for _, cfg := range []fuzzgen.Config{
			{Seed: seed},
			{Seed: seed, Unsafe: true},
			{Seed: seed, GodHeader: 2 + int(seed%3)},
		} {
			p := fuzzgen.Generate(cfg)
			fs := vfs.New()
			for path, content := range p.Files {
				fs.Write(path, content)
			}
			c := viewCase{name: p.Name, header: p.Header, paths: p.SearchPaths,
				sources: []string{p.MainFile}, fs: fs}
			cases = append(cases, c)
			if p.Unsafe {
				c.skipCheck = true
				cases = append(cases, c)
			}
		}
	}
	refused := 0
	for _, c := range cases {
		// One cache per case for the cached runs: each unit is parsed
		// once and every cached run reads the same shared tree. The
		// first run is the reference; under -race, which multiplies the
		// cost of the uncached parse and finds nothing in it, the cold
		// cached run is.
		cache := buildcache.New()
		runs := []struct {
			name  string
			cache *buildcache.Cache
			full  bool
		}{{"uncached", nil, false}, {"cold user view", cache, false}, {"warm user view", cache, false}, {"whole unit", cache, true}}
		if raceEnabled {
			runs = runs[1:]
		}
		want := c.outcome(t, runs[0].cache, runs[0].full)
		for _, run := range runs[1:] {
			if got := c.outcome(t, run.cache, run.full); got != want {
				t.Errorf("%s (skipCheck=%v): %s run and %s run disagree\n%s:\n%s\n%s:\n%s",
					c.name, c.skipCheck, run.name, runs[0].name, run.name, got, runs[0].name, want)
			}
		}
		if strings.HasPrefix(want, "error:") {
			refused++
		}
	}
	if refused < 70 {
		t.Fatalf("only %d of %d cases were refused; the unsafe plants should all be", refused, len(cases))
	}
}

// macroFS is a project whose header macros supply a top-level function's
// head (so the FunctionDecl is positioned in the header and only its
// body in the source) and a KOKKOS_LAMBDA-style lambda introducer.
func macroFS() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/lib.hpp", `#pragma once
#define LIB_ENTRY(name) int name(int x)
#define LIB_LAMBDA [=]
namespace lib {
class Grid {
 public:
  int size() const;
};
Grid* make();
template <class F>
void each(int n, F f);
}
`)
	fs.Write("src/main.cpp", `#include "lib.hpp"
LIB_ENTRY(entry) { lib::Grid* g = lib::make(); return x + g->size(); }
int run(int n) {
  lib::each(n, LIB_LAMBDA (int i) { return i + n; });
  return entry(n);
}
`)
	return fs
}

// TestUserViewKeepsMacroSuppliedCode checks the hand-written cases the
// view must not drop: a function whose head a header macro supplies, and
// a lambda whose introducer comes from a header macro. Both walks must
// also agree on them, gated and ungated.
func TestUserViewKeepsMacroSuppliedCode(t *testing.T) {
	fs := macroFS()
	unit, err := frontend.Parse(frontend.Config{FS: fs, SearchPaths: []string{"lib", "src"}}, "src/main.cpp", nil)
	if err != nil {
		t.Fatal(err)
	}
	view := check.UserView(unit.Unit(nil), map[string]bool{"src/main.cpp": true})
	kept := map[string]bool{}
	for _, d := range view.Decls {
		fn, ok := d.(*ast.FunctionDecl)
		if !ok {
			t.Errorf("view kept library declaration %T at %v", d, d.Pos())
			continue
		}
		kept[fn.Name] = true
		switch fn.Name {
		case "entry":
			if fn.Pos().FileName() != "lib/lib.hpp" || fn.Body.Pos().FileName() != "src/main.cpp" {
				t.Errorf("entry: head at %v, body at %v; want header head, source body", fn.Pos(), fn.Body.Pos())
			}
		case "run":
			ast.Inspect(fn.Body, func(n ast.Node) {
				if lam, ok := n.(*ast.LambdaExpr); ok && lam.Pos().FileName() != "lib/lib.hpp" {
					t.Errorf("lambda at %v, want its introducer in the header", lam.Pos())
				}
			})
		}
	}
	if !kept["entry"] || !kept["run"] || len(view.Decls) != 2 {
		t.Errorf("view kept %v of %d declarations, want entry and run", kept, len(unit.Unit(nil).Decls))
	}

	for _, skip := range []bool{false, true} {
		c := viewCase{name: "macros", header: "lib.hpp", paths: []string{"lib", "src"},
			sources: []string{"src/main.cpp"}, fs: fs, skipCheck: skip}
		if v, f := c.outcome(t, nil, false), c.outcome(t, nil, true); v != f {
			t.Errorf("skipCheck=%v: user view and whole unit disagree\nview:\n%s\nfull:\n%s", skip, v, f)
		}
	}
}
