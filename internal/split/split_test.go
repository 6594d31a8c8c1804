package split_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/difftest"
	"repro/internal/iwyu"
	"repro/internal/obs"
	"repro/internal/split"
	"repro/internal/vfs"
)

// synthTree builds a small corpus with a god header holding two
// weakly-coupled declaration clusters and one consumer per cluster.
func synthTree() *vfs.FS {
	fs := vfs.New()
	fs.Write("lib/suba.hpp", "struct AlphaBase { int k; };\n")
	fs.Write("lib/subb.hpp", "struct BetaBase { int k; };\n")
	fs.Write("lib/filler1.hpp", "struct Filler1 { int f; };\n")
	fs.Write("lib/filler2.hpp", "struct Filler2 { int f; };\n")
	fs.Write("lib/god.hpp", `#ifndef GOD_HPP
#define GOD_HPP
#include "suba.hpp"
#include "subb.hpp"
#include "filler1.hpp"
#include "filler2.hpp"
namespace gx {
struct Alpha { AlphaBase base; };
inline int alpha_fn(int v) { return v + 1; }
struct Beta { BetaBase base; };
inline int beta_fn(int v) { return v + 2; }
}
#endif
`)
	fs.Write("src/usea.hpp", `#include <god.hpp>
inline int use_alpha() {
  gx::Alpha a;
  return gx::alpha_fn(40);
}
`)
	fs.Write("src/useb.hpp", `#include <god.hpp>
inline int use_beta() {
  gx::Beta b;
  return gx::beta_fn(50);
}
`)
	fs.Write("src/main.cpp", `#include "usea.hpp"
#include "useb.hpp"
int main() {
  return use_alpha() + use_beta();
}
`)
	return fs
}

func synthOptions(fs *vfs.FS) split.Options {
	return split.Options{
		FS:          fs,
		SearchPaths: []string{"lib", "src"},
		Sources:     []string{"src/main.cpp", "src/usea.hpp", "src/useb.hpp"},
		Header:      "god.hpp",
		MaxParts:    4,
		Jobs:        2,
	}
}

func TestDecomposeSynthetic(t *testing.T) {
	fs := synthTree()
	res, err := split.Decompose(synthOptions(fs))
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if len(res.Parts) != 2 {
		t.Fatalf("parts = %d, want 2: %+v", len(res.Parts), res.Parts)
	}
	// Parts order by canonical name: the alpha cluster ("func
	// gx::alpha_fn") sorts before the beta cluster.
	if got := res.Parts[0].Decls; len(got) != 2 || got[0] != "func gx::alpha_fn" || got[1] != "struct gx::Alpha" {
		t.Errorf("part 0 decls = %v", got)
	}
	if got := res.Parts[1].Decls; len(got) != 2 || got[0] != "func gx::beta_fn" || got[1] != "struct gx::Beta" {
		t.Errorf("part 1 decls = %v", got)
	}
	// Each part claims exactly the sub-include its decls depend on; the
	// fillers stay umbrella-only.
	if got := res.Parts[0].Includes; len(got) != 1 || !strings.Contains(got[0], "suba.hpp") {
		t.Errorf("part 0 includes = %v", got)
	}
	if got := res.Parts[1].Includes; len(got) != 1 || !strings.Contains(got[0], "subb.hpp") {
		t.Errorf("part 1 includes = %v", got)
	}
	// Consumers switch to exactly the parts they use, keeping their
	// angled spelling.
	if got := res.Consumers["src/usea.hpp"]; len(got) != 1 || got[0] != "god.part0.hpp" {
		t.Errorf("usea consumers = %v", got)
	}
	if got := res.Consumers["src/useb.hpp"]; len(got) != 1 || got[0] != "god.part1.hpp" {
		t.Errorf("useb consumers = %v", got)
	}
	usea, _ := fs.Read("src/usea.hpp")
	if !strings.Contains(usea, "#include <god.part0.hpp>") || strings.Contains(usea, "#include <god.hpp>") {
		t.Errorf("usea.hpp not rewritten:\n%s", usea)
	}
	// The part files exist next to the header and re-wrap the moved
	// declarations in their namespace.
	p0, err := fs.Read("lib/god.part0.hpp")
	if err != nil {
		t.Fatalf("part 0 missing: %v", err)
	}
	for _, want := range []string{"namespace gx {", "struct Alpha", "alpha_fn", "} // namespace gx"} {
		if !strings.Contains(p0, want) {
			t.Errorf("part 0 lacks %q:\n%s", want, p0)
		}
	}
	if strings.Contains(p0, "Beta") {
		t.Errorf("part 0 leaked beta decls:\n%s", p0)
	}
	// The umbrella still provides everything (compatibility for
	// unrewritten consumers): it now includes every part.
	umb, _ := fs.Read("lib/god.hpp")
	for _, want := range []string{`#include "god.part0.hpp"`, `#include "god.part1.hpp"`, `#include "filler1.hpp"`} {
		if !strings.Contains(umb, want) {
			t.Errorf("umbrella lacks %q:\n%s", want, umb)
		}
	}
	if strings.Contains(umb, "struct Alpha") {
		t.Errorf("umbrella still holds decls:\n%s", umb)
	}
	if res.ComposedTarget == "" {
		t.Error("no composed target")
	}
	if res.Digest == "" || res.PartitionJSON == "" {
		t.Error("missing partition digest/JSON")
	}
}

// TestDecomposeExecEquivalent interprets the synthetic program before
// and after decomposition and demands identical observable behavior.
func TestDecomposeExecEquivalent(t *testing.T) {
	orig := synthTree()
	fs := orig.Clone()
	if _, err := split.Decompose(synthOptions(fs)); err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	paths := []string{"lib", "src"}
	files := []string{"src/main.cpp"}
	a, err := difftest.Interpret(orig, paths, files, 0)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	b, err := difftest.Interpret(fs, paths, files, 0)
	if err != nil {
		t.Fatalf("decomposed: %v", err)
	}
	if a.Ret != b.Ret || len(a.Events) != len(b.Events) {
		t.Fatalf("behavior diverged: ret %d vs %d, %d vs %d events", a.Ret, b.Ret, len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d: %q vs %q", i, a.Events[i], b.Events[i])
		}
	}
}

// TestNotDecomposable checks the refusal paths leave the tree untouched.
func TestNotDecomposable(t *testing.T) {
	cases := []struct {
		name, header string
	}{
		{"conditional", "#ifndef G\n#define G\n#ifdef FAST\nstruct A { int x; };\n#endif\nstruct B { int y; };\n#endif\n"},
		{"mid-file define", "#define MODE 3\nstruct A { int x; };\nstruct B { int y; };\n"},
		{"single decl", "struct A { int x; };\n"},
		{"include below decl", "struct A { int x; };\n#include \"suba.hpp\"\nstruct B { int y; };\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := synthTree()
			fs.Write("lib/god.hpp", tc.header)
			before, _ := fs.ContentHash("lib/god.hpp")
			_, err := split.Decompose(synthOptions(fs))
			if !errors.Is(err, split.ErrNotDecomposable) {
				t.Fatalf("err = %v, want ErrNotDecomposable", err)
			}
			if after, _ := fs.ContentHash("lib/god.hpp"); after != before {
				t.Error("refused decomposition mutated the tree")
			}
			if fs.Exists("lib/god.part0.hpp") {
				t.Error("refused decomposition left a part file behind")
			}
		})
	}
}

// TestDecomposeCorpus runs every subject end-to-end: decompose, then
// exec-compare original vs decomposed under the reference interpreter,
// re-run yallacheck against the composed target with no new findings,
// and push the decomposed main TU through iwyu.
func TestDecomposeCorpus(t *testing.T) {
	for _, s := range corpus.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			fs := s.FS.Clone()
			res, err := split.Decompose(split.Options{
				FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
				Header: s.Header, MaxParts: 4, Jobs: 4,
			})
			if err != nil {
				t.Fatalf("Decompose: %v", err)
			}
			if len(res.Graph) == 0 {
				t.Error("no include-graph metrics recorded")
			}

			// Exec equivalence (the interpreter covers a subset; both
			// variants failing identically is an abstain, a one-sided
			// failure is a bug).
			a, errA := difftest.Interpret(s.FS.Overlay(), s.SearchPaths, s.Sources, 0)
			b, errB := difftest.Interpret(fs, s.SearchPaths, s.Sources, 0)
			switch {
			case errA == nil && errB != nil:
				t.Fatalf("decomposed program stopped interpreting: %v", errB)
			case errA != nil && errB == nil:
				t.Fatalf("original uninterpretable (%v) but decomposed ran", errA)
			case errA == nil:
				if a.Ret != b.Ret || len(a.Events) != len(b.Events) {
					t.Fatalf("behavior diverged: ret %d vs %d, %d vs %d events",
						a.Ret, b.Ret, len(a.Events), len(b.Events))
				}
				for i := range a.Events {
					if a.Events[i] != b.Events[i] {
						t.Fatalf("event %d diverged: %q vs %q", i, a.Events[i], b.Events[i])
					}
				}
			}

			// yallacheck on the rewritten corpus (substituting the
			// composed target) must introduce no new findings over the
			// original substitution check.
			origCheck, err := check.Run(check.Options{
				FS: s.FS.Overlay(), SearchPaths: s.SearchPaths,
				Sources: s.Sources, Header: s.Header,
			})
			if err != nil {
				t.Fatalf("check original: %v", err)
			}
			if res.ComposedTarget == "" {
				t.Fatal("no composed target for a corpus subject")
			}
			decCheck, err := check.Run(check.Options{
				FS: fs.Overlay(), SearchPaths: s.SearchPaths,
				Sources: s.Sources, Header: res.ComposedTarget,
			})
			if err != nil {
				t.Fatalf("check decomposed: %v", err)
			}
			if len(decCheck.Diagnostics) > len(origCheck.Diagnostics) {
				t.Fatalf("decomposition introduced findings: %d -> %d (first: %v)",
					len(origCheck.Diagnostics), len(decCheck.Diagnostics), decCheck.Diagnostics[0])
			}

			// iwyu still flows over the rewritten tree.
			if _, err := iwyu.Analyze(iwyu.Options{
				FS: fs.Overlay(), SearchPaths: s.SearchPaths, Source: s.MainFile,
			}); err != nil {
				t.Fatalf("iwyu on decomposed tree: %v", err)
			}
		})
	}
}

// TestDecomposeTracedTwoRoots analyzes two TU roots at once with a live
// tracer. Each root's frontend spans must land on a lane of its own (a
// lane belongs to one goroutine; sharing the caller's is a data race
// under -race), sealed when the root is done.
func TestDecomposeTracedTwoRoots(t *testing.T) {
	fs := synthTree()
	fs.Write("src/other.cpp", "#include \"usea.hpp\"\nint other() { return use_alpha(); }\n")
	opts := synthOptions(fs)
	opts.Sources = append(opts.Sources, "src/other.cpp")
	tr := obs.NewTracer(nil)
	opts.Obs = obs.New(tr, nil)
	if _, err := split.Decompose(opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.ExportSealed(&buf); err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"preprocess", "parse"} {
		if got := strings.Count(buf.String(), `"name":"`+span+`"`); got != 2 {
			t.Errorf("%d %s spans on sealed per-root lanes, want 2", got, span)
		}
	}
}

// TestDecomposeFailedTUKeepsUmbrella shares a consumer header between a
// healthy TU and one that does not parse. The failed TU is never
// verified, so the consumer it reaches must keep including the god
// header even though the healthy TU needs none of its parts.
func TestDecomposeFailedTUKeepsUmbrella(t *testing.T) {
	fs := synthTree()
	common := "#include <god.hpp>\ninline int common_zero() { return 0; }\n"
	fs.Write("src/common.hpp", common)
	fs.Write("src/plain.cpp", "#include \"common.hpp\"\nint plain() { return common_zero(); }\n")
	fs.Write("src/bad.cpp", "#include \"common.hpp\"\nint bad() { return gx::alpha_fn(1) +; }\n")
	opts := synthOptions(fs)
	opts.Sources = append(opts.Sources, "src/common.hpp", "src/plain.cpp", "src/bad.cpp")
	res, err := split.Decompose(opts)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	if got, ok := res.Consumers["src/common.hpp"]; ok {
		t.Errorf("common.hpp rewritten to %v", got)
	}
	if got, _ := fs.Read("src/common.hpp"); got != common {
		t.Errorf("common.hpp changed:\n%s", got)
	}
}
