package core

import (
	"testing"

	"repro/internal/astmatch"
	"repro/internal/cpp/ast"
	"repro/internal/frontend"
	"repro/internal/vfs"
)

// parseKernel parses the pykokkos kernel TU through the frontend the
// engine uses.
func parseKernel(t *testing.T, fs *vfs.FS) *ast.TranslationUnit {
	t.Helper()
	unit, err := frontend.Parse(frontend.Config{FS: fs, SearchPaths: []string{"kokkos", "src"}}, "src/kernel.cpp", nil)
	if err != nil {
		t.Fatal(err)
	}
	return unit.AST
}

// TestAnalyzerAgreesWithASTMatchers independently re-derives key analysis
// facts with the astmatch combinator library (the clang-ASTMatchers
// analogue the paper's implementation is built on, §4.1) and cross-checks
// them against the engine's report — two implementations of the same
// queries must agree.
func TestAnalyzerAgreesWithASTMatchers(t *testing.T) {
	fs := pykokkosFS()
	res, err := Substitute(Options{
		FS:          fs,
		SearchPaths: []string{"kokkos", "src"},
		Sources:     []string{"src/kernel.cpp", "src/functor.hpp"},
		Header:      "Kokkos_Core.hpp",
		OutDir:      "out",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Re-parse the kernel TU the way the engine's frontend does.
	tu := parseKernel(t, fs)

	// Matcher query 1: lambdas inside the user's source files.
	lambdas := astmatch.Find(tu, astmatch.LambdaExpr(astmatch.IsExpansionInFile("src/kernel.cpp")))
	if len(lambdas) != res.Report.LambdasConverted {
		t.Errorf("matchers found %d lambdas, report says %d", len(lambdas), res.Report.LambdasConverted)
	}

	// Matcher query 2: calls to parallel_for in the source.
	pf := astmatch.Find(tu, astmatch.CallExpr(
		astmatch.IsExpansionInFile("src/kernel.cpp"),
		astmatch.Callee(astmatch.DeclRefExpr(astmatch.HasName("Kokkos::parallel_for"))),
	))
	if len(pf) != 1 {
		t.Errorf("parallel_for calls via matchers = %d, want 1", len(pf))
	}

	// Matcher query 3: the class definitions the header declares that the
	// source names directly — they must all be forward declared.
	for _, name := range []string{"View", "OpenMP", "LayoutRight", "HostThreadTeamMember"} {
		ms := astmatch.Find(tu, astmatch.CXXRecordDecl(
			astmatch.HasName(name),
			astmatch.IsExpansionInFile("kokkos/Kokkos_Core.hpp"),
		))
		msView := astmatch.Find(tu, astmatch.CXXRecordDecl(
			astmatch.HasName(name),
			astmatch.IsExpansionInFile("kokkos/Kokkos_View.hpp"),
		))
		if len(ms)+len(msView) == 0 {
			t.Errorf("matcher did not find header class %s", name)
		}
	}
	if res.Report.ForwardDeclaredClasses < 4 {
		t.Errorf("report fwd decls = %d", res.Report.ForwardDeclaredClasses)
	}

	// Matcher query 4: method calls on `m` (the member_t parameter).
	calls := astmatch.Find(tu, astmatch.CallExpr(
		astmatch.IsExpansionInFile("src/kernel.cpp"),
		astmatch.Callee(astmatch.MemberExpr(astmatch.HasName("league_rank"))),
	))
	if len(calls) != 1 {
		t.Errorf("league_rank member calls via matchers = %d, want 1", len(calls))
	}
}

// TestMatchersFindUsageNature mirrors §4.1's "nature" recording: count
// by-value vs pointer/reference class usages with matchers and compare to
// the pointerization count.
func TestMatchersFindUsageNature(t *testing.T) {
	fs := pykokkosFS()
	res, err := Substitute(Options{
		FS:          fs,
		SearchPaths: []string{"kokkos", "src"},
		Sources:     []string{"src/kernel.cpp", "src/functor.hpp"},
		Header:      "Kokkos_Core.hpp",
		OutDir:      "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	tu := parseKernel(t, fs)
	byValueViewFields := astmatch.Find(tu, astmatch.FieldDecl(
		astmatch.IsExpansionInFile("src/functor.hpp"),
		astmatch.HasType(func(ty *ast.Type) bool {
			return ty != nil && ty.IsByValue() && ty.Name.Last().Name == "View"
		}),
	))
	if len(byValueViewFields) != res.Report.PointerizedUsages {
		t.Errorf("matchers: %d by-value View fields, report pointerized %d",
			len(byValueViewFields), res.Report.PointerizedUsages)
	}
}
