package preprocessor

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cpp/token"
	"repro/internal/vfs"
)

func pp(t *testing.T, files map[string]string, main string, searchPaths ...string) *Result {
	t.Helper()
	fs := vfs.New()
	for p, c := range files {
		fs.Write(p, c)
	}
	p := New(fs, searchPaths...)
	res, err := p.Preprocess(main)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return res
}

func rendered(t *testing.T, files map[string]string, main string, searchPaths ...string) string {
	t.Helper()
	return RenderTokens(pp(t, files, main, searchPaths...).Tokens)
}

func TestSimpleInclude(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#include \"add.hpp\"\nint main() { }",
		"add.hpp":  "int add(int, int);",
	}, "main.cpp")
	if !strings.Contains(out, "int add ( int , int ) ;") {
		t.Fatalf("header not spliced: %q", out)
	}
	if !strings.Contains(out, "int main ( ) { }") {
		t.Fatalf("main body missing: %q", out)
	}
}

func TestAngledIncludeUsesSearchPath(t *testing.T) {
	res := pp(t, map[string]string{
		"main.cpp":            "#include <Kokkos_Core.hpp>",
		"lib/Kokkos_Core.hpp": "namespace Kokkos {}",
	}, "main.cpp", "lib")
	if len(res.Includes) != 1 || res.Includes[0] != "lib/Kokkos_Core.hpp" {
		t.Fatalf("Includes = %v", res.Includes)
	}
}

func TestQuotedIncludeRelativeFirst(t *testing.T) {
	res := pp(t, map[string]string{
		"src/main.cpp": `#include "util.hpp"`,
		"src/util.hpp": "int u;",
		"lib/util.hpp": "int wrong;",
	}, "src/main.cpp", "lib")
	if len(res.Includes) != 1 || res.Includes[0] != "src/util.hpp" {
		t.Fatalf("Includes = %v", res.Includes)
	}
}

func TestTransitiveIncludesAndStats(t *testing.T) {
	res := pp(t, map[string]string{
		"main.cpp": "#include \"a.hpp\"\nint x;",
		"a.hpp":    "#include \"b.hpp\"\nint a;",
		"b.hpp":    "int b;",
	}, "main.cpp")
	if len(res.Includes) != 2 {
		t.Fatalf("Includes = %v", res.Includes)
	}
	// LOC: "int x;", "int a;", "int b;" — 3 active lines.
	if res.LOC != 3 {
		t.Fatalf("LOC = %d, want 3", res.LOC)
	}
	if deps := res.DirectDeps["a.hpp"]; len(deps) != 1 || deps[0] != "b.hpp" {
		t.Fatalf("DirectDeps[a.hpp] = %v", deps)
	}
}

func TestIncludeGuardPreventsReinclusion(t *testing.T) {
	res := pp(t, map[string]string{
		"main.cpp": "#include \"g.hpp\"\n#include \"g.hpp\"",
		"g.hpp":    "#ifndef G_HPP\n#define G_HPP\nint g;\n#endif",
	}, "main.cpp")
	out := RenderTokens(res.Tokens)
	if strings.Count(out, "int g ;") != 1 {
		t.Fatalf("guard failed: %q", out)
	}
}

func TestPragmaOnce(t *testing.T) {
	res := pp(t, map[string]string{
		"main.cpp": "#include \"p.hpp\"\n#include \"p.hpp\"",
		"p.hpp":    "#pragma once\nint p;",
	}, "main.cpp")
	out := RenderTokens(res.Tokens)
	if strings.Count(out, "int p ;") != 1 {
		t.Fatalf("pragma once failed: %q", out)
	}
}

func TestObjectMacro(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define N 42\nint a[N];",
	}, "main.cpp")
	if !strings.Contains(out, "int a [ 42 ] ;") {
		t.Fatalf("macro not expanded: %q", out)
	}
}

func TestFunctionMacro(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define MAX(a, b) ((a) > (b) ? (a) : (b))\nint m = MAX(x, y+1);",
	}, "main.cpp")
	if !strings.Contains(out, "( ( x ) > ( y + 1 ) ? ( x ) : ( y + 1 ) )") {
		t.Fatalf("function macro wrong: %q", out)
	}
}

func TestFunctionMacroWithoutParensNotExpanded(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define F(x) x\nint F;",
	}, "main.cpp")
	if !strings.Contains(out, "int F ;") {
		t.Fatalf("bare name of function-like macro must not expand: %q", out)
	}
}

func TestStringizeAndPaste(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define STR(x) #x\n#define CAT(a, b) a##b\nconst char* s = STR(hi there);\nint CAT(foo, bar);",
	}, "main.cpp")
	if !strings.Contains(out, `"hi there"`) {
		t.Fatalf("stringize failed: %q", out)
	}
	if !strings.Contains(out, "int foobar ;") {
		t.Fatalf("paste failed: %q", out)
	}
}

func TestVariadicMacro(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define CALL(f, ...) f(__VA_ARGS__)\nCALL(g, 1, 2, 3);",
	}, "main.cpp")
	if !strings.Contains(out, "g ( 1 , 2 , 3 ) ;") {
		t.Fatalf("variadic failed: %q", out)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define A B\n#define B A\nint A;",
	}, "main.cpp")
	// A -> B -> A (hidden) stops.
	if !strings.Contains(out, "int A ;") && !strings.Contains(out, "int B ;") {
		t.Fatalf("recursion not terminated: %q", out)
	}
}

func TestConditionals(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": `#define V 2
#if V == 1
int one;
#elif V == 2
int two;
#else
int other;
#endif`,
	}, "main.cpp")
	if !strings.Contains(out, "int two ;") || strings.Contains(out, "one") || strings.Contains(out, "other") {
		t.Fatalf("conditional branch wrong: %q", out)
	}
}

func TestIfdefIfndef(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": `#define YES
#ifdef YES
int a;
#endif
#ifndef NO
int b;
#endif
#ifdef NO
int c;
#endif`,
	}, "main.cpp")
	if !strings.Contains(out, "int a ;") || !strings.Contains(out, "int b ;") || strings.Contains(out, "int c ;") {
		t.Fatalf("ifdef handling wrong: %q", out)
	}
}

func TestNestedInactiveConditionals(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": `#if 0
#if 1
int hidden;
#endif
#else
int shown;
#endif`,
	}, "main.cpp")
	if strings.Contains(out, "hidden") || !strings.Contains(out, "int shown ;") {
		t.Fatalf("nested conditionals wrong: %q", out)
	}
}

func TestDefinedOperator(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": `#define X 1
#if defined(X) && !defined Y
int ok;
#endif`,
	}, "main.cpp")
	if !strings.Contains(out, "int ok ;") {
		t.Fatalf("defined() wrong: %q", out)
	}
}

func TestIfExpressionArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		keep bool
	}{
		{"1 + 2 * 3 == 7", true},
		{"(1 + 2) * 3 == 7", false},
		{"1 << 4 == 16", true},
		{"10 % 3 == 1", true},
		{"~0 == -1", true},
		{"1 ? 5 : 6", true},
		{"0 ? 5 : 0", false},
		{"'A' == 65", true},
		{"0x10 == 16", true},
		{"UNKNOWN_IDENT", false},
		{"true", true},
	}
	for _, c := range cases {
		out := rendered(t, map[string]string{
			"main.cpp": "#if " + c.expr + "\nint kept;\n#endif",
		}, "main.cpp")
		got := strings.Contains(out, "int kept ;")
		if got != c.keep {
			t.Errorf("#if %s: kept=%v, want %v", c.expr, got, c.keep)
		}
	}
}

func TestUndef(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define A 1\n#undef A\n#ifdef A\nint bad;\n#endif\nint A;",
	}, "main.cpp")
	if strings.Contains(out, "bad") || !strings.Contains(out, "int A ;") {
		t.Fatalf("undef wrong: %q", out)
	}
}

func TestErrorDirectiveInInactiveRegionIgnored(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#if 0\n#error should not fire\n#endif\nint ok;",
	}, "main.cpp")
	if !strings.Contains(out, "int ok ;") {
		t.Fatalf("inactive #error fired: %q", out)
	}
}

func TestErrorDirectiveFires(t *testing.T) {
	fs := vfs.New()
	fs.Write("main.cpp", "#error boom")
	p := New(fs)
	if _, err := p.Preprocess("main.cpp"); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want #error, got %v", err)
	}
}

func TestIncludeCycleWithoutGuardsErrors(t *testing.T) {
	fs := vfs.New()
	fs.Write("a.hpp", `#include "b.hpp"`)
	fs.Write("b.hpp", `#include "a.hpp"`)
	p := New(fs)
	p.MaxDepth = 20
	if _, err := p.Preprocess("a.hpp"); err == nil {
		t.Fatal("want cycle error")
	}
}

func TestMissingIncludeRecorded(t *testing.T) {
	res := pp(t, map[string]string{"main.cpp": "#include <nonexistent.h>\nint x;"}, "main.cpp")
	if len(res.MissingIncludes) != 1 || res.MissingIncludes[0] != "nonexistent.h" {
		t.Fatalf("MissingIncludes = %v", res.MissingIncludes)
	}
}

func TestCommandLineDefine(t *testing.T) {
	fs := vfs.New()
	fs.Write("main.cpp", "#ifdef FLAG\nint flag = VALUE;\n#endif")
	p := New(fs)
	p.Define("FLAG", "")
	p.Define("VALUE", "7")
	res, err := p.Preprocess("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderTokens(res.Tokens); !strings.Contains(out, "int flag = 7 ;") {
		t.Fatalf("out = %q", out)
	}
}

func TestDetectIncludeGuardRejectsTrailingTokens(t *testing.T) {
	res := pp(t, map[string]string{
		"main.cpp": "#include \"h.hpp\"\n#include \"h.hpp\"",
		// Token after #endif — not a guard; second include re-expands.
		"h.hpp": "#ifndef H\n#define H\nint h;\n#endif\nint tail;",
	}, "main.cpp")
	out := RenderTokens(res.Tokens)
	if strings.Count(out, "int tail ;") != 2 {
		t.Fatalf("file with trailing decl misdetected as guarded: %q", out)
	}
	// The guarded interior still appears once thanks to the real #ifndef.
	if strings.Count(out, "int h ;") != 1 {
		t.Fatalf("interior guard not honored: %q", out)
	}
}

func TestTokensEndWithEOF(t *testing.T) {
	res := pp(t, map[string]string{"main.cpp": "int x;"}, "main.cpp")
	last := res.Tokens[len(res.Tokens)-1]
	if last.Kind != token.EOF {
		t.Fatalf("last token = %v", last)
	}
}

func TestMacroExpansionInsideIncludedHeader(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": "#define T double\n#include \"h.hpp\"",
		"h.hpp":    "T value;",
	}, "main.cpp")
	if !strings.Contains(out, "double value ;") {
		t.Fatalf("macro not visible in header: %q", out)
	}
}

func TestKokkosLikeHeaderChain(t *testing.T) {
	// Mimics the corpus structure: one umbrella header pulling many.
	files := map[string]string{
		"main.cpp":                "#include <Kokkos_Core.hpp>\nint main() {}",
		"kok/Kokkos_Core.hpp":     "#pragma once\n#include <Kokkos_View.hpp>\n#include <Kokkos_Parallel.hpp>\nnamespace Kokkos { class OpenMP; }",
		"kok/Kokkos_View.hpp":     "#pragma once\nnamespace Kokkos { template<class T> class View {}; }",
		"kok/Kokkos_Parallel.hpp": "#pragma once\n#include <Kokkos_View.hpp>\nnamespace Kokkos { template<class F> void parallel_for(int, F) {} }",
	}
	res := pp(t, files, "main.cpp", "kok")
	if len(res.Includes) != 3 {
		t.Fatalf("Includes = %v", res.Includes)
	}
	out := RenderTokens(res.Tokens)
	if strings.Count(out, "class View") != 1 {
		t.Fatalf("View included more than once: %q", out)
	}
}

func TestBuiltinMacros(t *testing.T) {
	out := rendered(t, map[string]string{
		"dir/main.cpp": `const char* f = __FILE__;
int l = __LINE__;
int c1 = __COUNTER__;
int c2 = __COUNTER__;`,
	}, "dir/main.cpp")
	if !strings.Contains(out, `"dir/main.cpp"`) {
		t.Errorf("__FILE__ wrong: %q", out)
	}
	if !strings.Contains(out, "int l = 2 ;") {
		t.Errorf("__LINE__ wrong: %q", out)
	}
	if !strings.Contains(out, "int c1 = 0 ;") || !strings.Contains(out, "int c2 = 1 ;") {
		t.Errorf("__COUNTER__ wrong: %q", out)
	}
}

func TestBuiltinInsideMacro(t *testing.T) {
	out := rendered(t, map[string]string{
		"m.cpp": "#define WHERE __LINE__\nint a = WHERE;\nint b = WHERE;",
	}, "m.cpp")
	// __LINE__ inside a macro body keeps the definition-site line in this
	// implementation (a simplification); it must still be numeric.
	if strings.Contains(out, "WHERE") || strings.Contains(out, "__LINE__") {
		t.Errorf("builtin not expanded through macro: %q", out)
	}
}

func TestHasInclude(t *testing.T) {
	out := rendered(t, map[string]string{
		"main.cpp": `#if __has_include(<present.hpp>)
int yes;
#endif
#if __has_include(<absent.hpp>)
int no;
#endif
#if __has_include("local.hpp")
int local_yes;
#endif`,
		"lib/present.hpp": "int p;",
		"local.hpp":       "int l;",
	}, "main.cpp", "lib")
	if !strings.Contains(out, "int yes ;") || strings.Contains(out, "int no ;") {
		t.Fatalf("__has_include angled wrong: %q", out)
	}
	if !strings.Contains(out, "int local_yes ;") {
		t.Fatalf("__has_include quoted wrong: %q", out)
	}
}

func TestMacroRecordsAlwaysOn(t *testing.T) {
	fs := vfs.New()
	fs.Write("m.hpp", "#define ID(x) (x)\n#define N 1\n")
	fs.Write("main.cpp", `#include "m.hpp"
int before = N;
#define N 2
#if N > 1 && ID(2) && defined(ID)
int a = ID(N);
#endif
#if 0
int b = ID(3);
#endif
`)
	res, err := New(fs).Preprocess("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if d := res.MacroDefs["N"]; d.File != "main.cpp" || d.Body != "2" || d.FunctionLike {
		t.Errorf("MacroDefs[N] = %+v, want the last #define (main.cpp, object-like, body 2)", d)
	}
	if d := res.MacroDefs["ID"]; d.File != "m.hpp" || !d.FunctionLike {
		t.Errorf("MacroDefs[ID] = %+v, want function-like from m.hpp", d)
	}
	var got []string
	for _, u := range res.MacroUses {
		got = append(got, fmt.Sprintf("%s@%d from %s", u.Name, u.Pos.Line, u.DefFile))
	}
	sort.Strings(got)
	// Only the active-region expansions: none from #if expressions and
	// none from the #if 0 block.
	want := []string{"ID@5 from m.hpp", "N@2 from m.hpp", "N@5 from main.cpp"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("MacroUses = %v, want %v", got, want)
	}
}
