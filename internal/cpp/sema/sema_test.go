package sema

import (
	"sort"
	"strings"

	"testing"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/lexer"
	"repro/internal/cpp/parser"
	"repro/internal/obs"
)

func build(t *testing.T, files map[string]string) *Table {
	t.Helper()
	// Sorted order: declarations must be seen before out-of-line
	// definitions, as in C++, and map iteration order is random.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var trees []*ast.TranslationUnit
	for _, name := range names {
		src := files[name]
		toks, err := lexer.Tokenize(name, src)
		if err != nil {
			t.Fatalf("lex %s: %v", name, err)
		}
		tu, err := parser.New(toks).Parse()
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		trees = append(trees, tu)
	}
	return Of(nil, trees...)
}

const kokkosHeader = `
namespace Kokkos {
  class OpenMP;
  struct LayoutRight {};
  template<class T, class L> class View {
  public:
    T& operator()(int i, int j);
  };
  template<class Space> class TeamPolicy {
  public:
    using member_type = HostThreadTeamMember<Space>;
  };
  template<class Space> class HostThreadTeamMember {
  public:
    int league_rank() const;
  };
  namespace Impl {
    template<class T> struct TeamThreadRangeBoundariesStruct {};
  }
  template<class M> Impl::TeamThreadRangeBoundariesStruct<M> TeamThreadRange(M& m, int n);
  template<class P, class F> void parallel_for(P policy, F functor);
}
`

func TestBuildScopes(t *testing.T) {
	tab := build(t, map[string]string{"Kokkos_Core.hpp": kokkosHeader})
	kok := tab.Global.FirstChild("Kokkos")
	if kok == nil || kok.Kind != NamespaceSym {
		t.Fatalf("Kokkos = %+v", kok)
	}
	view := kok.FirstChild("View")
	if view == nil || view.Kind != ClassSym || view.Qualified() != "Kokkos::View" {
		t.Fatalf("View = %+v", view)
	}
	if op := view.FirstChild("operator()"); op == nil || op.Kind != FunctionSym {
		t.Fatalf("operator() not found in View")
	}
	impl := kok.FirstChild("Impl")
	if impl == nil || impl.FirstChild("TeamThreadRangeBoundariesStruct") == nil {
		t.Fatal("Impl::TeamThreadRangeBoundariesStruct not found")
	}
}

func TestLookupQualified(t *testing.T) {
	tab := build(t, map[string]string{"Kokkos_Core.hpp": kokkosHeader})
	r := tab.Lookup(ast.QN("Kokkos", "OpenMP"), "main.cpp")
	if r == nil || r.Symbol.Qualified() != "Kokkos::OpenMP" {
		t.Fatalf("lookup = %+v", r)
	}
	if r.Symbol.DeclFile != "Kokkos_Core.hpp" {
		t.Fatalf("DeclFile = %q", r.Symbol.DeclFile)
	}
}

func TestLookupUnresolved(t *testing.T) {
	tab := build(t, map[string]string{"Kokkos_Core.hpp": kokkosHeader})
	if r := tab.Lookup(ast.QN("NoSuch", "Thing"), "main.cpp"); r != nil {
		t.Fatalf("lookup = %+v", r)
	}
}

func TestUsingNamespaceDirective(t *testing.T) {
	tab := build(t, map[string]string{
		"Kokkos_Core.hpp": kokkosHeader,
		"main.cpp":        "using namespace Kokkos;\nOpenMP* space;",
	})
	r := tab.Lookup(ast.QN("OpenMP"), "main.cpp")
	if r == nil || r.Symbol.Qualified() != "Kokkos::OpenMP" {
		t.Fatalf("lookup via using-directive = %+v", r)
	}
	// Not visible from a file without the directive.
	if r := tab.Lookup(ast.QN("OpenMP"), "other.cpp"); r != nil {
		t.Fatalf("leaked using-directive: %+v", r)
	}
}

func TestUsingDeclaration(t *testing.T) {
	tab := build(t, map[string]string{
		"Kokkos_Core.hpp": kokkosHeader,
		"main.cpp":        "using Kokkos::LayoutRight;\nLayoutRight l;",
	})
	r := tab.Lookup(ast.QN("LayoutRight"), "main.cpp")
	if r == nil || r.Symbol.Qualified() != "Kokkos::LayoutRight" {
		t.Fatalf("lookup via using-decl = %+v", r)
	}
}

func TestAliasResolution(t *testing.T) {
	tab := build(t, map[string]string{
		"Kokkos_Core.hpp": kokkosHeader,
		"main.cpp":        "using sp_t = Kokkos::OpenMP;\nsp_t* s;",
	})
	r := tab.Lookup(ast.QN("sp_t"), "main.cpp")
	if r == nil || r.Symbol.Qualified() != "Kokkos::OpenMP" {
		t.Fatalf("alias target = %+v", r)
	}
	if len(r.AliasChain) != 1 || r.AliasChain[0].Name != "sp_t" {
		t.Fatalf("alias chain = %+v", r.AliasChain)
	}
}

func TestNestedAliasThroughClass(t *testing.T) {
	// member_t = Kokkos::TeamPolicy<sp_t>::member_type, where member_type
	// is an alias to HostThreadTeamMember — the paper's §3.2.1 case.
	tab := build(t, map[string]string{
		"Kokkos_Core.hpp": kokkosHeader,
		"main.cpp": `using sp_t = Kokkos::OpenMP;
using member_t = Kokkos::TeamPolicy<sp_t>::member_type;
member_t* m;`,
	})
	r := tab.Lookup(ast.QN("member_t"), "main.cpp")
	if r == nil {
		t.Fatal("member_t did not resolve")
	}
	if got := r.Symbol.Qualified(); got != "Kokkos::HostThreadTeamMember" {
		t.Fatalf("member_t resolves to %q, want Kokkos::HostThreadTeamMember", got)
	}
	// The chain passes through both aliases.
	if len(r.AliasChain) < 2 {
		t.Fatalf("alias chain = %+v", r.AliasChain)
	}
}

func TestIsNested(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "class Outer { public: class Inner {}; }; class Free {};",
	})
	outer := tab.Global.FirstChild("Outer")
	inner := outer.FirstChild("Inner")
	if !inner.IsNested() {
		t.Fatal("Inner should be nested")
	}
	if tab.Global.FirstChild("Free").IsNested() {
		t.Fatal("Free should not be nested")
	}
}

func TestOutOfLineMethodAttachesToClass(t *testing.T) {
	tab := build(t, map[string]string{
		"functor.hpp": "struct add_y { void operator()(int &m); };",
		"kernel.cpp":  "void add_y::operator()(int &m) { }",
	})
	addy := tab.Global.FirstChild("add_y")
	ops := addy.ChildrenNamed("operator()")
	if len(ops) != 1 {
		t.Fatalf("operator() children = %d", len(ops))
	}
	if len(ops[0].Decls) != 2 {
		t.Fatalf("operator() decls = %d, want declaration + definition", len(ops[0].Decls))
	}
}

func TestNamespaceMerging(t *testing.T) {
	tab := build(t, map[string]string{
		"a.hpp": "namespace N { class A; }",
		"b.hpp": "namespace N { class B; }",
	})
	n := tab.Global.FirstChild("N")
	if n.FirstChild("A") == nil || n.FirstChild("B") == nil {
		t.Fatal("namespace contents not merged")
	}
}

func TestClassDefinitionPreferredOverForwardDecl(t *testing.T) {
	tab := build(t, map[string]string{
		"fwd.hpp": "namespace K { class View; }",
		"def.hpp": "namespace K { class View { public: int size(); }; }",
	})
	v := tab.Global.FirstChild("K").FirstChild("View")
	if !v.Class().IsDefinition {
		t.Fatal("primary decl should be the definition")
	}
	if v.DeclFile != "def.hpp" {
		t.Fatalf("DeclFile = %q", v.DeclFile)
	}
}

func TestUnderlyingTypePreservesDeclarator(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp":    "namespace K { class OpenMP {}; }",
		"main.cpp": "using sp_t = K::OpenMP;\nsp_t* p;",
	})
	ty := &ast.Type{Name: ast.QN("sp_t"), Pointer: 1}
	u := tab.UnderlyingType(ty, "main.cpp")
	if u.Name.Plain() != "K::OpenMP" || u.Pointer != 1 {
		t.Fatalf("underlying = %s pointer=%d", u.Name, u.Pointer)
	}
}

func TestEnumAndVarSymbols(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "enum class Mode { A, B };\nint counter = 0;",
	})
	if s := tab.Global.FirstChild("Mode"); s == nil || s.Kind != EnumSym {
		t.Fatalf("Mode = %+v", s)
	}
	if s := tab.Global.FirstChild("counter"); s == nil || s.Kind != VarSym {
		t.Fatalf("counter = %+v", s)
	}
}

func TestFunctionOverloadsShareSymbol(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "void f(int);\nvoid f(double);\nvoid f(int, int);",
	})
	f := tab.Global.FirstChild("f")
	if f == nil || len(f.Decls) != 3 {
		t.Fatalf("f decls = %+v", f)
	}
}

func TestScopedEnumeratorLookup(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": `namespace lib {
enum class Color { Red, Green = 7, Blue };
enum Flags { A = 1, B = 2, C = 4 };
}`,
	})
	// Scoped enumerators live under the enum.
	r := tab.Lookup(ast.QN("lib", "Color", "Green"), "main.cpp")
	if r == nil || r.Symbol.Kind != EnumeratorSym {
		t.Fatalf("Color::Green = %+v", r)
	}
	if r.Symbol.EnumValue != 7 {
		t.Fatalf("Green = %d", r.Symbol.EnumValue)
	}
	if r2 := tab.Lookup(ast.QN("lib", "Color", "Blue"), "m"); r2 == nil || r2.Symbol.EnumValue != 8 {
		t.Fatalf("Blue should be 8")
	}
	// Unscoped enumerators are visible in the enclosing namespace.
	r3 := tab.Lookup(ast.QN("lib", "C"), "m")
	if r3 == nil || r3.Symbol.EnumValue != 4 {
		t.Fatalf("lib::C = %+v", r3)
	}
}

func TestEnumeratorValueExpressions(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "enum E { X = 1 << 4, Y = 0x10 + 2, Z = (3) * 4, N = -2, Seq };",
	})
	want := map[string]int64{"X": 16, "Y": 18, "Z": 12, "N": -2, "Seq": -1}
	for name, v := range want {
		r := tab.Lookup(ast.QN(name), "m")
		if r == nil {
			t.Fatalf("%s missing", name)
		}
		if r.Symbol.EnumValue != v {
			t.Errorf("%s = %d, want %d", name, r.Symbol.EnumValue, v)
		}
	}
}

func TestDumpRendersTree(t *testing.T) {
	tab := build(t, map[string]string{"h.hpp": "namespace N { class C { int f; }; }"})
	out := tab.Dump()
	for _, want := range []string{"namespace N", "class C", "field f"} {
		if !strings.Contains(out, want) {
			t.Errorf("Dump missing %q:\n%s", want, out)
		}
	}
}

func TestParseQualifiedHelper(t *testing.T) {
	q := ParseQualified("A::B::C")
	if q.String() != "A::B::C" || len(q.Segments) != 3 {
		t.Fatalf("q = %+v", q)
	}
	if ParseQualified("solo").String() != "solo" {
		t.Fatal("single segment")
	}
}

func TestLookupScopedWalksOutward(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": `namespace outer {
class Target {};
namespace inner {
class User {};
}
}`,
	})
	inner := tab.Global.FirstChild("outer").FirstChild("inner")
	r := tab.LookupScoped(ast.QN("Target"), inner, "h.hpp")
	if r == nil || r.Symbol.Qualified() != "outer::Target" {
		t.Fatalf("scoped lookup = %+v", r)
	}
}

func TestAliasCycleTerminates(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "using A = B;\nusing B = A;",
	})
	// Must not hang or crash; result may be nil or an alias symbol.
	_ = tab.Lookup(ast.QN("A"), "h.hpp")
}

func TestUnderlyingTypeBuiltinAlias(t *testing.T) {
	tab := build(t, map[string]string{
		"h.hpp": "using index_t = long;",
	})
	ty := &ast.Type{Name: ast.QN("index_t")}
	u := tab.UnderlyingType(ty, "h.hpp")
	if u == nil {
		t.Fatal("nil underlying")
	}
}

func parseFile(t *testing.T, name, src string) *ast.TranslationUnit {
	t.Helper()
	toks, err := lexer.Tokenize(name, src)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := parser.New(toks).Parse()
	if err != nil {
		t.Fatal(err)
	}
	return tu
}

// TestOfMemoizesPerTree checks that a tree's own table is built once,
// and that the multi-source slot on the first tree keeps the table of
// the last set of trees only.
func TestOfMemoizesPerTree(t *testing.T) {
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	units := reg.Counter("sema.units")
	a := parseFile(t, "a.hpp", "namespace n { class A {}; }")
	b := parseFile(t, "b.cpp", "namespace n { class B {}; }")
	c := parseFile(t, "c.cpp", "namespace n { class C {}; }")
	for _, step := range []struct {
		name  string
		trees []*ast.TranslationUnit
		built uint64
		want  []string
	}{
		{"a", []*ast.TranslationUnit{a}, 1, []string{"A"}},
		{"a again", []*ast.TranslationUnit{a}, 0, []string{"A"}},
		{"a+b", []*ast.TranslationUnit{a, b}, 2, []string{"A", "B"}},
		{"a+b again", []*ast.TranslationUnit{a, b}, 0, []string{"A", "B"}},
		{"a+c", []*ast.TranslationUnit{a, c}, 2, []string{"A", "C"}},
		{"a+b after a+c", []*ast.TranslationUnit{a, b}, 2, []string{"A", "B"}},
		{"a after a+b", []*ast.TranslationUnit{a}, 0, []string{"A"}},
	} {
		before := units.Value()
		tab := Of(o, step.trees...)
		if got := units.Value() - before; got != step.built {
			t.Errorf("%s: built over %d trees, want %d", step.name, got, step.built)
		}
		var names []string
		tab.Global.FirstChild("n").EachChild(func(s *Symbol) { names = append(names, s.Name) })
		if strings.Join(names, ",") != strings.Join(step.want, ",") {
			t.Errorf("%s: table holds %v, want %v", step.name, names, step.want)
		}
	}
	if Of(nil, a) != Of(nil, a) {
		t.Error("a tree's own table is not shared")
	}
}

// TestClassesDefinedInMatchesWalk compares the class index with a walk
// of every class symbol of the table, keeping those with a definition
// in the files, in walk order.
func TestClassesDefinedInMatchesWalk(t *testing.T) {
	tab := build(t, map[string]string{
		"Kokkos_Core.hpp": kokkosHeader,
		"main.cpp": `namespace Kokkos { class OpenMP {}; struct LayoutRight { struct Inner {}; }; }
class Local {}; class Local2;
namespace user { class Widget { class Part {}; }; }`,
		"other.cpp": "namespace user { class Widget; class Gadget {}; }\nclass Local2 {};",
	})
	var walk func(s *Symbol, files map[string]bool, out *[]string)
	walk = func(s *Symbol, files map[string]bool, out *[]string) {
		s.EachChild(func(c *Symbol) {
			if c.Kind == ClassSym {
				for _, d := range c.Decls {
					if cd, ok := d.(*ast.ClassDecl); ok && cd.IsDefinition && files[cd.Pos().FileName()] {
						*out = append(*out, c.Qualified())
						break
					}
				}
			}
			if c.Kind == NamespaceSym || c.Kind == ClassSym {
				walk(c, files, out)
			}
		})
	}
	for _, files := range []map[string]bool{
		{"main.cpp": true},
		{"other.cpp": true},
		{"main.cpp": true, "other.cpp": true},
		{"Kokkos_Core.hpp": true, "main.cpp": true},
		{"none.cpp": true},
	} {
		var want, got []string
		walk(tab.Global, files, &want)
		for _, s := range tab.ClassesDefinedIn(files) {
			got = append(got, s.Qualified())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("files %v: index gives %v, walk gives %v", files, got, want)
		}
	}
}
