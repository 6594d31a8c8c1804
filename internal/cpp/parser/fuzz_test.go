package parser

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
)

// FuzzParser feeds arbitrary source through the lexer and parser. The
// contract under fuzzing is "errors, never panics": malformed input must
// surface as parse errors. A parse split at a token count, and a parse
// resumed from that split, must equal the single parse, including for a
// cut right after a '>>' the parser splits into '> >'.
func FuzzParser(f *testing.F) {
	f.Add("int main() { return 0; }")
	f.Add("template <typename T> class View { T* p; };")
	f.Add("namespace a { namespace b { enum class E { X, Y }; } }")
	f.Add("auto f = [](int x) { return x << 1; };")
	f.Add("A<B<int>> v; int w = v.get()->*p;")
	f.Add("class C { C(int) {} C operator+(const C&) const; };")
	f.Add("using V = fz::View<double>; V x(\"n\", 4);")
	f.Add("int x = 0x1p3 + .5e-2f + 12'345;")
	f.Add("struct { struct { int x; } inner; } anon;")
	f.Add("template<> struct S<int*> {};")
	f.Add("A<B<C<int>>> a; template<class T = X<Y<int>>> struct Q; int z = f<g<1>>(2);")
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lexer.Tokenize("fuzz.cpp", src)
		if err != nil {
			return
		}
		p := New(toks)
		tu, err := p.Parse()
		if err == nil && tu == nil {
			t.Fatal("nil translation unit with nil error")
		}
		checkSplits(t, toks, tu, p.errs)
	})
}

// checkSplits checks ParseSplit at several cuts of toks, and ParseFrom
// on toks and on toks with a declaration appended, against want, the
// single parse of toks, and its errors.
func checkSplits(t *testing.T, toks []token.Token, want *ast.TranslationUnit, wantErrs []error) {
	t.Helper()
	n := len(toks) - 1 // the cut never includes EOF
	cuts := []int{0, 1, n / 3, n / 2, n - 1, n}
	if i := slices.IndexFunc(toks, func(t token.Token) bool { return t.Kind == token.Shr }); i >= 0 {
		cuts = append(cuts, i, i+1)
	}
	longer := appendDecl(t, toks)
	for _, cut := range cuts {
		if cut < 0 || cut > n {
			continue
		}
		p := New(toks)
		got, r, _ := p.ParseSplit(cut)
		sameParse(t, fmt.Sprintf("ParseSplit(%d)", cut), got, p.errs, want, wantErrs)
		if r == nil {
			continue
		}
		q := New(toks)
		got, _ = q.ParseFrom(r)
		sameParse(t, fmt.Sprintf("ParseFrom(ParseSplit(%d))", cut), got, q.errs, want, wantErrs)
		whole := New(longer)
		wantLonger, _ := whole.Parse()
		q = New(longer)
		got, _ = q.ParseFrom(r)
		sameParse(t, fmt.Sprintf("ParseFrom(ParseSplit(%d)) of the longer stream", cut), got, q.errs, wantLonger, whole.errs)
	}
}

// appendDecl returns toks with a declaration inserted before EOF.
func appendDecl(t *testing.T, toks []token.Token) []token.Token {
	t.Helper()
	extra, err := lexer.Tokenize("fuzz.cpp", "\nint appended_ = 1;")
	if err != nil {
		t.Fatal(err)
	}
	out := slices.Clone(toks[:len(toks)-1])
	return append(out, extra...)
}

func sameParse(t *testing.T, what string, got *ast.TranslationUnit, gotErrs []error, want *ast.TranslationUnit, wantErrs []error) {
	t.Helper()
	if !reflect.DeepEqual(got.Decls, want.Decls) {
		t.Fatalf("%s: tree differs from the single parse", what)
	}
	if fmt.Sprint(gotErrs) != fmt.Sprint(wantErrs) {
		t.Fatalf("%s: errors %v, single parse %v", what, gotErrs, wantErrs)
	}
}
