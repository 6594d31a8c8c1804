package parser_test

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/difftest"
	"repro/internal/fuzzgen"
	"repro/internal/vfs"
)

// TestCorpusPositionAudit walks every AST node the frontend produces for
// every corpus subject and asserts it carries a valid source position:
// non-empty file, 1-based line and column, non-negative offset. Every
// downstream consumer leans on this — the rewriter anchors edits at
// offsets, yallacheck emits file:line:col diagnostics, and the tracer
// attributes compile cost by file — so a node with a zero position turns
// into a diagnostic at "<unknown>:0:0" or a rewrite at offset 0.
func TestCorpusPositionAudit(t *testing.T) {
	for _, s := range corpus.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, src := range s.Sources {
				pp := preprocessor.New(s.FS.Clone(), s.SearchPaths...)
				res, err := pp.Preprocess(src)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				tu, err := parser.New(res.Tokens).Parse()
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				auditPositions(t, tu)
			}
		})
	}
}

// TestGeneratedPositionAudit runs the same audit over a batch of
// fuzzgen-generated programs (including unsafe ones), which exercise
// constructs the hand-written corpus may not.
func TestGeneratedPositionAudit(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		p := fuzzgen.Generate(fuzzgen.Config{Seed: seed, Unsafe: seed%3 == 0})
		s := difftest.SubjectFor(p)
		pp := preprocessor.New(s.FS.Clone(), s.SearchPaths...)
		res, err := pp.Preprocess(s.MainFile)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tu, err := parser.New(res.Tokens).Parse()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		auditPositions(t, tu)
	}
}

// TestKitchenSinkPositionAudit audits one source packing every declared
// construct the parser claims to support, so a production that forgets
// to stamp positions fails here even if no corpus subject uses it.
func TestKitchenSinkPositionAudit(t *testing.T) {
	const src = `
namespace outer {
namespace inner {
template <class T> class Box {
public:
  Box(T v) : v_(v) {}
  T get() const { return v_; }
  Box<T> wrap() const { return Box<T>(v_); }
  int operator()(int i) const { return i; }
  static int count;
private:
  T v_;
};
enum Color { Red = 1, Green, Blue = 7 };
enum class Mode { A, B };
using IntBox = Box<int>;
typedef int handle_t;
int freebie(int a, int b = 3);
template <class F> int fold(F f, int n) {
  int s = 0;
  for (int i = 0; i < n; ++i) { s = s + f(i); }
  return s;
}
}
}
using namespace outer::inner;
struct Derived : Box<int> { };
int Derived_helper(Derived& d) { return d.get(); }
static_assert(sizeof(int) > 0, "int");
int main() {
  IntBox b(4);
  b.get();
  int x = freebie(1);
  if (x > 2) { x = x + 1; } else { x = 0; }
  while (x > 0) { x = x - 1; }
  do { x = x + 2; } while (x < 4);
  switch (x) { case 0: x = 9; break; default: break; }
  int arr = fold([&](int i) { return i + x; }, 3);
  Color c = Red;
  outer::inner::Mode m = outer::inner::Mode::A;
  return arr + (c == Red ? 0 : 1) + (m == outer::inner::Mode::A ? 0 : 1);
}
`
	fs := vfs.New()
	fs.Write("sink.cpp", src)
	pp := preprocessor.New(fs)
	res, err := pp.Preprocess("sink.cpp")
	if err != nil {
		t.Fatal(err)
	}
	p := parser.New(res.Tokens)
	tu, err := p.Parse()
	if err != nil {
		t.Fatal(err)
	}
	auditPositions(t, tu)
}

// auditPositions reports every node in the tree whose position is
// invalid, with enough context (node kind + parent chain tail) to find
// the parser production that dropped it.
func auditPositions(t *testing.T, tu *ast.TranslationUnit) {
	t.Helper()
	bad := 0
	ast.Inspect(tu, func(n ast.Node) {
		if _, ok := n.(*ast.TranslationUnit); ok {
			return // the TU spans files; it has no single position
		}
		pos := n.Pos()
		switch {
		case pos.FileName() == "":
			report(t, &bad, n, "empty file")
		case pos.Line <= 0:
			report(t, &bad, n, fmt.Sprintf("line %d", pos.Line))
		case pos.Col <= 0:
			report(t, &bad, n, fmt.Sprintf("col %d", pos.Col))
		case pos.Offset < 0:
			report(t, &bad, n, fmt.Sprintf("offset %d", pos.Offset))
		}
	})
	if bad > 0 {
		t.Errorf("%d node(s) with invalid positions", bad)
	}
}

func report(t *testing.T, bad *int, n ast.Node, what string) {
	t.Helper()
	*bad++
	if *bad <= 10 {
		t.Errorf("%T at %v: %s", n, n.Pos(), what)
	}
}
