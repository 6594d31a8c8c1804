package astmatch

import (
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
)

// TestFindAllocatesPerMatch runs Find over a whole corpus translation
// unit: allocations must track the number of matches (a Bindings map
// per match plus the result slice's growth), not the tens of thousands
// of nodes visited.
func TestFindAllocatesPerMatch(t *testing.T) {
	s := corpus.ByName("02")
	res, err := preprocessor.New(s.FS, s.SearchPaths...).Preprocess(s.MainFile)
	if err != nil {
		t.Fatal(err)
	}
	tu, err := parser.New(res.Tokens).Parse()
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	ast.Inspect(tu, func(ast.Node) { nodes++ })

	for _, tc := range []struct {
		name string
		m    Matcher
	}{
		{"class definitions", CXXRecordDecl(IsDefinition())},
		{"bound member callees", CallExpr(Callee(Bind("callee", MemberExpr())))},
		// Binds the callee, then fails on most calls: the partial
		// binding must be cleared, not reallocated.
		{"partial binds", CallExpr(Callee(Bind("callee", AnyOf(MemberExpr(), DeclRefExpr()))), HasArgument(0, DeclRefExpr()))},
	} {
		matches := len(Find(tu, tc.m))
		allocs := testing.AllocsPerRun(3, func() { Find(tu, tc.m) })
		// Two allocations per match (map header and, with a binding, its
		// first group), the slice's doublings, and a few fixed closures.
		bound := 2*float64(matches) + 2*math.Log2(float64(matches)+1) + 8
		if allocs > bound {
			t.Errorf("%s: %.0f allocs for %d matches over %d nodes, want <= %.0f",
				tc.name, allocs, matches, nodes, bound)
		}
		if matches == 0 || bound > float64(nodes)/4 {
			t.Fatalf("%s: %d matches over %d nodes cannot tell per-match from per-node allocation",
				tc.name, matches, nodes)
		}
	}
}
