package par

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnePool fails on any sync.WaitGroup in the non-test code under
// internal/, cmd/ and examples/ outside this package, so no package grows
// a hand-rolled worker pool, with its own width default and failure
// rule, next to Each again.
func TestOnePool(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if strings.HasPrefix(rel, "internal/par/") {
				return nil
			}
			lines, err := waitGroupLines(path)
			for _, line := range lines {
				t.Errorf("hand-rolled worker pool at %s:%d (sync.WaitGroup); call par.Each", rel, line)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// waitGroupLines returns the line of every reference to sync.WaitGroup
// in one Go file.
func waitGroupLines(path string) ([]int, error) {
	fset := token.NewFileSet()
	f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	syncName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sync" {
			syncName = "sync"
			if imp.Name != nil {
				syncName = imp.Name.Name
			}
		}
	}
	if syncName == "" {
		return nil, nil
	}
	var out []int
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "WaitGroup" {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == syncName {
			out = append(out, fset.Position(sel.Pos()).Line)
		}
		return true
	})
	return out, nil
}
