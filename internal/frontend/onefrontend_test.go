package frontend

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// direct names the packages whose constructors start a private frontend
// pipeline; everything else must go through Parse.
var direct = map[string]bool{
	"repro/internal/cpp/preprocessor": true,
	"repro/internal/cpp/parser":       true,
}

// allowedDirect lists the sites that construct a preprocessor or parser
// by design, keyed by file or by "file:function".
var allowedDirect = map[string]string{
	"internal/buildcache/buildcache.go:(*TU).Unit": "re-parse of an adopted or released entry; buildcache cannot import frontend",
	"internal/experiments/benchfrontend.go":        "stage micro-benchmarks time preprocess and parse separately",
}

// TestOneFrontend fails on any preprocessor.New or parser.New in the
// non-test code under internal/, cmd/ and examples/ outside the C++
// packages, the frontend itself and the allowlist, so no package grows
// a private preprocess→parse pipeline again.
func TestOneFrontend(t *testing.T) {
	root := filepath.Join("..", "..")
	used := map[string]bool{}
	var bad []string
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			rel = filepath.ToSlash(rel)
			if strings.HasPrefix(rel, "internal/cpp/") || strings.HasPrefix(rel, "internal/frontend/") {
				return nil
			}
			sites, err := directSites(path)
			for _, s := range sites {
				switch {
				case allowedDirect[rel] != "":
					used[rel] = true
				case allowedDirect[rel+":"+s.fn] != "":
					used[rel+":"+s.fn] = true
				default:
					bad = append(bad, fmt.Sprintf("%s:%d (%s): %s", rel, s.line, s.fn, s.call))
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range bad {
		t.Errorf("private frontend pipeline at %s; call frontend.Parse", b)
	}
	for site := range allowedDirect {
		if !used[site] {
			t.Errorf("allowlist entry %s matches no call; delete it", site)
		}
	}
}

type site struct {
	line     int
	fn, call string
}

// directSites returns every reference to preprocessor.New or parser.New
// in one Go file, with its enclosing function.
func directSites(path string) ([]site, error) {
	fset := token.NewFileSet()
	f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkgs := map[string]string{} // local import name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := p[strings.LastIndexByte(p, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgs[name] = p
	}
	var out []site
	for _, decl := range f.Decls {
		fn := "<package>"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			fn = funcName(fd)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "New" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && direct[pkgs[x.Name]] {
				out = append(out, site{line: fset.Position(sel.Pos()).Line, fn: fn, call: x.Name + ".New"})
			}
			return true
		})
	}
	return out, nil
}

// funcName renders a function as "Name" or "(*Recv).Name".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	return fd.Name.Name
}
