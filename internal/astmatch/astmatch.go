// Package astmatch provides a declarative AST-matcher combinator library
// in the style of clang's ASTMatchers, which the paper's implementation
// uses to locate the nodes in Table 1 ("It then uses Clang's AST Matcher
// library to match the nodes representing the symbols", §4.1). Matchers
// compose into predicates and a MatchFinder runs them over a tree,
// reporting bound nodes.
package astmatch

import (
	"repro/internal/cpp/ast"
	"repro/internal/cpp/token"
)

// Matcher is a predicate over AST nodes. It may record named bindings
// into the result set via the context.
type Matcher func(n ast.Node, b Bindings) bool

// Bindings maps binding names to nodes captured during a match.
type Bindings map[string]ast.Node

// clone copies bindings so sibling match attempts don't interfere.
func (b Bindings) clone() Bindings {
	out := make(Bindings, len(b)+1)
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Match is one successful match: the root node plus captured bindings.
type Match struct {
	Node     ast.Node
	Bindings Bindings
}

// Find runs the matcher over the tree and returns every match. One
// Bindings map serves every visited node until a match keeps it; a
// failed attempt that bound names partway clears it first, so Find
// allocates per match rather than per node.
func Find(root ast.Node, m Matcher) []Match {
	var out []Match
	b := Bindings{}
	ast.Inspect(root, func(n ast.Node) {
		if m(n, b) {
			out = append(out, Match{Node: n, Bindings: b})
			b = Bindings{}
		} else if len(b) > 0 {
			clear(b)
		}
	})
	return out
}

// Bind wraps a matcher so the matched node is recorded under name.
func Bind(name string, m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if m(n, b) {
			b[name] = n
			return true
		}
		return false
	}
}

// ------------------------------------------------------------ node kinds

// CXXRecordDecl matches class/struct/union declarations.
func CXXRecordDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.ClassDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// FunctionDecl matches function declarations (free or member).
func FunctionDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.FunctionDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// CXXMethodDecl matches member functions.
func CXXMethodDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		f, ok := n.(*ast.FunctionDecl)
		if !ok || !f.IsMethod() {
			return false
		}
		return allOf(n, b, inner)
	}
}

// FieldDecl matches data members.
func FieldDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.FieldDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// VarDecl matches variable declarations.
func VarDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.VarDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// CallExpr matches call expressions.
func CallExpr(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.CallExpr); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// MemberExpr matches member accesses.
func MemberExpr(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.MemberExpr); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// LambdaExpr matches lambda expressions.
func LambdaExpr(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.LambdaExpr); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// DeclRefExpr matches name references.
func DeclRefExpr(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.DeclRefExpr); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// TypeAliasDecl matches using/typedef aliases.
func TypeAliasDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.AliasDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// EnumDecl matches enum declarations.
func EnumDecl(inner ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		if _, ok := n.(*ast.EnumDecl); !ok {
			return false
		}
		return allOf(n, b, inner)
	}
}

// ------------------------------------------------------------ narrowing

func allOf(n ast.Node, b Bindings, ms []Matcher) bool {
	for _, m := range ms {
		if !m(n, b) {
			return false
		}
	}
	return true
}

// HasName narrows to declarations with the given unqualified name, or to
// DeclRefExprs whose (plain) name matches.
func HasName(name string) Matcher {
	return func(n ast.Node, b Bindings) bool {
		switch x := n.(type) {
		case *ast.ClassDecl:
			return x.Name == name
		case *ast.FunctionDecl:
			return x.Name == name
		case *ast.FieldDecl:
			return x.Name == name
		case *ast.VarDecl:
			return x.Name == name
		case *ast.AliasDecl:
			return x.Name == name
		case *ast.EnumDecl:
			return x.Name == name
		case *ast.NamespaceDecl:
			return x.Name == name
		case *ast.DeclRefExpr:
			return x.Name.Plain() == name || x.Name.Last().Name == name
		case *ast.MemberExpr:
			return x.Member == name
		}
		return false
	}
}

// IsDefinition narrows to definitions.
func IsDefinition() Matcher {
	return func(n ast.Node, b Bindings) bool {
		switch x := n.(type) {
		case *ast.ClassDecl:
			return x.IsDefinition
		case *ast.FunctionDecl:
			return x.IsDefinition
		}
		return false
	}
}

// IsTemplate narrows to templated declarations.
func IsTemplate() Matcher {
	return func(n ast.Node, b Bindings) bool {
		switch x := n.(type) {
		case *ast.ClassDecl:
			return x.IsTemplate()
		case *ast.FunctionDecl:
			return x.IsTemplate()
		}
		return false
	}
}

// IsExpansionInFile narrows to nodes whose position is in file — the
// analogue of clang's isExpansionInFileMatching, which YALLA uses to
// separate header-declared symbols from source-file usages.
func IsExpansionInFile(file string) Matcher {
	fid := token.InternFile(file)
	return func(n ast.Node, b Bindings) bool {
		return n.Pos().File == fid
	}
}

// IsExpansionOutsideFiles narrows to nodes positioned in none of the
// given files — the complement of IsExpansionInFile over a file set,
// which the header splitter uses to separate consumer-side usages from
// declarations inside the god header's own include closure.
func IsExpansionOutsideFiles(files ...string) Matcher {
	ids := make(map[token.FileID]bool, len(files))
	for _, f := range files {
		ids[token.InternFile(f)] = true
	}
	return func(n ast.Node, b Bindings) bool {
		return !ids[n.Pos().File]
	}
}

// Callee applies a matcher to a call's callee expression.
func Callee(m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		return m(c.Callee, b)
	}
}

// HasArgument applies a matcher to the i-th call argument.
func HasArgument(i int, m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || i >= len(c.Args) {
			return false
		}
		return m(c.Args[i], b)
	}
}

// HasAnyArgument matches calls where any argument satisfies m.
func HasAnyArgument(m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		for _, a := range c.Args {
			if m(a, b) {
				return true
			}
		}
		return false
	}
}

// OnBase applies a matcher to a member expression's base.
func OnBase(m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		me, ok := n.(*ast.MemberExpr)
		if !ok {
			return false
		}
		return m(me.Base, b)
	}
}

// HasDescendant matches when any descendant satisfies m.
func HasDescendant(m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		found := false
		ast.Inspect(n, func(d ast.Node) {
			if found || d == n {
				return
			}
			trial := b.clone()
			if m(d, trial) {
				for k, v := range trial {
					b[k] = v
				}
				found = true
			}
		})
		return found
	}
}

// AnyOf matches when any sub-matcher matches.
func AnyOf(ms ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		for _, m := range ms {
			if m(n, b) {
				return true
			}
		}
		return false
	}
}

// AllOf matches when all sub-matchers match.
func AllOf(ms ...Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		return allOf(n, b, ms)
	}
}

// Not inverts a matcher.
func Not(m Matcher) Matcher {
	return func(n ast.Node, b Bindings) bool {
		return !m(n, b.clone())
	}
}

// HasType applies a matcher against the declared type name of a field,
// variable, or parameter-owning node.
func HasType(pred func(*ast.Type) bool) Matcher {
	return func(n ast.Node, b Bindings) bool {
		switch x := n.(type) {
		case *ast.FieldDecl:
			return pred(x.Type)
		case *ast.VarDecl:
			return pred(x.Type)
		case *ast.AliasDecl:
			return pred(x.Target)
		}
		return false
	}
}
