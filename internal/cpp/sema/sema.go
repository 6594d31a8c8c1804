// Package sema builds symbol tables over parsed translation units and
// provides the name-resolution primitives the Header Substitution engine
// relies on: qualified lookup through namespaces and classes, type-alias
// resolution (the paper's resolveAliases step), and tracking of which file
// declared each symbol (needed to decide whether a used symbol comes from
// the header being substituted).
package sema

import (
	"fmt"

	"repro/internal/cpp/ast"
	"repro/internal/obs"
)

// SymKind classifies a symbol.
type SymKind int

// Symbol kinds.
const (
	NamespaceSym SymKind = iota
	ClassSym
	FunctionSym
	AliasSym
	EnumSym
	VarSym
	FieldSym
	EnumeratorSym
)

func (k SymKind) String() string {
	switch k {
	case NamespaceSym:
		return "namespace"
	case ClassSym:
		return "class"
	case FunctionSym:
		return "function"
	case AliasSym:
		return "alias"
	case EnumSym:
		return "enum"
	case VarSym:
		return "variable"
	case FieldSym:
		return "field"
	case EnumeratorSym:
		return "enumerator"
	}
	return "symbol"
}

// Symbol is one named entity. Namespaces and classes own child scopes.
type Symbol struct {
	Name     string
	Kind     SymKind
	Decl     ast.Decl // primary declaration (the definition if seen)
	Decls    []ast.Decl
	Parent   *Symbol
	Children map[string][]*Symbol
	DeclFile string // file of the primary declaration
	// EnumValue is the computed constant for EnumeratorSym symbols.
	EnumValue int64
	order     []string
}

// Qualified returns the fully qualified name of the symbol.
func (s *Symbol) Qualified() string {
	if s.Parent == nil || s.Parent.Name == "" {
		return s.Name
	}
	return s.Parent.Qualified() + "::" + s.Name
}

// Class returns the ClassDecl if the symbol is a class, else nil.
func (s *Symbol) Class() *ast.ClassDecl {
	c, _ := s.Decl.(*ast.ClassDecl)
	return c
}

// Function returns the FunctionDecl if the symbol is a function, else nil.
func (s *Symbol) Function() *ast.FunctionDecl {
	f, _ := s.Decl.(*ast.FunctionDecl)
	return f
}

// Alias returns the AliasDecl if the symbol is an alias, else nil.
func (s *Symbol) Alias() *ast.AliasDecl {
	a, _ := s.Decl.(*ast.AliasDecl)
	return a
}

// ChildrenNamed returns the child symbols with the given name.
func (s *Symbol) ChildrenNamed(name string) []*Symbol {
	if s.Children == nil {
		return nil
	}
	return s.Children[name]
}

// FirstChild returns the first child with the name, or nil.
func (s *Symbol) FirstChild(name string) *Symbol {
	cs := s.ChildrenNamed(name)
	if len(cs) == 0 {
		return nil
	}
	return cs[0]
}

// EachChild visits children in declaration order.
func (s *Symbol) EachChild(f func(*Symbol)) {
	for _, name := range s.order {
		for _, c := range s.Children[name] {
			f(c)
		}
	}
}

func (s *Symbol) addChild(c *Symbol) {
	if s.Children == nil {
		s.Children = map[string][]*Symbol{}
	}
	if _, seen := s.Children[c.Name]; !seen {
		s.order = append(s.order, c.Name)
	}
	s.Children[c.Name] = append(s.Children[c.Name], c)
	c.Parent = s
}

// findOrAddScope returns an existing namespace/class child to merge into,
// or adds the given one.
func (s *Symbol) findOrAddScope(name string, kind SymKind, d ast.Decl, file string) *Symbol {
	for _, c := range s.ChildrenNamed(name) {
		if c.Kind == kind {
			c.Decls = append(c.Decls, d)
			// Prefer a definition as the primary declaration.
			if cd, ok := d.(*ast.ClassDecl); ok && cd.IsDefinition {
				if prev, ok := c.Decl.(*ast.ClassDecl); !ok || !prev.IsDefinition {
					c.Decl = d
					c.DeclFile = file
				}
			}
			return c
		}
	}
	c := &Symbol{Name: name, Kind: kind, Decl: d, Decls: []ast.Decl{d}, DeclFile: file}
	s.addChild(c)
	return c
}

// Table is the program-wide symbol table.
type Table struct {
	Global *Symbol
	// UsingNamespaces lists namespaces brought in via using-directives,
	// per file.
	UsingNamespaces map[string][]string
	// UsingDecls maps unqualified name -> qualified name from
	// using-declarations, per file.
	UsingDecls map[string]map[string]ast.QualifiedName
	// Obs, when non-nil, records a span + declaration counter per
	// AddUnit. The nil default is a zero-cost no-op.
	Obs *obs.Obs
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{
		Global:          &Symbol{Name: "", Kind: NamespaceSym},
		UsingNamespaces: map[string][]string{},
		UsingDecls:      map[string]map[string]ast.QualifiedName{},
	}
}

// Build constructs a symbol table from the given translation units.
func Build(tus ...*ast.TranslationUnit) *Table {
	t := NewTable()
	for _, tu := range tus {
		for _, d := range tu.Decls {
			t.addDecl(t.Global, d)
		}
	}
	return t
}

// AddUnit merges one more translation unit into the table.
func (t *Table) AddUnit(tu *ast.TranslationUnit) {
	sp := t.Obs.Start("sema")
	sp.SetInt("decls", int64(len(tu.Decls)))
	defer sp.End()
	t.Obs.Counter("sema.units").Add(1)
	t.Obs.Counter("sema.decls").Add(uint64(len(tu.Decls)))
	for _, d := range tu.Decls {
		t.addDecl(t.Global, d)
	}
}

func (t *Table) addDecl(scope *Symbol, d ast.Decl) {
	switch x := d.(type) {
	case *ast.NamespaceDecl:
		var ns *Symbol
		if x.Name == "" {
			ns = scope // anonymous / extern "C": transparent
		} else {
			ns = scope.findOrAddScope(x.Name, NamespaceSym, x, x.Pos().FileName())
		}
		for _, child := range x.Decls {
			t.addDecl(ns, child)
		}
	case *ast.ClassDecl:
		cs := scope.findOrAddScope(x.Name, ClassSym, x, x.Pos().FileName())
		for _, m := range x.Members {
			t.addDecl(cs, m)
		}
	case *ast.FunctionDecl:
		if !x.QualifierName.IsEmpty() {
			// Out-of-line method definition: attach to the class scope if
			// it resolves; otherwise record at this scope.
			if target := t.resolveScope(scope, x.QualifierName); target != nil {
				target.findOrAddScope(x.Name, FunctionSym, x, x.Pos().FileName())
				return
			}
		}
		scope.findOrAddScope(x.Name, FunctionSym, x, x.Pos().FileName())
	case *ast.AliasDecl:
		s := &Symbol{Name: x.Name, Kind: AliasSym, Decl: x, Decls: []ast.Decl{x}, DeclFile: x.Pos().FileName()}
		scope.addChild(s)
	case *ast.UsingDecl:
		file := x.Pos().FileName()
		if x.IsNamespace {
			t.UsingNamespaces[file] = append(t.UsingNamespaces[file], x.Name.Plain())
		} else {
			if t.UsingDecls[file] == nil {
				t.UsingDecls[file] = map[string]ast.QualifiedName{}
			}
			t.UsingDecls[file][x.Name.Last().Name] = x.Name
		}
	case *ast.EnumDecl:
		s := &Symbol{Name: x.Name, Kind: EnumSym, Decl: x, Decls: []ast.Decl{x}, DeclFile: x.Pos().FileName()}
		scope.addChild(s)
		// Enumerators of unscoped enums are visible in the enclosing
		// scope; scoped (enum class) enumerators live under the enum.
		owner := scope
		if x.Scoped {
			owner = s
		}
		next := int64(0)
		for _, item := range x.Items {
			if v, ok := evalEnumerator(item.Value); ok {
				next = v
			}
			es := &Symbol{Name: item.Name, Kind: EnumeratorSym, Decl: x,
				Decls: []ast.Decl{x}, DeclFile: x.Pos().FileName(), EnumValue: next}
			owner.addChild(es)
			next++
		}
	case *ast.VarDecl:
		s := &Symbol{Name: x.Name, Kind: VarSym, Decl: x, Decls: []ast.Decl{x}, DeclFile: x.Pos().FileName()}
		scope.addChild(s)
	case *ast.FieldDecl:
		s := &Symbol{Name: x.Name, Kind: FieldSym, Decl: x, Decls: []ast.Decl{x}, DeclFile: x.Pos().FileName()}
		scope.addChild(s)
	case *ast.StaticAssertDecl, *ast.ExplicitInstantiation:
		// not named entities
	}
}

// evalEnumerator computes an explicit enumerator initializer when it is a
// simple integer constant expression; non-constant initializers fall back
// to sequential numbering.
func evalEnumerator(x ast.Expr) (int64, bool) {
	switch v := x.(type) {
	case nil:
		return 0, false
	case *ast.LiteralExpr:
		var n int64
		var neg bool
		s := v.Text
		if len(s) > 0 && s[0] == '-' {
			neg = true
			s = s[1:]
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c < '0' || c > '9' {
				if i == 1 && (c == 'x' || c == 'X') {
					// hex literal
					var h int64
					for _, hc := range s[2:] {
						switch {
						case hc >= '0' && hc <= '9':
							h = h*16 + int64(hc-'0')
						case hc >= 'a' && hc <= 'f':
							h = h*16 + int64(hc-'a'+10)
						case hc >= 'A' && hc <= 'F':
							h = h*16 + int64(hc-'A'+10)
						default:
							return 0, false
						}
					}
					if neg {
						h = -h
					}
					return h, true
				}
				return 0, false
			}
			n = n*10 + int64(c-'0')
		}
		if neg {
			n = -n
		}
		return n, true
	case *ast.UnaryExpr:
		if inner, ok := evalEnumerator(v.X); ok && !v.Postfix {
			switch v.Op.String() {
			case "-":
				return -inner, true
			case "+":
				return inner, true
			}
		}
	case *ast.ParenExpr:
		return evalEnumerator(v.X)
	case *ast.BinaryExpr:
		l, okL := evalEnumerator(v.L)
		r, okR := evalEnumerator(v.R)
		if okL && okR {
			switch v.Op.String() {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "<<":
				return l << uint(r&63), true
			case "|":
				return l | r, true
			}
		}
	}
	return 0, false
}

// resolveScope resolves a qualifier path to a namespace/class scope
// starting from scope and walking outward.
func (t *Table) resolveScope(scope *Symbol, q ast.QualifiedName) *Symbol {
	for s := scope; s != nil; s = s.Parent {
		if found := t.descend(s, q, 0); found != nil {
			return found
		}
	}
	return nil
}

func (t *Table) descend(scope *Symbol, q ast.QualifiedName, from int) *Symbol {
	cur := scope
	for i := from; i < len(q.Segments); i++ {
		next := cur.FirstChild(q.Segments[i].Name)
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// ---------------------------------------------------------------- lookup

// Resolution is the result of resolving a name: the symbol plus any alias
// chain traversed to reach it.
type Resolution struct {
	Symbol     *Symbol
	AliasChain []*Symbol // aliases traversed, outermost first
}

// Lookup resolves a qualified name as used in fromFile, honoring that
// file's using-directives and using-declarations and following type
// aliases between segments. It returns nil when the name does not
// resolve (e.g. a local variable).
func (t *Table) Lookup(q ast.QualifiedName, fromFile string) *Resolution {
	return t.lookup(q, fromFile, 0)
}

const maxAliasDepth = 32

func (t *Table) lookup(q ast.QualifiedName, fromFile string, depth int) *Resolution {
	if q.IsEmpty() || depth > maxAliasDepth {
		return nil
	}
	first := q.Segments[0].Name

	// Candidate starting scopes: global, then using-namespace scopes.
	roots := []*Symbol{t.Global}
	for _, nsName := range t.UsingNamespaces[fromFile] {
		if ns := t.Global.FirstChild(nsName); ns != nil {
			roots = append(roots, ns)
		}
	}

	// A using-declaration can rename the first segment.
	if ud, ok := t.UsingDecls[fromFile][first]; ok {
		full := ast.QualifiedName{Segments: append(append([]ast.NameSegment{}, ud.Segments...), q.Segments[1:]...)}
		if r := t.lookup(full, fromFile, depth+1); r != nil {
			return r
		}
	}

	for _, root := range roots {
		if r := t.lookupFrom(root, q, fromFile, depth); r != nil {
			return r
		}
	}
	return nil
}

// LookupScoped resolves a name as written inside a declaration context
// (e.g. a type in a function signature declared within a namespace): each
// enclosing scope is tried outward before the file-level lookup.
func (t *Table) LookupScoped(q ast.QualifiedName, scope *Symbol, fromFile string) *Resolution {
	return t.lookupScoped(q, scope, fromFile, 0)
}

// lookupScoped resolves a name from inside a declaration context: it
// tries each enclosing scope outward (the C++ unqualified-lookup walk),
// then falls back to the file-level lookup.
func (t *Table) lookupScoped(q ast.QualifiedName, scope *Symbol, fromFile string, depth int) *Resolution {
	if depth > maxAliasDepth {
		return nil
	}
	for s := scope; s != nil; s = s.Parent {
		if r := t.lookupFrom(s, q, fromFile, depth); r != nil {
			return r
		}
	}
	return t.lookup(q, fromFile, depth)
}

func (t *Table) lookupFrom(root *Symbol, q ast.QualifiedName, fromFile string, depth int) *Resolution {
	cur := root
	var chain []*Symbol
	for i, seg := range q.Segments {
		cs := cur.ChildrenNamed(seg.Name)
		if len(cs) == 0 {
			return nil
		}
		sym := cs[0]
		last := i == len(q.Segments)-1
		if sym.Kind == AliasSym {
			// Follow alias to its target symbol.
			a := sym.Alias()
			if a == nil || a.Target == nil {
				return nil
			}
			tr := t.lookupScoped(a.Target.Name, sym.Parent, sym.DeclFile, depth+1)
			if tr == nil {
				// Alias to an unresolvable (builtin) type.
				if last {
					return &Resolution{Symbol: sym, AliasChain: chain}
				}
				return nil
			}
			chain = append(chain, sym)
			chain = append(chain, tr.AliasChain...)
			if last {
				return &Resolution{Symbol: tr.Symbol, AliasChain: chain}
			}
			cur = tr.Symbol
			continue
		}
		if last {
			return &Resolution{Symbol: sym, AliasChain: chain}
		}
		cur = sym
	}
	return nil
}

// UnderlyingType resolves alias chains on a type, returning the final
// source-level type (e.g. member_t → Kokkos::HostThreadTeamMember<sp_t>).
// The declarator (pointer/ref) of the original type is preserved.
func (t *Table) UnderlyingType(ty *ast.Type, fromFile string) *ast.Type {
	cur := ty
	for depth := 0; depth < maxAliasDepth; depth++ {
		if cur == nil || cur.Builtin {
			return cur
		}
		r := t.Lookup(cur.Name, fromFile)
		if r == nil || r.Symbol.Kind != AliasSym {
			if r != nil && len(r.AliasChain) > 0 {
				// Lookup already followed aliases; reconstruct the final
				// name from the resolved symbol.
				out := cur.Clone()
				out.Name = parseQualified(r.Symbol.Qualified())
				// Preserve template args of the last original segment if
				// the target has none (alias to a template).
				return out
			}
			return cur
		}
		a := r.Symbol.Alias()
		next := a.Target.Clone()
		next.Pointer += cur.Pointer
		next.LValueRef = next.LValueRef || cur.LValueRef
		next.RValueRef = next.RValueRef || cur.RValueRef
		next.Const = next.Const || cur.Const
		cur = next
		fromFile = r.Symbol.DeclFile
	}
	return cur
}

// ParseQualified converts "A::B::C" into a QualifiedName.
func ParseQualified(s string) ast.QualifiedName { return parseQualified(s) }

// parseQualified converts "A::B::C" into a QualifiedName.
func parseQualified(s string) ast.QualifiedName {
	var q ast.QualifiedName
	start := 0
	for i := 0; i+1 < len(s); i++ {
		if s[i] == ':' && s[i+1] == ':' {
			q.Segments = append(q.Segments, ast.NameSegment{Name: s[start:i]})
			start = i + 2
			i++
		}
	}
	q.Segments = append(q.Segments, ast.NameSegment{Name: s[start:]})
	return q
}

// IsNested reports whether a class symbol is nested inside another class —
// the case Header Substitution cannot forward declare (§3.2.1).
func (s *Symbol) IsNested() bool {
	return s.Kind == ClassSym && s.Parent != nil && s.Parent.Kind == ClassSym
}

// Dump renders the table for debugging.
func (t *Table) Dump() string {
	var out string
	var walk func(s *Symbol, indent string)
	walk = func(s *Symbol, indent string) {
		s.EachChild(func(c *Symbol) {
			out += fmt.Sprintf("%s%s %s (%s)\n", indent, c.Kind, c.Name, c.DeclFile)
			walk(c, indent+"  ")
		})
	}
	walk(t.Global, "")
	return out
}
