// Package ast defines the C++ abstract syntax tree produced by the parser.
// Every node records source positions that point back into the original
// (pre-preprocessing) files, which is what lets the Header Substitution
// engine rewrite the user's sources in place — the same property clang's
// SourceLocations provide to the paper's implementation.
package ast

import (
	"strings"
	"sync"

	"repro/internal/cpp/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
	End() token.Pos
}

// Decl is implemented by declaration nodes.
type Decl interface {
	Node
	declNode()
}

// Stmt is implemented by statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by expression nodes.
type Expr interface {
	Node
	exprNode()
}

// ---------------------------------------------------------------- names

// NameSegment is one component of a qualified name, with optional
// template arguments: e.g. TeamPolicy<sp_t> in
// Kokkos::TeamPolicy<sp_t>::member_type.
type NameSegment struct {
	Name string
	Args []TemplateArg
}

// String renders the segment in source form.
func (s NameSegment) String() string {
	if len(s.Args) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Args))
	for i, a := range s.Args {
		parts[i] = a.String()
	}
	return s.Name + "<" + strings.Join(parts, ", ") + ">"
}

// QualifiedName is a possibly-qualified name, e.g. Kokkos::View<int**>.
// A leading empty segment would denote ::-rooted lookup; we do not model
// that (the corpora do not use it).
type QualifiedName struct {
	Segments []NameSegment
}

// QN builds an unparameterized qualified name from plain segments.
func QN(segs ...string) QualifiedName {
	q := QualifiedName{}
	for _, s := range segs {
		q.Segments = append(q.Segments, NameSegment{Name: s})
	}
	return q
}

// String renders the name in source form.
func (q QualifiedName) String() string {
	parts := make([]string, len(q.Segments))
	for i, s := range q.Segments {
		parts[i] = s.String()
	}
	return strings.Join(parts, "::")
}

// Plain renders the name without template arguments (Kokkos::TeamPolicy).
func (q QualifiedName) Plain() string {
	parts := make([]string, len(q.Segments))
	for i, s := range q.Segments {
		parts[i] = s.Name
	}
	return strings.Join(parts, "::")
}

// Last returns the final segment (the unqualified name).
func (q QualifiedName) Last() NameSegment {
	if len(q.Segments) == 0 {
		return NameSegment{}
	}
	return q.Segments[len(q.Segments)-1]
}

// Qualifier returns all but the final segment.
func (q QualifiedName) Qualifier() QualifiedName {
	if len(q.Segments) <= 1 {
		return QualifiedName{}
	}
	return QualifiedName{Segments: q.Segments[:len(q.Segments)-1]}
}

// IsEmpty reports whether the name has no segments.
func (q QualifiedName) IsEmpty() bool { return len(q.Segments) == 0 }

// TemplateArg is either a type or a constant expression argument.
type TemplateArg struct {
	Type *Type // nil if the argument is an expression
	Expr Expr  // nil if the argument is a type
}

// String renders the argument in source form.
func (a TemplateArg) String() string {
	if a.Type != nil {
		return a.Type.String()
	}
	if a.Expr != nil {
		return ExprString(a.Expr)
	}
	return "?"
}

// ---------------------------------------------------------------- types

// Type is a source-level type reference: a (possibly qualified, possibly
// templated) name plus declarator pieces. PosStart/PosEnd delimit the
// full source extent for rewriting.
type Type struct {
	Name      QualifiedName
	Const     bool
	Volatile  bool
	Pointer   int  // number of '*'
	LValueRef bool // '&'
	RValueRef bool // '&&'
	// Builtin marks fundamental types (int, double, void, ...).
	Builtin bool

	PosStart token.Pos
	PosEnd   token.Pos
}

// String renders the type in source form.
func (t *Type) String() string {
	if t == nil {
		return "<nil-type>"
	}
	var b strings.Builder
	if t.Const {
		b.WriteString("const ")
	}
	if t.Volatile {
		b.WriteString("volatile ")
	}
	b.WriteString(t.Name.String())
	b.WriteString(strings.Repeat("*", t.Pointer))
	if t.LValueRef {
		b.WriteString("&")
	}
	if t.RValueRef {
		b.WriteString("&&")
	}
	return b.String()
}

// IsByValue reports whether the type is used by value (no pointer or
// reference declarator) — the usage nature YALLA records (§4.1).
func (t *Type) IsByValue() bool {
	return t != nil && t.Pointer == 0 && !t.LValueRef && !t.RValueRef
}

// Clone returns a deep-enough copy for independent mutation of the
// declarator fields.
func (t *Type) Clone() *Type {
	if t == nil {
		return nil
	}
	c := *t
	return &c
}

// ---------------------------------------------------------------- decls

// TranslationUnit is the root node for one parsed file set.
type TranslationUnit struct {
	Decls []Decl

	// memo holds the products derived from this tree; see Memo.
	memo sync.Map
}

// Memo returns the product stored on tu under key, storing build's
// result on first use. A product derived from a tree (its symbol table,
// its user views) rides on the tree, so it is built once and released
// with it. Each package keys its products with an unexported type, so
// they never collide. Concurrent first callers may each run build, and
// all of them get the stored result: keep build cheap (an empty slot the
// caller then fills under its own lock) where building twice would show.
func (tu *TranslationUnit) Memo(key any, build func() any) any {
	if v, ok := tu.memo.Load(key); ok {
		return v
	}
	v, _ := tu.memo.LoadOrStore(key, build())
	return v
}

// Pos returns the start of the first declaration.
func (tu *TranslationUnit) Pos() token.Pos {
	if len(tu.Decls) > 0 {
		return tu.Decls[0].Pos()
	}
	return token.Pos{}
}

// End returns the end of the last declaration.
func (tu *TranslationUnit) End() token.Pos {
	if len(tu.Decls) > 0 {
		return tu.Decls[len(tu.Decls)-1].End()
	}
	return token.Pos{}
}

type declBase struct {
	Start, Stop token.Pos
}

func (d *declBase) Pos() token.Pos { return d.Start }
func (d *declBase) End() token.Pos { return d.Stop }
func (d *declBase) declNode()      {}

// NamespaceDecl is `namespace N { ... }`.
type NamespaceDecl struct {
	declBase
	Name  string
	Decls []Decl
}

// TemplateParam is one parameter of a template header.
type TemplateParam struct {
	// Kind is "typename"/"class" for type parameters, otherwise the
	// source type of a non-type parameter (e.g. "int").
	Kind     string
	Name     string
	Pack     bool // parameter pack ...
	Default_ string
}

// IsType reports whether this is a type parameter.
func (p TemplateParam) IsType() bool { return p.Kind == "typename" || p.Kind == "class" }

// AccessSpec is a member access level.
type AccessSpec int

// Access levels.
const (
	Public AccessSpec = iota
	Protected
	Private
)

// ClassDecl is a class/struct/union declaration or definition, possibly
// templated.
type ClassDecl struct {
	declBase
	Keyword        string // "class", "struct", or "union"
	Name           string
	TemplateParams []TemplateParam
	Bases          []QualifiedName
	Members        []Decl
	IsDefinition   bool
	// Parent is the enclosing class for nested classes, nil otherwise.
	Parent *ClassDecl
}

// Methods returns the member functions declared in the class body.
func (c *ClassDecl) Methods() []*FunctionDecl {
	var out []*FunctionDecl
	for _, m := range c.Members {
		if f, ok := m.(*FunctionDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// FieldsOf returns the data members.
func (c *ClassDecl) FieldsOf() []*FieldDecl {
	var out []*FieldDecl
	for _, m := range c.Members {
		if f, ok := m.(*FieldDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// IsTemplate reports whether the class is a template.
func (c *ClassDecl) IsTemplate() bool { return len(c.TemplateParams) > 0 }

// FieldDecl is a data member of a class.
type FieldDecl struct {
	declBase
	Name   string
	Type   *Type
	Access AccessSpec
	Static bool
	Init   Expr // optional in-class initializer
}

// ParamDecl is one function parameter.
type ParamDecl struct {
	Name    string // may be empty
	Type    *Type
	Default Expr // optional default argument
}

// FunctionDecl is a free function, member function, or out-of-line method
// definition (QualifierName non-empty).
type FunctionDecl struct {
	declBase
	Name           string
	QualifierName  QualifiedName // e.g. add_y for `void add_y::operator()(...)`
	TemplateParams []TemplateParam
	ReturnType     *Type
	Params         []ParamDecl
	Body           *CompoundStmt // nil for pure declarations
	IsDefinition   bool
	IsOperator     bool   // operator() etc.; Name holds "operator()"
	OperatorSpell  string // the punctuation, e.g. "()", "+", "[]"
	Const          bool   // const member function
	Static         bool
	Virtual        bool
	Inline         bool
	Constexpr      bool
	Access         AccessSpec
	// Class is the enclosing class for in-class declarations.
	Class *ClassDecl
	// NamePos is the position of the function name token (for call-site
	// independent rewrites of the declaration itself).
	NamePos token.Pos
}

// IsMethod reports whether this function is a class member (declared
// in-class or defined out-of-line with a qualifier).
func (f *FunctionDecl) IsMethod() bool {
	return f.Class != nil || !f.QualifierName.IsEmpty()
}

// IsTemplate reports whether the function is a template.
func (f *FunctionDecl) IsTemplate() bool { return len(f.TemplateParams) > 0 }

// AliasDecl is `using Name = Target;` or `typedef Target Name;`.
type AliasDecl struct {
	declBase
	Name   string
	Target *Type
}

// UsingDecl is `using Kokkos::LayoutRight;` (a using-declaration) or
// `using namespace N;` (IsNamespace true).
type UsingDecl struct {
	declBase
	Name        QualifiedName
	IsNamespace bool
}

// Enumerator is one enum constant.
type Enumerator struct {
	Name  string
	Value Expr // optional
}

// EnumDecl is an enum or enum class definition.
type EnumDecl struct {
	declBase
	Name       string
	Scoped     bool // enum class
	Underlying string
	Items      []Enumerator
}

// VarDecl is a namespace-scope or local variable declaration.
type VarDecl struct {
	declBase
	Name   string
	Type   *Type
	Init   Expr
	Static bool
	// CtorArgs holds constructor-call arguments for T x(a,b) / T x{a,b}.
	CtorArgs []Expr
}

// StaticAssertDecl is `static_assert(expr, "msg");` — parsed and retained
// but not evaluated.
type StaticAssertDecl struct {
	declBase
	Cond Expr
}

// ExplicitInstantiation is `template void f<int>(int);` or
// `template class C<int>;`.
type ExplicitInstantiation struct {
	declBase
	IsClass bool
	Name    QualifiedName
	// Fn carries the function signature for function instantiations.
	ReturnType *Type
	Params     []ParamDecl
}

// ---------------------------------------------------------------- stmts

type stmtBase struct {
	Start, Stop token.Pos
}

func (s *stmtBase) Pos() token.Pos { return s.Start }
func (s *stmtBase) End() token.Pos { return s.Stop }
func (s *stmtBase) stmtNode()      {}

// CompoundStmt is `{ ... }`.
type CompoundStmt struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt wraps a local declaration.
type DeclStmt struct {
	stmtBase
	D Decl
}

// ExprStmt is an expression statement.
type ExprStmt struct {
	stmtBase
	X Expr
}

// ReturnStmt is `return x;`.
type ReturnStmt struct {
	stmtBase
	X Expr // may be nil
}

// IfStmt is `if (cond) then else els`.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a classic for loop.
type ForStmt struct {
	stmtBase
	Init Stmt // may be nil
	Cond Expr // may be nil
	Post Expr // may be nil
	Body Stmt
}

// WhileStmt is `while (cond) body`.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// DoStmt is `do body while (cond);`.
type DoStmt struct {
	stmtBase
	Body Stmt
	Cond Expr
}

// SwitchCase is one case (or default, when Value is nil) of a switch.
type SwitchCase struct {
	Value Expr // nil for default:
	Body  []Stmt
}

// SwitchStmt is `switch (cond) { case...: ... }`.
type SwitchStmt struct {
	stmtBase
	Cond  Expr
	Cases []SwitchCase
}

// RangeForStmt is `for (decl : range) body`.
type RangeForStmt struct {
	stmtBase
	Var   *VarDecl
	Range Expr
	Body  Stmt
}

// ---------------------------------------------------------------- exprs

type exprBase struct {
	Start, Stop token.Pos
}

func (e *exprBase) Pos() token.Pos { return e.Start }
func (e *exprBase) End() token.Pos { return e.Stop }
func (e *exprBase) exprNode()      {}

// DeclRefExpr is a (possibly qualified) name used in an expression.
type DeclRefExpr struct {
	exprBase
	Name QualifiedName
}

// LiteralExpr is any literal token.
type LiteralExpr struct {
	exprBase
	Kind token.Kind
	Text string
}

// CallExpr is callee(args...). For member calls the callee is a
// MemberExpr; for operator() calls on an object, the callee is the object
// expression itself (e.g. x(j, i)).
type CallExpr struct {
	exprBase
	Callee Expr
	Args   []Expr
	// CalleeEnd is the end of the callee's source extent, i.e. the
	// position of the '(' — used to rewrite the callee only.
	CalleeEnd token.Pos
}

// MemberExpr is base.member or base->member.
type MemberExpr struct {
	exprBase
	Base   Expr
	Member string
	Arrow  bool
	// MemberPos locates the member token for rewriting.
	MemberPos token.Pos
}

// IndexExpr is base[idx].
type IndexExpr struct {
	exprBase
	Base  Expr
	Index Expr
}

// BinaryExpr covers binary operators and assignments.
type BinaryExpr struct {
	exprBase
	Op   token.Kind
	L, R Expr
}

// UnaryExpr is a prefix (or postfix when Postfix) operator.
type UnaryExpr struct {
	exprBase
	Op      token.Kind
	X       Expr
	Postfix bool
}

// ParenExpr is (x).
type ParenExpr struct {
	exprBase
	X Expr
}

// LambdaCapture is one capture in a lambda introducer.
type LambdaCapture struct {
	Name  string // "" for default captures
	ByRef bool   // &name or & default
	Init  Expr   // init-capture, optional
}

// LambdaExpr is a lambda expression — the construct Header Substitution
// must convert to a functor (Table 1).
type LambdaExpr struct {
	exprBase
	Captures       []LambdaCapture
	DefaultCapture string // "&", "=", or ""
	Params         []ParamDecl
	ReturnType     *Type // optional trailing return type
	Body           *CompoundStmt
	Mutable        bool
}

// NewExpr is `new T(args)`.
type NewExpr struct {
	exprBase
	Type *Type
	Args []Expr
}

// CastExpr is a C-style or functional cast we don't further analyze.
type CastExpr struct {
	exprBase
	Type *Type
	X    Expr
}

// InitListExpr is { a, b, c } used as an expression (braced init).
type InitListExpr struct {
	exprBase
	// TypeName is set for T{...} functional-style braced construction.
	TypeName QualifiedName
	Elems    []Expr
}

// ConditionalExpr is cond ? a : b.
type ConditionalExpr struct {
	exprBase
	Cond, Then, Else Expr
}

// ExprString renders an expression tree in approximate source form; it is
// used for diagnostics and for emitting template arguments.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *DeclRefExpr:
		return x.Name.String()
	case *LiteralExpr:
		return x.Text
	case *CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return ExprString(x.Callee) + "(" + strings.Join(args, ", ") + ")"
	case *MemberExpr:
		sep := "."
		if x.Arrow {
			sep = "->"
		}
		return ExprString(x.Base) + sep + x.Member
	case *IndexExpr:
		return ExprString(x.Base) + "[" + ExprString(x.Index) + "]"
	case *BinaryExpr:
		return ExprString(x.L) + " " + x.Op.String() + " " + ExprString(x.R)
	case *UnaryExpr:
		if x.Postfix {
			return ExprString(x.X) + x.Op.String()
		}
		return x.Op.String() + ExprString(x.X)
	case *ParenExpr:
		return "(" + ExprString(x.X) + ")"
	case *LambdaExpr:
		return "<lambda>"
	case *NewExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return "new " + x.Type.String() + "(" + strings.Join(args, ", ") + ")"
	case *CastExpr:
		return "(" + x.Type.String() + ")" + ExprString(x.X)
	case *InitListExpr:
		elems := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			elems[i] = ExprString(el)
		}
		prefix := ""
		if !x.TypeName.IsEmpty() {
			prefix = x.TypeName.String()
		}
		return prefix + "{" + strings.Join(elems, ", ") + "}"
	case *ConditionalExpr:
		return ExprString(x.Cond) + " ? " + ExprString(x.Then) + " : " + ExprString(x.Else)
	}
	return "<expr>"
}
