package core

import (
	"fmt"
	"sort"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/sema"
	"repro/internal/vfs"
)

// vfsClean normalizes a source path like the preprocessor does.
func vfsClean(p string) string { return vfs.Clean(p) }

// UsageNature records how a class is used at a site (§4.1: "YALLA records
// the usage's nature, i.e., if the type is a pointer, reference, or a
// direct usage of the class").
type UsageNature int

// Usage natures.
const (
	ByValue UsageNature = iota
	ByPointer
	ByReference
)

// ClassUse aggregates every usage of one header-declared class.
type ClassUse struct {
	Sym *sema.Symbol
	// Natures seen across all sites.
	Value, Pointer, Reference bool
	// FromAlias is the alias chain that reached the class (the paper's
	// resolveAliases: member_type → HostThreadTeamMember).
	FromAlias []*sema.Symbol
	// TemplateArity is the number of template parameters (0 for plain
	// classes) used to emit the forward declaration.
	TemplateArity int
}

// TypeSite is one by-value occurrence of a header class in a declarator,
// to be turned into a pointer (Table 1: "replace usages with pointers").
type TypeSite struct {
	File      string
	InsertOff int // where to insert '*'
	Sym       *sema.Symbol
	// EnumUnderlying is non-empty for enum sites, which are rewritten to
	// the underlying integer type instead of pointerized.
	EnumUnderlying string
	StartOff       int // start of the type tokens (for enum replacement)
}

// CallSite is one call to a header function or method.
type CallSite struct {
	File     string
	Call     *ast.CallExpr
	ArgTypes []*ast.Type
	// Object is the receiver expression for method calls (nil for free
	// functions); ObjectType its inferred type.
	Object     ast.Expr
	ObjectType *ast.Type
	// ArgPointerized marks arguments that are references to variables
	// whose declarations were converted to pointers.
	ArgPointerized []bool
	// Lambda args (index into Call.Args) that must become functors.
	LambdaArgs []int
	// Enclosing is the innermost lambda containing this call, if any.
	Enclosing *ast.LambdaExpr
}

// FuncUse aggregates calls to one header free function (per overload
// arity).
type FuncUse struct {
	Key   string // analysis map key: qualifiedName/arity
	Sym   *sema.Symbol
	Decl  *ast.FunctionDecl
	Calls []*CallSite
}

// MethodUse aggregates calls to one method of a header class (per
// overload arity).
type MethodUse struct {
	Key      string // analysis map key: classQual::method/arity
	ClassSym *sema.Symbol
	Decl     *ast.FunctionDecl // may be nil if unresolved in class body
	Name     string            // method name, e.g. "league_rank", "operator()"
	Calls    []*CallSite
}

// CtorUse records construction of a header class object by value:
// `T x(args);` which must become `T* x = <make-wrapper>(args);`.
type CtorUse struct {
	File     string
	Var      *ast.VarDecl
	ClassSym *sema.Symbol
	ArgTypes []*ast.Type
}

// LambdaUse records one lambda passed to a wrapped function.
type LambdaUse struct {
	File    string
	Lambda  *ast.LambdaExpr
	Call    *CallSite
	ArgIdx  int
	Functor string // assigned functor name
	// Captured free variables in order of first use.
	Captures []CaptureInfo
}

// CaptureInfo is one captured variable of a generated functor.
type CaptureInfo struct {
	Name        string
	Type        *ast.Type
	Pointerized bool // true when the variable was converted to a pointer
	// ByRef makes the functor member a reference: required when the
	// lambda captures by reference AND mutates the variable (a value
	// member would update a copy). Read-only by-reference captures are
	// copied, as the paper's Fig. 4a functor does with j and y.
	ByRef bool
}

// EnumRef is a reference to a header enumerator, replaced with its
// numeric value (Table 1's enum row: after substitution the enum type no
// longer exists, so usages become the underlying datatype and constants).
type EnumRef struct {
	File       string
	Start, End int
	Value      int64
	Name       string
}

// funcEnv tracks variable types inside one function for member-call
// resolution and capture analysis.
type funcEnv struct {
	fn   *ast.FunctionDecl
	vars map[string]*envVar
}

type envVar struct {
	typ         *ast.Type
	pointerized bool
	isField     bool
}

// analysis is the collected result of the analyzer phase.
type analysis struct {
	// units holds each source's user view: the top-level declarations
	// that contain a node positioned in a source (check.UserView). Every
	// walk below discards nodes positioned elsewhere, so the view gives
	// them exactly the full unit's results.
	units map[string]*ast.TranslationUnit

	classes  map[string]*ClassUse // by qualified name
	funcs    map[string]*FuncUse  // by qualified name
	methods  map[string]*MethodUse
	ctors    []*CtorUse
	lambdas  []*LambdaUse
	sites    []TypeSite
	enumRefs []EnumRef
	// pointerizedVars records variables/fields whose declared type became
	// a pointer. Because the same source location is parsed once per
	// translation unit, sites are also keyed by file:offset.
	pointerizedVars map[*ast.Type]bool
	pointerizedOffs map[string]bool
	// seen dedupes records across translation units that share files.
	seenSites map[string]bool
	seenCalls map[string]bool
	seenCtors map[string]bool

	// enclFn maps VarDecl and LambdaExpr nodes to the first function (in
	// traversal order) whose body contains them. Built lazily on first
	// environment lookup; replaces a per-lookup whole-program rescan.
	enclFn map[ast.Node]*ast.FunctionDecl
}

// enclosingFn returns the function whose body contains n, as the old
// quadratic scan would have found it: the first *ast.FunctionDecl with a
// non-nil body, in Inspect order, with n anywhere under Body.
func (an *analysis) enclosingFn(n ast.Node) *ast.FunctionDecl {
	if an.enclFn == nil {
		an.enclFn = map[ast.Node]*ast.FunctionDecl{}
		for _, tu := range an.units {
			ast.Walk(tu, func(outer ast.Node) bool {
				fn, ok := outer.(*ast.FunctionDecl)
				if !ok || fn.Body == nil {
					return true
				}
				ast.Inspect(fn.Body, func(m ast.Node) {
					switch m.(type) {
					case *ast.VarDecl, *ast.LambdaExpr:
						if _, claimed := an.enclFn[m]; !claimed {
							an.enclFn[m] = fn
						}
					}
				})
				// Inner functions were indexed by the body walk above;
				// stopping the descent keeps the outermost function the
				// owner, matching the old first-match-wins scan.
				return false
			})
		}
	}
	return an.enclFn[n]
}

func newAnalysis() *analysis {
	return &analysis{
		units:           map[string]*ast.TranslationUnit{},
		classes:         map[string]*ClassUse{},
		funcs:           map[string]*FuncUse{},
		methods:         map[string]*MethodUse{},
		pointerizedVars: map[*ast.Type]bool{},
		pointerizedOffs: map[string]bool{},
		seenSites:       map[string]bool{},
		seenCalls:       map[string]bool{},
		seenCtors:       map[string]bool{},
	}
}

// isPointerized reports whether a declarator at this type's location was
// converted to a pointer (robust across per-TU node identities).
func (a *analysis) isPointerized(ty *ast.Type) bool {
	if ty == nil {
		return false
	}
	if a.pointerizedVars[ty] {
		return true
	}
	return a.pointerizedOffs[posKeyOf(ty)]
}

func posKeyOf(ty *ast.Type) string {
	return fmt.Sprintf("%s:%d", ty.PosStart.File.Name(), int(ty.PosStart.Offset))
}

// sortedClasses returns class uses ordered by qualified name for
// deterministic output.
func (a *analysis) sortedClasses() []*ClassUse {
	keys := make([]string, 0, len(a.classes))
	for k := range a.classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*ClassUse, len(keys))
	for i, k := range keys {
		out[i] = a.classes[k]
	}
	return out
}

func (a *analysis) sortedFuncs() []*FuncUse {
	keys := make([]string, 0, len(a.funcs))
	for k := range a.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*FuncUse, len(keys))
	for i, k := range keys {
		out[i] = a.funcs[k]
	}
	return out
}

func (a *analysis) sortedMethods() []*MethodUse {
	keys := make([]string, 0, len(a.methods))
	for k := range a.methods {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*MethodUse, len(keys))
	for i, k := range keys {
		out[i] = a.methods[k]
	}
	return out
}

// analyze implements the analysis phase (Fig. 5 lines 2–10). Units are
// visited in Options.Sources order for deterministic output.
func (e *Engine) analyze() error {
	for _, src := range e.opts.Sources {
		src = vfsClean(src)
		tu := e.an.units[src]
		if tu == nil {
			continue
		}
		e.analyzeTypes(src, tu)
		e.analyzeFunctions(src, tu)
	}
	// Lines 7–10: classes referenced by used functions' signatures are
	// also used (they appear in the forward declarations).
	for _, fu := range e.an.sortedFuncs() {
		if fu.Decl == nil {
			continue
		}
		e.addSignatureClasses(fu.Decl, fu.Sym.Parent)
	}
	for _, mu := range e.an.sortedMethods() {
		if mu.Decl != nil {
			e.addSignatureClasses(mu.Decl, mu.ClassSym)
		}
	}
	e.addPreDeclared()
	return nil
}

// addPreDeclared seeds the used-symbol sets from Options.PreDeclare
// (paper §6): named classes become forward declarations, named functions
// become forward declarations or wrappers as usual, named methods
// (Class::method) become method wrappers.
func (e *Engine) addPreDeclared() {
	for _, name := range e.opts.PreDeclare {
		q := sema.ParseQualified(name)
		r := e.tables.Lookup(q, e.headerFile)
		if r == nil {
			e.diag("pre-declare: %q does not resolve in %s", name, e.opts.Header)
			continue
		}
		sym := r.Symbol
		if !e.inHeader(sym.DeclFile) {
			e.diag("pre-declare: %q is not declared by the substituted header", name)
			continue
		}
		switch sym.Kind {
		case sema.ClassSym:
			e.classUse(sym, r.AliasChain)
		case sema.FunctionSym:
			f := sym.Function()
			if f == nil {
				continue
			}
			if sym.Parent != nil && sym.Parent.Kind == sema.ClassSym {
				key := fmt.Sprintf("%s::%s/%d", sym.Parent.Qualified(), sym.Name, len(f.Params))
				if e.an.methods[key] == nil {
					e.an.methods[key] = &MethodUse{Key: key, ClassSym: sym.Parent,
						Name: sym.Name, Decl: f}
					e.classUse(sym.Parent, nil)
				}
			} else {
				key := fmt.Sprintf("%s/%d", sym.Qualified(), len(f.Params))
				if e.an.funcs[key] == nil {
					e.an.funcs[key] = &FuncUse{Key: key, Sym: sym, Decl: f}
				}
			}
			e.addSignatureClasses(f, sym.Parent)
		default:
			e.diag("pre-declare: %q is a %s; only classes and functions are supported", name, sym.Kind)
		}
	}
}

// analyzeTypes finds header-class usages in declarators of the source
// files: fields, variables, parameters, and alias targets.
func (e *Engine) analyzeTypes(src string, tu *ast.TranslationUnit) {
	ast.Inspect(tu, func(n ast.Node) {
		if !e.inSources(n.Pos().FileName()) {
			return
		}
		switch x := n.(type) {
		case *ast.FieldDecl:
			e.recordTypeUse(src, x.Type, true)
		case *ast.VarDecl:
			ptr := e.recordTypeUse(src, x.Type, true)
			if ptr != nil && x.Init == nil {
				// A by-value local of a header class constructed in place
				// (explicit arguments or default construction) becomes
				// `T* x = make_T(...)`. Assignment-initialized locals
				// (`Mat src = imread(...)`) keep their initializer, which
				// a pointer-returning wrapper already supplies as T*.
				key := fmt.Sprintf("%s:%d", n.Pos().FileName(), int(n.Pos().Offset))
				if !e.an.seenCtors[key] {
					e.an.seenCtors[key] = true
					e.an.ctors = append(e.an.ctors, &CtorUse{
						File: n.Pos().FileName(), Var: x, ClassSym: ptr,
					})
				}
			}
		case *ast.AliasDecl:
			e.recordTypeUse(src, x.Target, false)
		case *ast.FunctionDecl:
			for _, p := range x.Params {
				e.recordTypeUse(src, p.Type, true)
			}
			if x.ReturnType != nil {
				e.recordTypeUse(src, x.ReturnType, true)
			}
		case *ast.DeclRefExpr:
			e.recordEnumeratorRef(x)
		}
	})
}

// recordEnumeratorRef schedules replacement of a header enumerator
// reference with its constant value.
func (e *Engine) recordEnumeratorRef(dre *ast.DeclRefExpr) {
	r := e.tables.Lookup(dre.Name, dre.Pos().FileName())
	if r == nil || r.Symbol.Kind != sema.EnumeratorSym || !e.inHeader(r.Symbol.DeclFile) {
		return
	}
	key := fmt.Sprintf("enum:%s:%d", dre.Pos().FileName(), int(dre.Pos().Offset))
	if e.an.seenSites[key] {
		return
	}
	e.an.seenSites[key] = true
	e.an.enumRefs = append(e.an.enumRefs, EnumRef{
		File:  dre.Pos().FileName(),
		Start: int(dre.Pos().Offset),
		End:   int(dre.End().Offset),
		Value: r.Symbol.EnumValue,
		Name:  r.Symbol.Qualified(),
	})
	e.rep.EnumsRewritten++
}

// recordTypeUse resolves ty and records header-class/enum usage;
// pointerize controls whether by-value sites are scheduled for '*'
// insertion. It returns the class symbol when the type names a header
// class used by value.
func (e *Engine) recordTypeUse(src string, ty *ast.Type, pointerize bool) *sema.Symbol {
	if ty == nil || ty.Builtin {
		return nil
	}
	// Template arguments are class usages too (forward-declare only).
	for _, seg := range ty.Name.Segments {
		for _, arg := range seg.Args {
			if arg.Type != nil {
				e.recordTypeUse(src, arg.Type, false)
			}
		}
	}
	r := e.tables.Lookup(ty.Name, ty.PosStart.File.Name())
	if r == nil {
		return nil
	}
	sym := r.Symbol
	if !e.inHeader(sym.DeclFile) {
		return nil
	}
	switch sym.Kind {
	case sema.EnumSym:
		if pointerize && ty.IsByValue() {
			key := posKeyOf(ty)
			if e.an.seenSites[key] {
				return nil
			}
			e.an.seenSites[key] = true
			ed, _ := sym.Decl.(*ast.EnumDecl)
			underlying := "int"
			if ed != nil && ed.Underlying != "" {
				underlying = ed.Underlying
			}
			e.an.sites = append(e.an.sites, TypeSite{
				File: ty.PosStart.File.Name(), StartOff: int(ty.PosStart.Offset),
				InsertOff: int(ty.PosEnd.Offset), Sym: sym, EnumUnderlying: underlying,
			})
			e.rep.EnumsRewritten++
		}
		return nil
	case sema.ClassSym:
		cu := e.classUse(sym, r.AliasChain)
		switch {
		case ty.Pointer > 0:
			cu.Pointer = true
		case ty.LValueRef || ty.RValueRef:
			cu.Reference = true
		default:
			cu.Value = true
			if pointerize {
				key := posKeyOf(ty)
				e.an.pointerizedVars[ty] = true
				e.an.pointerizedOffs[key] = true
				if !e.an.seenSites[key] {
					e.an.seenSites[key] = true
					e.an.sites = append(e.an.sites, TypeSite{
						File: ty.PosStart.File.Name(), StartOff: int(ty.PosStart.Offset),
						InsertOff: int(ty.PosEnd.Offset), Sym: sym,
					})
					e.rep.PointerizedUsages++
				}
				return sym
			}
		}
		return nil
	}
	return nil
}

// classUse returns (creating if needed) the ClassUse for sym.
func (e *Engine) classUse(sym *sema.Symbol, chain []*sema.Symbol) *ClassUse {
	key := sym.Qualified()
	cu := e.an.classes[key]
	if cu == nil {
		arity := 0
		if cd := sym.Class(); cd != nil {
			arity = len(cd.TemplateParams)
		}
		cu = &ClassUse{Sym: sym, TemplateArity: arity}
		e.an.classes[key] = cu
		if len(chain) > 0 {
			cu.FromAlias = chain
			e.rep.AliasesResolved++
		}
	}
	return cu
}

// addSignatureClasses records classes appearing in a used function's
// signature (Fig. 5 lines 7–10). Names are resolved from the function's
// declaration scope (e.g. Impl::TeamThreadRangeBoundariesStruct written
// inside namespace Kokkos).
func (e *Engine) addSignatureClasses(f *ast.FunctionDecl, scope *sema.Symbol) {
	var addType func(ty *ast.Type)
	addType = func(ty *ast.Type) {
		if ty == nil || ty.Builtin {
			return
		}
		if r := e.tables.LookupScoped(ty.Name, scope, ty.PosStart.File.Name()); r != nil &&
			r.Symbol.Kind == sema.ClassSym && e.inHeader(r.Symbol.DeclFile) {
			cu := e.classUse(r.Symbol, r.AliasChain)
			if ty.Pointer > 0 {
				cu.Pointer = true
			} else if ty.LValueRef || ty.RValueRef {
				cu.Reference = true
			} else {
				cu.Value = true
			}
		}
		for _, seg := range ty.Name.Segments {
			for _, arg := range seg.Args {
				if arg.Type != nil {
					addType(arg.Type)
				}
			}
		}
	}
	addType(f.ReturnType)
	for _, p := range f.Params {
		addType(p.Type)
	}
}

// analyzeFunctions finds calls to header functions/methods and lambda
// arguments within the source files.
func (e *Engine) analyzeFunctions(src string, tu *ast.TranslationUnit) {
	// Visit every function with a body defined in a source file.
	ast.Inspect(tu, func(n ast.Node) {
		fn, ok := n.(*ast.FunctionDecl)
		if !ok || fn.Body == nil || !e.inSources(fn.Pos().FileName()) {
			return
		}
		env := e.buildEnv(fn)
		e.walkBody(src, fn.Body, env, nil)
	})
}

// buildEnv collects parameter, local, and field types for fn.
func (e *Engine) buildEnv(fn *ast.FunctionDecl) *funcEnv {
	env := &funcEnv{fn: fn, vars: map[string]*envVar{}}
	for _, p := range fn.Params {
		if p.Name != "" && p.Type != nil {
			env.vars[p.Name] = &envVar{typ: p.Type}
		}
	}
	// Fields of the enclosing class (in-class or out-of-line definition).
	var classSym *sema.Symbol
	if fn.Class != nil {
		if r := e.tables.Lookup(ast.QN(fn.Class.Name), fn.Pos().FileName()); r != nil {
			classSym = r.Symbol
		}
	} else if !fn.QualifierName.IsEmpty() {
		if r := e.tables.Lookup(fn.QualifierName, fn.Pos().FileName()); r != nil {
			classSym = r.Symbol
		}
	}
	if classSym != nil {
		classSym.EachChild(func(c *sema.Symbol) {
			if c.Kind == sema.FieldSym {
				if fd, ok := c.Decl.(*ast.FieldDecl); ok {
					env.vars[c.Name] = &envVar{typ: fd.Type, isField: true,
						pointerized: e.an.pointerizedVars[fd.Type]}
				}
			}
		})
	}
	// Locals: walk the body for declarations (flow-insensitive; fine for
	// the analysis).
	ast.Inspect(fn.Body, func(n ast.Node) {
		if ds, ok := n.(*ast.DeclStmt); ok {
			if vd, ok := ds.D.(*ast.VarDecl); ok && vd.Type != nil {
				env.vars[vd.Name] = &envVar{typ: vd.Type,
					pointerized: e.an.pointerizedVars[vd.Type]}
			}
		}
	})
	return env
}

// walkBody visits statements/expressions recording call sites. enclosing
// is the innermost lambda currently being traversed.
func (e *Engine) walkBody(src string, body ast.Node, env *funcEnv, enclosing *ast.LambdaExpr) {
	ast.Walk(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.LambdaExpr:
			// Extend env with lambda params, then walk its body under
			// this lambda.
			lamEnv := &funcEnv{fn: env.fn, vars: map[string]*envVar{}}
			for k, v := range env.vars {
				lamEnv.vars[k] = v
			}
			for _, p := range x.Params {
				if p.Name != "" && p.Type != nil {
					lamEnv.vars[p.Name] = &envVar{typ: p.Type}
				}
			}
			if x.Body != nil {
				e.walkBody(src, x.Body, lamEnv, x)
			}
			return false
		case *ast.CallExpr:
			e.recordCall(src, x, env, enclosing)
			return true
		}
		return true
	})
}

// recordCall classifies one call expression.
func (e *Engine) recordCall(src string, call *ast.CallExpr, env *funcEnv, enclosing *ast.LambdaExpr) {
	file := call.Pos().FileName()
	if !e.inSources(file) {
		return
	}
	switch callee := call.Callee.(type) {
	case *ast.DeclRefExpr:
		name := callee.Name
		// Free function declared in the header?
		if r := e.tables.Lookup(name, file); r != nil && r.Symbol.Kind == sema.FunctionSym &&
			e.inHeader(r.Symbol.DeclFile) {
			e.addFuncCall(r.Symbol, call, env, enclosing, file)
			return
		}
		// operator() call on a local/param/field object: x(j, i).
		if len(name.Segments) == 1 {
			if v, ok := env.vars[name.Segments[0].Name]; ok {
				if sym := e.headerClassOf(v.typ, file); sym != nil {
					e.addMethodCall(sym, "operator()", call, callee, v.typ, env, enclosing, file)
					return
				}
			}
		}
	case *ast.MemberExpr:
		baseTy := e.inferType(callee.Base, env)
		if sym := e.headerClassOf(baseTy, file); sym != nil {
			e.addMethodCall(sym, callee.Member, call, callee.Base, baseTy, env, enclosing, file)
		}
	}
}

// headerClassOf resolves ty to a header-declared class symbol, or nil.
func (e *Engine) headerClassOf(ty *ast.Type, fromFile string) *sema.Symbol {
	if ty == nil || ty.Builtin {
		return nil
	}
	r := e.tables.Lookup(ty.Name, ty.PosStart.File.Name())
	if r == nil {
		r = e.tables.Lookup(ty.Name, fromFile)
	}
	if r == nil || r.Symbol.Kind != sema.ClassSym || !e.inHeader(r.Symbol.DeclFile) {
		return nil
	}
	return r.Symbol
}

func (e *Engine) addFuncCall(sym *sema.Symbol, call *ast.CallExpr, env *funcEnv, enclosing *ast.LambdaExpr, file string) {
	// Chained calls share a start offset (d.Root().MemberAt(i)); the
	// callee end disambiguates.
	siteKey := fmt.Sprintf("%s:%d:%d", file, int(call.Pos().Offset), call.CalleeEnd.Offset)
	if e.an.seenCalls[siteKey] {
		return
	}
	e.an.seenCalls[siteKey] = true
	key := fmt.Sprintf("%s/%d", sym.Qualified(), len(call.Args))
	fu := e.an.funcs[key]
	if fu == nil {
		fu = &FuncUse{Key: key, Sym: sym, Decl: pickOverload(sym.Decls, len(call.Args))}
		e.an.funcs[key] = fu
	}
	cs := &CallSite{File: file, Call: call, Enclosing: enclosing}
	for i, a := range call.Args {
		cs.ArgTypes = append(cs.ArgTypes, e.inferType(a, env))
		cs.ArgPointerized = append(cs.ArgPointerized, e.argIsPointerizedVar(a, env))
		if _, ok := a.(*ast.LambdaExpr); ok {
			cs.LambdaArgs = append(cs.LambdaArgs, i)
		}
	}
	fu.Calls = append(fu.Calls, cs)
}

// argIsPointerizedVar reports whether an argument expression names a
// variable whose declaration was pointerized.
func (e *Engine) argIsPointerizedVar(a ast.Expr, env *funcEnv) bool {
	dre, ok := a.(*ast.DeclRefExpr)
	if !ok || len(dre.Name.Segments) != 1 {
		return false
	}
	v, ok := env.vars[dre.Name.Segments[0].Name]
	return ok && (v.pointerized || e.an.isPointerized(v.typ))
}

func (e *Engine) addMethodCall(classSym *sema.Symbol, method string, call *ast.CallExpr, object ast.Expr, objType *ast.Type, env *funcEnv, enclosing *ast.LambdaExpr, file string) {
	siteKey := fmt.Sprintf("%s:%d:%d", file, int(call.Pos().Offset), call.CalleeEnd.Offset)
	if e.an.seenCalls[siteKey] {
		return
	}
	e.an.seenCalls[siteKey] = true
	// Overloads are distinguished by arity so each gets a wrapper with
	// the right signature.
	key := fmt.Sprintf("%s::%s/%d", classSym.Qualified(), method, len(call.Args))
	mu := e.an.methods[key]
	if mu == nil {
		mu = &MethodUse{Key: key, ClassSym: classSym, Name: method}
		if ms := classSym.FirstChild(method); ms != nil {
			mu.Decl = pickOverload(ms.Decls, len(call.Args))
		}
		e.an.methods[key] = mu
	}
	cs := &CallSite{File: file, Call: call, Object: object, ObjectType: objType, Enclosing: enclosing}
	for i, a := range call.Args {
		cs.ArgTypes = append(cs.ArgTypes, e.inferType(a, env))
		cs.ArgPointerized = append(cs.ArgPointerized, e.argIsPointerizedVar(a, env))
		if _, ok := a.(*ast.LambdaExpr); ok {
			cs.LambdaArgs = append(cs.LambdaArgs, i)
		}
	}
	mu.Calls = append(mu.Calls, cs)
	// The receiver's class is a used class.
	e.classUse(classSym, nil)
}

// inferType infers the static type of an expression from the environment;
// nil when unknown.
func (e *Engine) inferType(x ast.Expr, env *funcEnv) *ast.Type {
	switch v := x.(type) {
	case *ast.LiteralExpr:
		switch v.Text {
		case "true", "false":
			return builtinType("bool")
		case "nullptr":
			return builtinType("nullptr_t")
		case "this":
			return nil
		}
		return literalType(v)
	case *ast.DeclRefExpr:
		if len(v.Name.Segments) == 1 {
			if ev, ok := env.vars[v.Name.Segments[0].Name]; ok {
				return ev.typ
			}
		}
		if r := e.tables.Lookup(v.Name, v.Pos().FileName()); r != nil {
			switch r.Symbol.Kind {
			case sema.VarSym:
				if vd, ok := r.Symbol.Decl.(*ast.VarDecl); ok {
					return vd.Type
				}
			case sema.EnumeratorSym:
				return builtinType("int")
			}
		}
		return nil
	case *ast.CallExpr:
		switch callee := v.Callee.(type) {
		case *ast.DeclRefExpr:
			if r := e.tables.Lookup(callee.Name, v.Pos().FileName()); r != nil && r.Symbol.Kind == sema.FunctionSym {
				if f := r.Symbol.Function(); f != nil {
					return e.concreteReturnType(r.Symbol, f, v, env)
				}
			}
			// operator() on an object variable.
			if len(callee.Name.Segments) == 1 {
				if ev, ok := env.vars[callee.Name.Segments[0].Name]; ok {
					if sym := e.headerClassOf(ev.typ, v.Pos().FileName()); sym != nil {
						if op := sym.FirstChild("operator()"); op != nil && op.Function() != nil {
							return e.methodResultType(sym, op.Function(), ev.typ)
						}
					}
				}
			}
		case *ast.MemberExpr:
			baseTy := e.inferType(callee.Base, env)
			if sym := e.headerClassOf(baseTy, v.Pos().FileName()); sym != nil {
				if m := sym.FirstChild(callee.Member); m != nil && m.Function() != nil {
					return e.methodResultType(sym, m.Function(), baseTy)
				}
			}
		}
		return nil
	case *ast.MemberExpr:
		baseTy := e.inferType(v.Base, env)
		if sym := e.headerClassOf(baseTy, v.Pos().FileName()); sym != nil {
			if f := sym.FirstChild(v.Member); f != nil {
				if fd, ok := f.Decl.(*ast.FieldDecl); ok {
					return e.qualifySubst(fd.Type, sym, e.classArgSubst(sym, baseTy))
				}
			}
		}
		return nil
	case *ast.BinaryExpr:
		return e.inferType(v.L, env)
	case *ast.UnaryExpr:
		t := e.inferType(v.X, env)
		if t == nil {
			return nil
		}
		switch v.Op {
		case starKind:
			if t.Pointer > 0 {
				c := t.Clone()
				c.Pointer--
				return c
			}
		case ampKind:
			c := t.Clone()
			c.Pointer++
			return c
		}
		return t
	case *ast.ParenExpr:
		return e.inferType(v.X, env)
	case *ast.IndexExpr:
		t := e.inferType(v.Base, env)
		if t != nil && t.Pointer > 0 {
			c := t.Clone()
			c.Pointer--
			return c
		}
		return t
	case *ast.NewExpr:
		if v.Type != nil {
			c := v.Type.Clone()
			c.Pointer++
			return c
		}
	case *ast.CastExpr:
		return v.Type
	case *ast.InitListExpr:
		if !v.TypeName.IsEmpty() {
			return &ast.Type{Name: v.TypeName, PosStart: v.Pos()}
		}
	case *ast.ConditionalExpr:
		return e.inferType(v.Then, env)
	case *ast.LambdaExpr:
		return &ast.Type{Name: ast.QN("<lambda>"), PosStart: v.Pos()}
	}
	return nil
}

func builtinType(name string) *ast.Type {
	return &ast.Type{Name: ast.QN(name), Builtin: true}
}

// concreteReturnType computes a call's result type with the callee's
// template parameters substituted by their deduced arguments and
// header-class names fully qualified, so downstream analysis (wrapper
// detection, explicit instantiation) sees usable types.
func (e *Engine) concreteReturnType(fsym *sema.Symbol, f *ast.FunctionDecl, call *ast.CallExpr, env *funcEnv) *ast.Type {
	rt := f.ReturnType
	if rt == nil {
		return nil
	}
	subst := map[string]string{}
	if f.IsTemplate() {
		// Explicit template args at the call site.
		if dre, ok := call.Callee.(*ast.DeclRefExpr); ok {
			for i, a := range dre.Name.Last().Args {
				if i >= len(f.TemplateParams) {
					break
				}
				if a.Type != nil {
					subst[f.TemplateParams[i].Name] = e.typeText(a.Type, nil, nil)
				}
			}
		}
		// Deduce from arguments whose parameter type is a bare template
		// parameter (possibly with declarators).
		for i, p := range f.Params {
			if i >= len(call.Args) || p.Type == nil {
				continue
			}
			if len(p.Type.Name.Segments) != 1 || len(p.Type.Name.Segments[0].Args) != 0 {
				continue
			}
			tp := p.Type.Name.Segments[0].Name
			if subst[tp] != "" || !isTemplateParam(f, tp) {
				continue
			}
			if at := e.inferType(call.Args[i], env); at != nil {
				subst[tp] = e.valueTypeText(at, call.Pos().FileName())
			}
		}
	}
	return e.qualifySubst(rt, fsym.Parent, subst)
}

// pickOverload selects the declaration whose parameter count accepts the
// given argument count (default arguments allow fewer args).
func pickOverload(decls []ast.Decl, args int) *ast.FunctionDecl {
	var first *ast.FunctionDecl
	for _, d := range decls {
		f, ok := d.(*ast.FunctionDecl)
		if !ok {
			continue
		}
		if first == nil {
			first = f
		}
		if len(f.Params) == args {
			return f
		}
		required := 0
		for _, p := range f.Params {
			if p.Default == nil {
				required++
			}
		}
		if args >= required && args <= len(f.Params) {
			return f
		}
	}
	return first
}

// methodResultType qualifies a method's return type against its class's
// scope with the receiver's template arguments substituted, so chained
// calls (d.Root().MemberAt(i)) resolve their intermediate class types.
func (e *Engine) methodResultType(classSym *sema.Symbol, m *ast.FunctionDecl, recv *ast.Type) *ast.Type {
	return e.qualifySubst(m.ReturnType, classSym, e.classArgSubst(classSym, recv))
}

// classArgSubst maps a class's template parameters to the receiver type's
// argument texts.
func (e *Engine) classArgSubst(classSym *sema.Symbol, recv *ast.Type) map[string]string {
	cd := classSym.Class()
	if cd == nil || !cd.IsTemplate() || recv == nil {
		return nil
	}
	args := recv.Name.Last().Args
	subst := map[string]string{}
	for i, tp := range cd.TemplateParams {
		if i < len(args) && args[i].Type != nil {
			subst[tp.Name] = e.typeText(args[i].Type, nil, nil)
		} else if tp.Default_ != "" {
			subst[tp.Name] = tp.Default_
		}
	}
	return subst
}

func isTemplateParam(f *ast.FunctionDecl, name string) bool {
	for _, tp := range f.TemplateParams {
		if tp.Name == name {
			return true
		}
	}
	return false
}

// qualifySubst rewrites a type so that header-class names are fully
// qualified and template-parameter names are replaced with their deduced
// texts (as opaque segments).
func (e *Engine) qualifySubst(ty *ast.Type, scope *sema.Symbol, subst map[string]string) *ast.Type {
	if ty == nil || ty.Builtin {
		return ty
	}
	out := ty.Clone()
	if len(ty.Name.Segments) == 1 && len(ty.Name.Segments[0].Args) == 0 {
		if rep, ok := subst[ty.Name.Segments[0].Name]; ok {
			out.Name = ast.QN(rep)
			return out
		}
	}
	name := ty.Name
	if r := e.tables.LookupScoped(ty.Name, scope, ty.PosStart.File.Name()); r != nil &&
		(r.Symbol.Kind == sema.ClassSym || r.Symbol.Kind == sema.EnumSym) {
		name = sema.ParseQualified(r.Symbol.Qualified())
	}
	// Rebuild the last segment's template args with substitution applied,
	// on a copy of the segments: ty may belong to a shared, cached tree.
	lastOrig := ty.Name.Last()
	if len(lastOrig.Args) > 0 {
		name.Segments = append([]ast.NameSegment(nil), name.Segments...)
		var args []ast.TemplateArg
		for _, a := range lastOrig.Args {
			if a.Type != nil {
				args = append(args, ast.TemplateArg{Type: e.qualifySubst(a.Type, scope, subst)})
			} else {
				args = append(args, a)
			}
		}
		name.Segments[len(name.Segments)-1].Args = args
	}
	out.Name = name
	return out
}

func literalType(v *ast.LiteralExpr) *ast.Type {
	switch v.Kind {
	case intLitKind:
		return &ast.Type{Name: ast.QN("int"), Builtin: true}
	case floatLitKind:
		return &ast.Type{Name: ast.QN("double"), Builtin: true}
	case charLitKind:
		return &ast.Type{Name: ast.QN("char"), Builtin: true}
	case stringLitKind:
		return &ast.Type{Name: ast.QN("const char"), Builtin: true, Pointer: 1}
	}
	return &ast.Type{Name: ast.QN("int"), Builtin: true}
}
