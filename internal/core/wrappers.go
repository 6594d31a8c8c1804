package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/sema"
)

// WrapperKind classifies generated wrappers.
type WrapperKind int

// Wrapper kinds (Table 1 rows).
const (
	FuncWrapper WrapperKind = iota
	MethodWrapper
	FieldWrapper
	CtorWrapper
)

// Wrapper is one generated function/method/field/constructor wrapper: its
// declaration goes into the lightweight header, its definition and
// explicit instantiations into wrappers.cpp (§3.4).
type Wrapper struct {
	Kind WrapperKind
	// Name is the emitted wrapper name (e.g. TeamThreadRange_w,
	// league_rank, paren_operator).
	Name string
	// Target is the qualified name of the wrapped entity.
	Target string
	Decl   string   // declaration for the lightweight header
	Def    string   // definition for wrappers.cpp
	Insts  []string // explicit instantiations for wrappers.cpp
	// ReturnsPointer reports that the wrapper heap-allocates and returns
	// a pointer (incomplete-by-value return conversion).
	ReturnsPointer bool
	// PointerParams indexes parameters converted from by-value incomplete
	// types to pointers.
	PointerParams map[int]bool
}

// wrapperSet carries all wrappers plus lookup maps used by the source
// transformation phase.
type wrapperSet struct {
	all []*Wrapper
	// funcWrapper maps a function's qualified name to its wrapper (nil
	// entry means the function is forward declared, not wrapped).
	funcWrapper map[string]*Wrapper
	// methodWrapper maps classQual::method to the wrapper.
	methodWrapper map[string]*Wrapper
	// ctorWrapper maps class qualified name to the make-wrapper.
	ctorWrapper map[string]*Wrapper
	// fwdFuncs are used functions that are forward declared unwrapped.
	fwdFuncs []*FuncUse
	// usedNames prevents emitted-name collisions.
	usedNames map[string]bool
	// lambdaNames maps instantiation placeholders to generated functor
	// names, patched into explicit instantiations at emission.
	lambdaNames map[string]string
}

func newWrapperSet() *wrapperSet {
	return &wrapperSet{
		funcWrapper:   map[string]*Wrapper{},
		methodWrapper: map[string]*Wrapper{},
		ctorWrapper:   map[string]*Wrapper{},
		usedNames:     map[string]bool{},
		lambdaNames:   map[string]string{},
	}
}

func (ws *wrapperSet) uniqueName(base string) string {
	name := base
	for i := 2; ws.usedNames[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	ws.usedNames[name] = true
	return name
}

// buildWrappers implements Fig. 5 lines 15–22 plus the method/field rows
// of Table 1.
func (e *Engine) buildWrappers() *wrapperSet {
	ws := newWrapperSet()

	for _, fu := range e.an.sortedFuncs() {
		if e.needsWrapper(fu) {
			w := e.createFunctionWrapper(ws, fu)
			ws.all = append(ws.all, w)
			ws.funcWrapper[fu.Key] = w
			e.rep.FunctionWrappers++
		} else {
			ws.fwdFuncs = append(ws.fwdFuncs, fu)
		}
	}
	for _, mu := range e.an.sortedMethods() {
		w := e.createMethodWrapper(ws, mu)
		ws.all = append(ws.all, w)
		ws.methodWrapper[mu.Key] = w
		e.rep.MethodWrappers++
	}
	for _, cu := range e.an.ctors {
		key := e.ctorKey(cu)
		if ws.ctorWrapper[key] == nil {
			w := e.createCtorWrapper(ws, cu)
			ws.all = append(ws.all, w)
			ws.ctorWrapper[key] = w
			e.rep.FunctionWrappers++
		}
	}
	return ws
}

// needsWrapper reports whether a used function cannot simply be forward
// declared: its return type or a parameter is a header class passed by
// value (incomplete after substitution), per §3.2.2.
func (e *Engine) needsWrapper(fu *FuncUse) bool {
	f := fu.Decl
	if f == nil {
		return false
	}
	scope := fu.Sym.Parent
	if rt := f.ReturnType; rt != nil && rt.IsByValue() && e.scopedHeaderClass(rt, scope) != nil {
		return true
	}
	for _, p := range f.Params {
		if p.Type != nil && p.Type.IsByValue() && e.scopedHeaderClass(p.Type, scope) != nil {
			return true
		}
		// A by-value parameter whose type is a template parameter that
		// receives an incomplete type at some call site also forces a
		// wrapper; detect via call-site argument types.
	}
	// If any call site passes a (now-pointer) header-class value where the
	// function takes it by template value parameter, wrap as well; same
	// when a pointerized variable is passed to a reference parameter.
	for _, cs := range fu.Calls {
		for i, at := range cs.ArgTypes {
			if at != nil && at.IsByValue() && e.headerClassOf(at, cs.File) != nil {
				return true
			}
			if i < len(cs.ArgPointerized) && cs.ArgPointerized[i] {
				return true
			}
		}
	}
	return false
}

// anyPointerizedArg reports whether any call site passes a pointerized
// variable at parameter index i.
func anyPointerizedArg(fu *FuncUse, i int) bool {
	for _, cs := range fu.Calls {
		if i < len(cs.ArgPointerized) && cs.ArgPointerized[i] {
			return true
		}
	}
	return false
}

// paramGetsIncompleteValue reports whether parameter i has a bare
// template-parameter type and receives a header-class value at some call
// site.
func (e *Engine) paramGetsIncompleteValue(f *ast.FunctionDecl, fu *FuncUse, i int) bool {
	p := f.Params[i]
	if p.Type == nil || len(p.Type.Name.Segments) != 1 || len(p.Type.Name.Segments[0].Args) != 0 {
		return false
	}
	if !isTemplateParam(f, p.Type.Name.Segments[0].Name) {
		return false
	}
	for _, cs := range fu.Calls {
		if i < len(cs.ArgTypes) {
			at := cs.ArgTypes[i]
			if at != nil && at.IsByValue() && e.headerClassOf(at, cs.File) != nil {
				return true
			}
		}
	}
	return false
}

// scopedHeaderClass resolves ty from within scope and returns the header
// class symbol or nil.
func (e *Engine) scopedHeaderClass(ty *ast.Type, scope *sema.Symbol) *sema.Symbol {
	if ty == nil || ty.Builtin {
		return nil
	}
	r := e.tables.LookupScoped(ty.Name, scope, ty.PosStart.File.Name())
	if r == nil || r.Symbol.Kind != sema.ClassSym || !e.inHeader(r.Symbol.DeclFile) {
		return nil
	}
	return r.Symbol
}

// typeText renders a type with header-class names fully qualified and
// template parameters substituted via subst (name → concrete text).
func (e *Engine) typeText(ty *ast.Type, scope *sema.Symbol, subst map[string]string) string {
	if ty == nil {
		return "void"
	}
	var b strings.Builder
	if ty.Const {
		b.WriteString("const ")
	}
	b.WriteString(e.nameText(ty.Name, ty.PosStart.File.Name(), scope, subst))
	b.WriteString(strings.Repeat("*", ty.Pointer))
	if ty.LValueRef {
		b.WriteString("&")
	}
	if ty.RValueRef {
		b.WriteString("&&")
	}
	return b.String()
}

// nameText renders a qualified name, qualifying header symbols fully and
// applying substitutions to bare template-parameter names.
func (e *Engine) nameText(q ast.QualifiedName, fromFile string, scope *sema.Symbol, subst map[string]string) string {
	if len(q.Segments) == 1 && len(q.Segments[0].Args) == 0 {
		if rep, ok := subst[q.Segments[0].Name]; ok {
			return rep
		}
	}
	base := q.Plain()
	if r := e.tables.LookupScoped(q, scope, fromFile); r != nil &&
		(r.Symbol.Kind == sema.ClassSym || r.Symbol.Kind == sema.EnumSym) {
		base = r.Symbol.Qualified()
	}
	last := q.Last()
	if len(last.Args) == 0 {
		return base
	}
	var args []string
	for _, a := range last.Args {
		switch {
		case a.Type != nil:
			args = append(args, e.typeText(a.Type, scope, subst))
		case a.Expr != nil:
			args = append(args, ast.ExprString(a.Expr))
		}
	}
	return base + "<" + strings.Join(args, ", ") + ">"
}

// createFunctionWrapper builds the wrapper for a free function whose
// signature involves incomplete-by-value types (§3.2.2, Fig. 4a lines
// 10–16).
func (e *Engine) createFunctionWrapper(ws *wrapperSet, fu *FuncUse) *Wrapper {
	f := fu.Decl
	scope := fu.Sym.Parent
	w := &Wrapper{
		Kind:          FuncWrapper,
		Name:          ws.uniqueName(f.Name + "_w"),
		Target:        fu.Sym.Qualified(),
		PointerParams: map[int]bool{},
	}

	tmplHdr := ""
	if f.IsTemplate() {
		tmplHdr = templateHeader(f.TemplateParams, false) + "\n"
	}

	// Return type.
	retText := e.typeText(f.ReturnType, scope, nil)
	retWrap := false
	if rt := f.ReturnType; rt != nil && rt.IsByValue() && e.scopedHeaderClass(rt, scope) != nil {
		retWrap = true
		w.ReturnsPointer = true
	}
	declRet := retText
	if retWrap {
		declRet = retText + "*"
	}

	// Parameters. A parameter becomes a pointer when its declared type is
	// an incomplete-by-value header class, or when it is a by-value
	// template parameter that receives a header-class value at some call
	// site (that value is itself produced by a pointer-returning
	// wrapper, as with parallel_for's policy argument).
	var declParams, callArgs []string
	for i, p := range f.Params {
		pname := p.Name
		if pname == "" || pname == "..." {
			pname = fmt.Sprintf("a%d", i)
		}
		ptext := e.typeText(p.Type, scope, nil)
		pointerize := false
		if p.Type != nil {
			switch {
			case p.Type.IsByValue() && (e.scopedHeaderClass(p.Type, scope) != nil ||
				e.paramGetsIncompleteValue(f, fu, i)):
				pointerize = true
			case (p.Type.LValueRef || p.Type.IsByValue()) && anyPointerizedArg(fu, i):
				// A reference (or deduced-value) parameter receiving a
				// variable that substitution converted to a pointer.
				pointerize = true
			}
		}
		if pointerize {
			base := strings.TrimRight(ptext, "&")
			declParams = append(declParams, base+"* "+pname)
			callArgs = append(callArgs, "*"+pname)
			w.PointerParams[i] = true
		} else {
			declParams = append(declParams, ptext+" "+pname)
			callArgs = append(callArgs, pname)
		}
	}
	sig := fmt.Sprintf("%s%s %s(%s)", tmplHdr, declRet, w.Name, strings.Join(declParams, ", "))
	w.Decl = sig + ";"

	origCall := fmt.Sprintf("%s(%s)", w.Target, strings.Join(callArgs, ", "))
	body := ""
	if retWrap {
		body = fmt.Sprintf("  return new %s(%s);", retText, origCall)
	} else if retText == "void" {
		body = fmt.Sprintf("  %s;", origCall)
	} else {
		body = fmt.Sprintf("  return %s;", origCall)
	}
	w.Def = sig + " {\n" + body + "\n}"

	// Explicit instantiations per call site (§3.4).
	w.Insts = e.functionInstantiations(w, fu, declRet, declParams)
	return w
}

// functionInstantiations computes explicit-instantiation statements for a
// wrapper from its call sites' deduced template arguments.
func (e *Engine) functionInstantiations(w *Wrapper, fu *FuncUse, declRet string, declParams []string) []string {
	f := fu.Decl
	if !f.IsTemplate() {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, cs := range fu.Calls {
		subst := e.deduceTemplateArgs(f, cs)
		if subst == nil {
			e.diag("cannot deduce template arguments for %s at %s; emitting no instantiation", w.Target, cs.Call.Pos())
			continue
		}
		var argTexts []string
		complete := true
		for _, tp := range f.TemplateParams {
			t, ok := subst[tp.Name]
			if !ok {
				complete = false
				break
			}
			argTexts = append(argTexts, t)
		}
		if !complete {
			e.diag("partial template deduction for %s at %s", w.Target, cs.Call.Pos())
			continue
		}
		inst := e.renderInstantiation(w.Name, f, fu.Sym.Parent, argTexts, w)
		if !seen[inst] {
			seen[inst] = true
			out = append(out, inst)
		}
	}
	return out
}

// renderInstantiation renders `template RET name<args>(params);` with the
// substitution applied.
func (e *Engine) renderInstantiation(name string, f *ast.FunctionDecl, scope *sema.Symbol, argTexts []string, w *Wrapper) string {
	subst := map[string]string{}
	for i, tp := range f.TemplateParams {
		if i < len(argTexts) {
			subst[tp.Name] = argTexts[i]
		}
	}
	ret := e.typeText(f.ReturnType, scope, subst)
	if w != nil && w.ReturnsPointer {
		ret += "*"
	}
	var params []string
	for i, p := range f.Params {
		pt := e.typeText(p.Type, scope, subst)
		if w != nil && w.PointerParams[i] {
			pt = strings.TrimRight(pt, "&") + "*"
		}
		params = append(params, pt)
	}
	return fmt.Sprintf("template %s %s<%s>(%s);", ret, name, strings.Join(argTexts, ", "), strings.Join(params, ", "))
}

// deduceTemplateArgs deduces template arguments for f at a call site:
// explicit arguments win; otherwise parameters whose type is exactly a
// template parameter (possibly with declarators) deduce from the inferred
// argument type.
func (e *Engine) deduceTemplateArgs(f *ast.FunctionDecl, cs *CallSite) map[string]string {
	subst := map[string]string{}
	// Explicit template arguments at the call site.
	if dre, ok := cs.Call.Callee.(*ast.DeclRefExpr); ok {
		args := dre.Name.Last().Args
		for i, a := range args {
			if i >= len(f.TemplateParams) {
				break
			}
			switch {
			case a.Type != nil:
				subst[f.TemplateParams[i].Name] = e.typeText(a.Type, nil, nil)
			case a.Expr != nil:
				subst[f.TemplateParams[i].Name] = ast.ExprString(a.Expr)
			}
		}
	}
	// Deduce from argument types.
	for i, p := range f.Params {
		if i >= len(cs.ArgTypes) {
			break
		}
		at := cs.ArgTypes[i]
		if at == nil || p.Type == nil {
			continue
		}
		pn := p.Type.Name
		if len(pn.Segments) != 1 || len(pn.Segments[0].Args) != 0 {
			continue
		}
		tpName := pn.Segments[0].Name
		isParam := false
		for _, tp := range f.TemplateParams {
			if tp.Name == tpName {
				isParam = true
				break
			}
		}
		if !isParam || subst[tpName] != "" {
			continue
		}
		if at.Name.Plain() == "<lambda>" {
			// Lambdas become functors; the functor name is filled in by
			// the lambda transformation and patched later.
			subst[tpName] = lambdaPlaceholder(cs, indexOfLambdaArg(cs, i))
			continue
		}
		subst[tpName] = e.valueTypeText(at, cs.File)
	}
	if len(subst) == 0 {
		return nil
	}
	return subst
}

func indexOfLambdaArg(cs *CallSite, argIdx int) int {
	for n, li := range cs.LambdaArgs {
		if li == argIdx {
			return n
		}
	}
	return 0
}

// lambdaPlaceholder is the token patched with the generated functor name
// during emission.
func lambdaPlaceholder(cs *CallSite, n int) string {
	return fmt.Sprintf("__YALLA_LAMBDA_%p_%d__", cs.Call, n)
}

// createMethodWrapper builds the wrapper for a class method (§3.2.3,
// Fig. 4a lines 17–21): first parameter is the object (templated so both
// T and T* instantiations work via yalla_deref), remaining parameters
// match the method.
func (e *Engine) createMethodWrapper(ws *wrapperSet, mu *MethodUse) *Wrapper {
	base := mu.Name
	if base == "operator()" {
		base = "paren_operator"
	} else if strings.HasPrefix(base, "operator") {
		base = "op_" + sanitizeIdent(strings.TrimPrefix(base, "operator"))
	}
	w := &Wrapper{
		Kind:          MethodWrapper,
		Name:          ws.uniqueName(base),
		Target:        mu.ClassSym.Qualified() + "::" + mu.Name,
		PointerParams: map[int]bool{},
	}

	// Substitution of the class's template parameters using the object
	// type at the first call site (concretizes the return type, as the
	// paper does: int& paren_operator).
	classSubst := e.classSubstFor(mu)

	retText := "void"
	retWrap := false
	var mparams []ast.ParamDecl
	if mu.Decl != nil {
		rt := mu.Decl.ReturnType
		retText = e.typeText(rt, mu.ClassSym, classSubst)
		// A method returning a header class by value (e.g. Mat::clone)
		// heap-allocates like a function wrapper does (§3.2.2).
		if rt != nil && rt.IsByValue() && e.scopedHeaderClass(rt, mu.ClassSym) != nil {
			retWrap = true
			w.ReturnsPointer = true
		}
		mparams = mu.Decl.Params
	}
	declRet := retText
	if retWrap {
		declRet += "*"
	}

	declParams := []string{"ObjectT& o"}
	callArgs := []string{}
	pointerParam := func(i int) bool {
		for _, cs := range mu.Calls {
			if i < len(cs.ArgPointerized) && cs.ArgPointerized[i] {
				return true
			}
		}
		return false
	}
	for i, p := range mparams {
		pname := p.Name
		if pname == "" {
			pname = fmt.Sprintf("a%d", i)
		}
		ptext := e.typeText(p.Type, mu.ClassSym, classSubst)
		if pointerParam(i) {
			// The argument variable was converted to a pointer; accept a
			// pointer and dereference at the original call.
			declParams = append(declParams, strings.TrimRight(ptext, "&")+"* "+pname)
			callArgs = append(callArgs, "*"+pname)
			w.PointerParams[i] = true
		} else {
			declParams = append(declParams, ptext+" "+pname)
			callArgs = append(callArgs, pname)
		}
	}
	sig := fmt.Sprintf("template <class ObjectT>\n%s %s(%s)", declRet, w.Name, strings.Join(declParams, ", "))
	w.Decl = sig + ";"

	invoke := ""
	if mu.Name == "operator()" {
		invoke = fmt.Sprintf("yalla_deref(o)(%s)", strings.Join(callArgs, ", "))
	} else {
		invoke = fmt.Sprintf("yalla_deref(o).%s(%s)", mu.Name, strings.Join(callArgs, ", "))
	}
	body := "  " + invoke + ";"
	switch {
	case retWrap:
		body = fmt.Sprintf("  return new %s(%s);", retText, invoke)
	case retText != "void":
		body = "  return " + invoke + ";"
	}
	w.Def = sig + " {\n" + body + "\n}"

	// One instantiation per distinct object type.
	seen := map[string]bool{}
	for _, cs := range mu.Calls {
		objText := e.objectTypeText(cs)
		if objText == "" {
			continue
		}
		var ptexts []string
		ptexts = append(ptexts, objText+"&")
		for i, p := range mparams {
			pt := e.typeText(p.Type, mu.ClassSym, classSubst)
			if w.PointerParams[i] {
				pt = strings.TrimRight(pt, "&") + "*"
			}
			ptexts = append(ptexts, pt)
		}
		inst := fmt.Sprintf("template %s %s<%s>(%s);", declRet, w.Name, objText, strings.Join(ptexts, ", "))
		if !seen[inst] {
			seen[inst] = true
			w.Insts = append(w.Insts, inst)
		}
	}
	return w
}

// classSubstFor maps the class's template parameter names to the concrete
// argument texts taken from the first call site's object type.
func (e *Engine) classSubstFor(mu *MethodUse) map[string]string {
	cd := mu.ClassSym.Class()
	if cd == nil || !cd.IsTemplate() || len(mu.Calls) == 0 {
		return nil
	}
	obj := mu.Calls[0].ObjectType
	if obj == nil {
		return nil
	}
	resolved := e.resolveTypeDeep(obj, mu.Calls[0].File)
	args := resolved.Name.Last().Args
	subst := map[string]string{}
	for i, tp := range cd.TemplateParams {
		if i < len(args) {
			switch {
			case args[i].Type != nil:
				subst[tp.Name] = e.typeText(args[i].Type, nil, nil)
			case args[i].Expr != nil:
				subst[tp.Name] = ast.ExprString(args[i].Expr)
			}
		} else if tp.Default_ != "" {
			subst[tp.Name] = tp.Default_
		}
	}
	return subst
}

// objectTypeText renders the concrete object type of a method call site
// (deep-resolved, reference-stripped), with a trailing '*' when the
// receiver variable was pointerized.
func (e *Engine) objectTypeText(cs *CallSite) string {
	if cs.ObjectType == nil {
		return ""
	}
	text := e.valueTypeText(cs.ObjectType, cs.File)
	if e.an.isPointerized(cs.ObjectType) {
		text += "*"
	}
	return text
}

// ctorKey identifies one constructor wrapper. Keying by class name alone
// is wrong for templates: `View<int*> x("x", 64)` and
// `View<int**> A("A", 64, 64)` need different wrappers (different return
// type and arity), so the key is the deep-resolved declared type plus
// the argument signature.
func (e *Engine) ctorKey(cu *CtorUse) string {
	parts := []string{e.valueTypeText(cu.Var.Type, cu.File)}
	for _, info := range e.ctorArgTypes(cu) {
		t := info.text
		if info.pointer {
			t += "*"
		}
		parts = append(parts, t)
	}
	return strings.Join(parts, "|")
}

// createCtorWrapper builds `C* yalla_make_C(args) { return new C(args); }`
// for by-value constructions of header classes.
func (e *Engine) createCtorWrapper(ws *wrapperSet, cu *CtorUse) *Wrapper {
	qual := cu.ClassSym.Qualified()
	w := &Wrapper{
		Kind:   CtorWrapper,
		Name:   ws.uniqueName("yalla_make_" + sanitizeIdent(cu.ClassSym.Name)),
		Target: qual,
	}
	// Use the declared type at the ctor site for template arguments,
	// deep-resolved so the wrapper is self-contained.
	typeText := e.valueTypeText(cu.Var.Type, cu.File)
	var params, args []string
	for i, info := range e.ctorArgTypes(cu) {
		pn := fmt.Sprintf("a%d", i)
		if info.pointer {
			params = append(params, info.text+"* "+pn)
			args = append(args, "*"+pn)
		} else {
			params = append(params, info.text+" "+pn)
			args = append(args, pn)
		}
	}
	sig := fmt.Sprintf("%s* %s(%s)", typeText, w.Name, strings.Join(params, ", "))
	w.Decl = sig + ";"
	w.Def = fmt.Sprintf("%s {\n  return new %s(%s);\n}", sig, typeText, strings.Join(args, ", "))
	return w
}

// ctorParamInfo describes one constructor-wrapper parameter.
type ctorParamInfo struct {
	text    string
	pointer bool // header-class argument passed as a pointer
}

// ctorArgTypes renders the constructor argument types for one ctor use.
// Header-class arguments arrive as pointers (their variables were
// pointerized) and are dereferenced inside the wrapper.
func (e *Engine) ctorArgTypes(cu *CtorUse) []ctorParamInfo {
	env := e.envForVarDecl(cu)
	var out []ctorParamInfo
	for _, a := range cu.Var.CtorArgs {
		t := e.inferType(a, env)
		if t == nil {
			out = append(out, ctorParamInfo{text: "int"})
			continue
		}
		if t.IsByValue() && e.headerClassOf(t, cu.File) != nil {
			out = append(out, ctorParamInfo{text: e.valueTypeText(t, cu.File), pointer: true})
			continue
		}
		out = append(out, ctorParamInfo{text: e.valueTypeText(t, cu.File)})
	}
	return out
}

// envForVarDecl rebuilds the variable environment around a constructor
// use so its argument types can be inferred.
func (e *Engine) envForVarDecl(cu *CtorUse) *funcEnv {
	if fn := e.an.enclosingFn(cu.Var); fn != nil {
		return e.buildEnv(fn)
	}
	return &funcEnv{vars: map[string]*envVar{}}
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '(':
			b.WriteString("paren")
		case r == '[':
			b.WriteString("idx")
		case r == '+':
			b.WriteString("plus")
		case r == '-':
			b.WriteString("minus")
		case r == '*':
			b.WriteString("star")
		case r == '=':
			b.WriteString("eq")
		case r == '<':
			b.WriteString("lt")
		case r == '>':
			b.WriteString("gt")
		}
	}
	return b.String()
}

// sortedInsts returns all explicit instantiations, deduplicated and
// ordered.
func (ws *wrapperSet) sortedInsts() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range ws.all {
		for _, i := range w.Insts {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Strings(out)
	return out
}
