package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpp/ast"
)

// editRec is one pending source edit, in original-file offsets.
type editRec struct {
	file       string
	start, end int
	text       string
}

// Functor is one generated functor replacing a lambda (Table 1 last row,
// §3.4: "replace the lambda by generating a new functor").
type Functor struct {
	Name       string
	Use        *LambdaUse
	Definition string // rendered struct for the lightweight header
	CtorText   string // construction expression replacing the lambda
}

// transformSources computes all source edits (Fig. 5 line 26 and Table 1)
// and the functor definitions; edits inside lambda bodies are applied to
// the extracted functor body rather than the source file.
func (e *Engine) transform(ws *wrapperSet) ([]editRec, []*Functor, error) {
	var edits []editRec

	// 1. Replace the include directive (§3.3.1).
	incEdits, err := e.includeEdits()
	if err != nil {
		return nil, nil, err
	}
	edits = append(edits, incEdits...)

	// 1b. Rewrite alias targets that resolve through header aliases or
	// nested classes (Table 1: "Type alias: resolve and forward declare";
	// Fig. 4b rewrites member_t to HostThreadTeamMember).
	edits = append(edits, e.aliasEdits()...)

	// 2. Constructor rewrites: `T x(args);` becomes
	// `T* x = make_T(args);` via a one-character replacement of the '('
	// (plus the pointer-insertion site below), so edits inside the
	// argument list compose.
	for _, cu := range e.an.ctors {
		w := ws.ctorWrapper[e.ctorKey(cu)]
		if w == nil {
			continue
		}
		declStart := int(cu.Var.Type.PosEnd.Offset)
		declEnd := int(cu.Var.End().Offset)
		raw := e.rawText(cu.File, declStart, declEnd)
		if lp := strings.IndexByte(raw, '('); lp >= 0 {
			edits = append(edits, editRec{cu.File, declStart + lp, declStart + lp + 1,
				" = " + w.Name + "("})
		} else if semi := strings.LastIndexByte(raw, ';'); semi >= 0 {
			// Default construction: `T x;` → `T* x = make_T();`
			edits = append(edits, editRec{cu.File, declStart + semi, declStart + semi,
				" = " + w.Name + "()"})
		}
		e.rep.CallSitesRewritten++
	}

	// 3. Pointer-ification and enum replacement (§3.3.2, Table 1).
	for _, site := range e.an.sites {
		if site.EnumUnderlying != "" {
			// Replace the enum type name with its underlying type.
			edits = append(edits, editRec{site.File, site.StartOff,
				e.typeTokensEnd(site), site.EnumUnderlying})
			continue
		}
		edits = append(edits, editRec{site.File, site.InsertOff, site.InsertOff, "*"})
	}

	// 3b. Enumerator references become their constant values (Table 1).
	for _, er := range e.an.enumRefs {
		raw := e.rawText(er.File, er.Start, er.End)
		end := er.Start + len(strings.TrimRight(raw, " \t\n,)"))
		edits = append(edits, editRec{er.File, er.Start, end,
			fmt.Sprintf("%d /* %s */", er.Value, er.Name)})
	}

	// 4. Call-site rewrites for wrapped functions (§3.3.3).
	for _, fu := range e.an.sortedFuncs() {
		w := ws.funcWrapper[fu.Key]
		if w == nil {
			continue
		}
		for _, cs := range fu.Calls {
			edits = append(edits, e.renameCalleeEdit(cs, w.Name))
			e.rep.CallSitesRewritten++
		}
	}

	// 5. Method-call rewrites (§3.3.4). Chained calls insert their
	// wrapper prefixes at the same offset; the outermost call (largest
	// callee extent) must come first so `d.Root().MemberAt(i)` becomes
	// `MemberAt(Root(d), i)`.
	type methodEdit struct {
		insert, replace editRec
		calleeEnd       int
	}
	var mEdits []methodEdit
	for _, mu := range e.an.sortedMethods() {
		w := ws.methodWrapper[mu.Key]
		if w == nil {
			continue
		}
		for _, cs := range mu.Calls {
			ins, rep := e.methodCallEdits(cs, w.Name)
			mEdits = append(mEdits, methodEdit{insert: ins, replace: rep,
				calleeEnd: int(cs.Call.CalleeEnd.Offset)})
			e.rep.CallSitesRewritten++
		}
	}
	sort.SliceStable(mEdits, func(i, j int) bool {
		a, b := mEdits[i], mEdits[j]
		if a.insert.file != b.insert.file {
			return a.insert.file < b.insert.file
		}
		if a.insert.start != b.insert.start {
			return a.insert.start < b.insert.start
		}
		return a.calleeEnd > b.calleeEnd
	})
	for _, me := range mEdits {
		edits = append(edits, me.insert, me.replace)
	}

	// 6. Lambda → functor conversions.
	functors := e.buildFunctorsFromLambdas(ws)
	for _, fc := range functors {
		lam := fc.Use.Lambda
		edits = append(edits, editRec{fc.Use.File, int(lam.Pos().Offset), int(lam.End().Offset), fc.CtorText})
		e.rep.LambdasConverted++
	}

	// Partition: inner edits belonging to lambda bodies move into the
	// functor definitions.
	edits, err = e.extractFunctorBodies(edits, functors)
	if err != nil {
		return nil, nil, err
	}
	return edits, functors, nil
}

// typeTokensEnd returns the end offset of the type tokens at a site: the
// insertion point doubles as the end of the type extent.
func (e *Engine) typeTokensEnd(site TypeSite) int {
	// Trim trailing whitespace between type and declarator.
	src, err := e.fs.Read(site.File)
	if err != nil {
		return site.InsertOff
	}
	end := site.InsertOff
	for end > site.StartOff && (src[end-1] == ' ' || src[end-1] == '\t') {
		end--
	}
	return end
}

// includeEdits finds the `#include <Header>` directives in the user
// sources and replaces them with the lightweight header include.
func (e *Engine) includeEdits() ([]editRec, error) {
	var out []editRec
	replaced := false
	for src := range e.sourceSet {
		text, err := e.fs.Read(src)
		if err != nil {
			return nil, err
		}
		off := 0
		first := true
		for _, line := range strings.SplitAfter(text, "\n") {
			trimmed := strings.TrimSpace(line)
			if strings.HasPrefix(trimmed, "#include") && e.includesTarget(trimmed) {
				lineLen := len(line)
				if strings.HasSuffix(line, "\n") {
					lineLen--
				}
				repl := fmt.Sprintf("#include %q", e.opts.LightweightName)
				if !first {
					// Subsequent substituted includes in the same file
					// collapse into the one lightweight header.
					repl = "// (substituted: " + trimmed + ")"
				}
				out = append(out, editRec{src, off, off + lineLen, repl})
				replaced = true
				first = false
			}
			off += len(line)
		}
	}
	if !replaced {
		return nil, fmt.Errorf("core: no #include of %q found in sources", e.opts.Header)
	}
	return out, nil
}

// aliasEdits rewrites source-file alias targets to their deep-resolved
// forms when resolution changes them (alias chains through the header,
// nested-class member types).
func (e *Engine) aliasEdits() []editRec {
	var out []editRec
	seen := map[string]bool{}
	for _, src := range e.opts.Sources {
		tu := e.an.units[vfsClean(src)]
		if tu == nil {
			continue
		}
		ast.Inspect(tu, func(n ast.Node) {
			ad, ok := n.(*ast.AliasDecl)
			if !ok || ad.Target == nil || !e.inSources(ad.Pos().FileName()) {
				return
			}
			key := fmt.Sprintf("%s:%d", ad.Pos().FileName(), int(ad.Pos().Offset))
			if seen[key] {
				return
			}
			seen[key] = true
			// Only rewrite when the spelled target mentions a multi-step
			// path that resolution changes (e.g. nested member_type).
			resolved := e.resolveTypeDeep(ad.Target, ad.Pos().FileName())
			origText := e.srcText(ad.Pos().FileName(), int(ad.Target.PosStart.Offset), int(ad.Target.PosEnd.Offset))
			newText := e.typeText(resolved, nil, nil)
			if resolved == ad.Target || newText == origText || newText == "" {
				return
			}
			// Skip rewrites that didn't actually resolve anything new
			// (pure qualification of an already-valid name is harmless to
			// keep, but nested member aliases must change).
			if len(ad.Target.Name.Segments) < 2 {
				return
			}
			start := int(ad.Target.PosStart.Offset)
			end := start + len(strings.TrimRight(e.rawText(ad.Pos().FileName(), start, int(ad.Target.PosEnd.Offset)), " \t\n"))
			out = append(out, editRec{ad.Pos().FileName(), start, end, newText})
		})
	}
	return out
}

// includesTarget reports whether an #include line names any substituted
// header.
func (e *Engine) includesTarget(line string) bool {
	for _, target := range e.headerTargets() {
		if strings.Contains(line, "<"+target+">") ||
			strings.Contains(line, `"`+target+`"`) ||
			strings.Contains(line, "/"+target) {
			return true
		}
	}
	return false
}

// renameCalleeEdit rewrites the callee of a free-function call to the
// wrapper name, preserving explicit template arguments.
func (e *Engine) renameCalleeEdit(cs *CallSite, wrapperName string) editRec {
	start := int(cs.Call.Pos().Offset)
	end := int(cs.Call.CalleeEnd.Offset)
	calleeSrc := e.srcText(cs.File, start, end)
	newText := wrapperName
	if i := strings.Index(calleeSrc, "<"); i >= 0 {
		newText += calleeSrc[i:]
	}
	return editRec{cs.File, start, start + len(strings.TrimRight(e.rawText(cs.File, start, end), " \t\n")), newText}
}

// methodCallEdits rewrites `obj.m(a)` / `obj(a)` into `m_w(obj, a)` with
// two edits that compose under nesting (so `d.Root().MemberAt(i)` becomes
// `MemberAt(Root(d), i)`): the wrapper name and an opening parenthesis
// are inserted before the object expression, and the `.m(` (or bare `(`
// for operator() calls) after it is replaced by a separator.
func (e *Engine) methodCallEdits(cs *CallSite, wrapperName string) (editRec, editRec) {
	start := int(cs.Call.Pos().Offset)
	calleeEnd := int(cs.Call.CalleeEnd.Offset) // position of '('
	// End of the object expression text. Call/paren expressions end
	// exactly; name expressions end at the following token, so only
	// whitespace is trimmed.
	objRaw := e.rawText(cs.File, int(cs.Object.Pos().Offset), int(cs.Object.End().Offset))
	objEnd := int(cs.Object.Pos().Offset) + len(strings.TrimRight(objRaw, " \t\n"))
	insert := editRec{cs.File, start, start, wrapperName + "("}
	sep := ""
	if len(cs.Call.Args) > 0 {
		sep = ", "
	}
	// Replace from the end of the object through the original '('.
	replace := editRec{cs.File, objEnd, calleeEnd + 1, sep}
	return insert, replace
}

// rawText returns the raw (untrimmed) original source slice.
func (e *Engine) rawText(file string, start, end int) string {
	src, err := e.fs.Read(file)
	if err != nil || start < 0 || end > len(src) || start > end {
		return ""
	}
	return src[start:end]
}

// exprSrc returns the original source of an expression, trimmed.
func (e *Engine) exprSrc(file string, x ast.Expr) string {
	if x == nil {
		return ""
	}
	s := strings.TrimSpace(e.rawText(file, int(x.Pos().Offset), int(x.End().Offset)))
	s = strings.TrimRight(s, ",); \t\n")
	return s
}

// --------------------------------------------------------------- lambdas

// buildFunctorsFromLambdas assigns functor names and computes captures
// for every lambda passed to a substituted function.
func (e *Engine) buildFunctorsFromLambdas(ws *wrapperSet) []*Functor {
	var out []*Functor
	n := 0
	seen := map[*ast.LambdaExpr]bool{}

	collect := func(calls []*CallSite) {
		for _, cs := range calls {
			for li, argIdx := range cs.LambdaArgs {
				lam, ok := cs.Call.Args[argIdx].(*ast.LambdaExpr)
				if !ok || seen[lam] {
					continue
				}
				seen[lam] = true
				n++
				name := fmt.Sprintf("yalla_functor_%d", n)
				use := &LambdaUse{
					File: cs.File, Lambda: lam, Call: cs, ArgIdx: argIdx,
					Functor:  name,
					Captures: e.captureAnalysis(lam, cs),
				}
				fc := &Functor{Name: name, Use: use}
				var caps []string
				for _, c := range use.Captures {
					caps = append(caps, c.Name)
				}
				fc.CtorText = fmt.Sprintf("%s{%s}", name, strings.Join(caps, ", "))
				out = append(out, fc)
				// Patch instantiation placeholders in all wrappers, and
				// record the mapping for forward-declared functions whose
				// instantiations are rendered at emission time.
				ph := lambdaPlaceholder(cs, li)
				ws.lambdaNames[ph] = name
				for _, w := range ws.all {
					for i := range w.Insts {
						w.Insts[i] = strings.ReplaceAll(w.Insts[i], ph, name)
					}
				}
			}
		}
	}
	for _, fu := range e.an.sortedFuncs() {
		collect(fu.Calls)
	}
	for _, mu := range e.an.sortedMethods() {
		collect(mu.Calls)
	}
	return out
}

// captureAnalysis computes the free variables of a lambda body — the
// functor's member fields.
func (e *Engine) captureAnalysis(lam *ast.LambdaExpr, cs *CallSite) []CaptureInfo {
	// Names bound inside the lambda.
	bound := map[string]bool{}
	for _, p := range lam.Params {
		if p.Name != "" {
			bound[p.Name] = true
		}
	}
	if lam.Body != nil {
		ast.Inspect(lam.Body, func(n ast.Node) {
			if ds, ok := n.(*ast.DeclStmt); ok {
				if vd, ok := ds.D.(*ast.VarDecl); ok {
					bound[vd.Name] = true
				}
			}
		})
	}
	// The environment of the enclosing function.
	env := e.envForPos(lam.Pos().FileName(), lam)
	var caps []CaptureInfo
	capSeen := map[string]bool{}
	if lam.Body == nil {
		return nil
	}
	// Variables assigned (or incremented) inside the body must be
	// captured by reference when the lambda captures by reference.
	mutated := map[string]bool{}
	markMutated := func(x ast.Expr) {
		if dre, ok := x.(*ast.DeclRefExpr); ok && len(dre.Name.Segments) == 1 {
			mutated[dre.Name.Segments[0].Name] = true
		}
	}
	ast.Inspect(lam.Body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.BinaryExpr:
			if isAssignOp(x.Op) {
				markMutated(x.L)
			}
		case *ast.UnaryExpr:
			if x.Op == incKind || x.Op == decKind {
				markMutated(x.X)
			}
		}
	})

	byRefCapture := func(name string) bool {
		for _, c := range lam.Captures {
			if c.Name == name {
				return c.ByRef
			}
		}
		return lam.DefaultCapture == "&"
	}

	ast.Inspect(lam.Body, func(n ast.Node) {
		dre, ok := n.(*ast.DeclRefExpr)
		if !ok || len(dre.Name.Segments) != 1 {
			return
		}
		name := dre.Name.Segments[0].Name
		if bound[name] || capSeen[name] {
			return
		}
		if env == nil {
			return
		}
		v, ok := env.vars[name]
		if !ok {
			return
		}
		capSeen[name] = true
		ptr := v.pointerized || e.an.isPointerized(v.typ)
		caps = append(caps, CaptureInfo{Name: name, Type: v.typ,
			Pointerized: ptr,
			ByRef:       !ptr && mutated[name] && byRefCapture(name)})
	})
	return caps
}

// envForPos rebuilds the variable environment of the function containing
// the given lambda.
func (e *Engine) envForPos(file string, lam *ast.LambdaExpr) *funcEnv {
	if fn := e.an.enclosingFn(lam); fn != nil {
		return e.buildEnv(fn)
	}
	return nil
}

// extractFunctorBodies moves edits inside lambda bodies into the rendered
// functor definitions and drops them from the main edit list.
func (e *Engine) extractFunctorBodies(edits []editRec, functors []*Functor) ([]editRec, error) {
	type bodyRange struct {
		fc         *Functor
		start, end int
		file       string
	}
	var ranges []bodyRange
	for _, fc := range functors {
		lam := fc.Use.Lambda
		if lam.Body == nil {
			continue
		}
		ranges = append(ranges, bodyRange{fc, int(lam.Body.Pos().Offset), int(lam.Body.End().Offset), fc.Use.File})
	}

	var outer []editRec
	inner := map[*Functor][]editRec{}
	for _, ed := range edits {
		moved := false
		for _, r := range ranges {
			if ed.file == r.file && ed.start >= r.start && ed.end <= r.end &&
				!(ed.start == r.start && ed.end == r.end) {
				// Belongs inside this lambda body — unless it IS the
				// lambda replacement itself (which spans beyond the body).
				if ed.start >= r.start && ed.end <= r.end && !(ed.start <= r.start && ed.end >= r.end) {
					inner[r.fc] = append(inner[r.fc], ed)
					moved = true
					break
				}
			}
		}
		if !moved {
			outer = append(outer, ed)
		}
	}

	for _, fc := range functors {
		body, err := e.renderFunctorBody(fc, inner[fc])
		if err != nil {
			return nil, err
		}
		fc.Definition = e.renderFunctor(fc, body)
	}
	return outer, nil
}

// renderFunctorBody applies the inner edits to the extracted body text.
func (e *Engine) renderFunctorBody(fc *Functor, inner []editRec) (string, error) {
	lam := fc.Use.Lambda
	if lam.Body == nil {
		return "{}", nil
	}
	base := int(lam.Body.Pos().Offset)
	text := e.rawText(fc.Use.File, base, int(lam.Body.End().Offset))
	sort.Slice(inner, func(i, j int) bool { return inner[i].start < inner[j].start })
	var b strings.Builder
	pos := 0
	for _, ed := range inner {
		s, en := ed.start-base, ed.end-base
		if s < pos || en > len(text) {
			return "", fmt.Errorf("core: functor body edit out of range in %s", fc.Use.File)
		}
		b.WriteString(text[pos:s])
		b.WriteString(ed.text)
		pos = en
	}
	b.WriteString(text[pos:])
	return b.String(), nil
}

// renderFunctor renders the functor struct definition (Fig. 4a lines
// 23–28).
func (e *Engine) renderFunctor(fc *Functor, body string) string {
	lam := fc.Use.Lambda
	var b strings.Builder
	fmt.Fprintf(&b, "// Functor replacing the lambda at %s.\n", lam.Pos())
	fmt.Fprintf(&b, "struct %s {\n", fc.Name)
	for _, c := range fc.Use.Captures {
		// Resolve aliases: the functor lives in the lightweight header,
		// before the user's alias declarations.
		ty := e.resolveTypeDeep(c.Type, fc.Use.File)
		text := e.typeText(ty, nil, nil)
		if c.Pointerized {
			text += "*"
		} else if c.ByRef {
			text += "&"
		}
		fmt.Fprintf(&b, "  %s %s;\n", text, c.Name)
	}
	var params []string
	for i, p := range lam.Params {
		pn := p.Name
		if pn == "" {
			pn = fmt.Sprintf("a%d", i)
		}
		params = append(params, e.typeText(p.Type, nil, nil)+" "+pn)
	}
	ret := "void"
	if lam.ReturnType != nil {
		ret = e.typeText(lam.ReturnType, nil, nil)
	}
	constSuffix := " const"
	if lam.Mutable {
		constSuffix = ""
	}
	// Indent the body one level.
	indented := strings.ReplaceAll(body, "\n", "\n  ")
	fmt.Fprintf(&b, "  %s operator()(%s)%s %s\n", ret, strings.Join(params, ", "), constSuffix, indented)
	b.WriteString("};\n")
	return b.String()
}
