package check

import (
	"repro/internal/cpp/ast"
	"repro/internal/cpp/sema"
)

func init() {
	register(&Pass{
		ID:  "user-specializes-template",
		Doc: "user code explicitly instantiates or specializes a substituted library template",
		Run: runUserSpecializesTemplate,
	})
}

// runUserSpecializesTemplate flags user translation units that pin down
// a library template themselves: an explicit instantiation
// (`template class C<int>;`) duplicates what the generated wrappers TU
// already provides and needs the complete definition the lightweight
// header no longer has (fix-it: delete it), and a user-written
// specialization/redefinition of a library class conflicts with the
// forward declaration outright.
func runUserSpecializesTemplate(tu *TU, report func(Diagnostic)) {
	ast.Inspect(tu.AST, func(n ast.Node) {
		ei, ok := n.(*ast.ExplicitInstantiation)
		if !ok || !tu.InSources(ei.Pos().FileName()) {
			return
		}
		r := tu.Tables.Lookup(ei.Name, ei.Pos().FileName())
		if r == nil || !tu.InHeader(r.Symbol.DeclFile) {
			return
		}
		kind := "function"
		if ei.IsClass {
			kind = "class"
		}
		if r.Symbol.Kind != sema.ClassSym && r.Symbol.Kind != sema.FunctionSym {
			return
		}
		d := NewDiag("user-specializes-template", Error, ei.Pos(),
			"explicit instantiation of substituted %s template %s; the generated wrappers TU provides instantiations for all used symbols",
			kind, r.Symbol.Qualified())
		d.FixIts = []FixIt{removeDeclFixIt(tu, ei)}
		report(d)
	})

	// The symbol table merges same-scope declarations, so a user class
	// that collides with a library class shows up as a single symbol with
	// declarations on both sides of the header boundary. Walking the
	// table (rather than looking names up from the global scope) finds
	// collisions inside namespaces too; only a class with a definition in
	// a source can be reported, so the walk visits just those.
	for _, sym := range tu.Tables.ClassesDefinedIn(tu.Sources) {
		if !anyDeclInHeader(tu, sym) {
			continue
		}
		for _, d := range sym.Decls {
			cd, ok := d.(*ast.ClassDecl)
			if !ok || !cd.IsDefinition || !tu.InSources(cd.Pos().FileName()) {
				continue
			}
			what := "redefines"
			if cd.IsTemplate() || (sym.Class() != nil && sym.Class().IsTemplate()) {
				what = "specializes"
			}
			report(NewDiag("user-specializes-template", Error, cd.Pos(),
				"user code %s substituted library class %s; the definition conflicts with the forward declaration",
				what, sym.Qualified()))
		}
	}
}

// anyDeclInHeader reports whether any of the symbol's merged
// declarations lives in the substituted header set.
func anyDeclInHeader(tu *TU, sym *sema.Symbol) bool {
	if tu.InHeader(sym.DeclFile) {
		return true
	}
	for _, d := range sym.Decls {
		if tu.InHeader(d.Pos().FileName()) {
			return true
		}
	}
	return false
}

// removeDeclFixIt builds a fix-it deleting a declaration's full extent
// including the trailing semicolon and, when the line becomes empty,
// the newline.
func removeDeclFixIt(tu *TU, n ast.Node) FixIt {
	file := n.Pos().FileName()
	start, end := int(n.Pos().Offset), int(n.End().Offset)
	src, err := tu.FS.Read(file)
	if err == nil {
		for end < len(src) && (src[end] == ' ' || src[end] == '\t') {
			end++
		}
		if end < len(src) && src[end] == ';' {
			end++
		}
		if end < len(src) && src[end] == '\n' {
			end++
		}
	}
	return FixIt{File: file, Start: start, End: end}
}
