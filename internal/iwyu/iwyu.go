// Package iwyu implements an Include-What-You-Use-style baseline from the
// paper's related work (§7: "Include What You Use is a Clang-based tool
// that detects and removes unused header files"). It analyzes which of a
// source file's direct includes contribute no referenced symbols and
// removes them. Contrasted with Header Substitution it demonstrates the
// paper's motivating point: removal cannot help when the expensive header
// *is* used — even for a single symbol the whole header closure is still
// compiled, which is exactly the case Header Substitution targets.
package iwyu

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/check"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/sema"
	"repro/internal/frontend"
	"repro/internal/rewrite"
	"repro/internal/vfs"
)

// Options configures an analysis run.
type Options struct {
	FS          *vfs.FS
	SearchPaths []string
	// Source is the file whose direct includes are audited.
	Source string
	// OutDir receives the cleaned copy (default "iwyu_out").
	OutDir string
}

// IncludeUse describes one direct include of the source.
type IncludeUse struct {
	// Target is the include as spelled ("<iostream>"), Resolved the file
	// path it resolved to.
	Target   string `json:"target"`
	Resolved string `json:"resolved,omitempty"`
	Line     int    `json:"line"`
	// Used reports whether any symbol declared in the include's
	// transitive closure is referenced by the source.
	Used bool `json:"used"`
	// Symbols samples the referenced symbols (up to 8).
	Symbols []string `json:"symbols,omitempty"`
}

// Result is the analysis output.
type Result struct {
	Includes []IncludeUse `json:"includes"`
	// Removed counts includes deleted from the cleaned copy.
	Removed int `json:"removed"`
	// Output is the cleaned file's path in FS ("" when nothing changed).
	Output string `json:"output,omitempty"`
	// Diagnostics reports each removable include in the shared
	// source-located diagnostic format (pass "unused-include", warning
	// severity, with a fix-it deleting the directive line), so iwyu
	// findings and yallacheck findings render and machine-apply the same
	// way.
	Diagnostics []check.Diagnostic `json:"diagnostics,omitempty"`
	// Graph holds per-file include-graph metrics over the TU's
	// dependency manifest (transitive fan-in/fan-out, longest include
	// chain, cycle membership), sorted by file.
	Graph []HeaderMetrics `json:"graph,omitempty"`
}

// Analyze audits the source's direct includes and writes a cleaned copy
// with unused ones removed.
func Analyze(opts Options) (*Result, error) {
	if opts.FS == nil || opts.Source == "" {
		return nil, fmt.Errorf("iwyu: FS and Source are required")
	}
	if opts.OutDir == "" {
		opts.OutDir = "iwyu_out"
	}
	src, err := opts.FS.Read(opts.Source)
	if err != nil {
		return nil, err
	}

	unit, err := frontend.Parse(frontend.Config{FS: opts.FS, SearchPaths: opts.SearchPaths}, opts.Source, nil)
	if err != nil {
		return nil, fmt.Errorf("iwyu: %v", err)
	}
	tu, deps := unit.Unit(nil), unit.Result.DirectDeps
	table := sema.NewTable()
	table.AddUnit(tu)

	// Ownership: every file reachable from a direct include belongs to
	// that include (first wins for shared transitive headers).
	srcClean := vfs.Clean(opts.Source)
	owner := map[string]string{}
	var claim func(file, root string)
	claim = func(file, root string) {
		if _, taken := owner[file]; taken {
			return
		}
		owner[file] = root
		for _, dep := range deps[file] {
			claim(dep, root)
		}
	}
	directs := deps[srcClean]
	for _, d := range directs {
		claim(d, d)
	}

	// Referenced declaration files: resolve every name used by source
	// code (only nodes positioned in the source file).
	usedBy := map[string]map[string]bool{} // root include -> symbols
	note := func(q ast.QualifiedName, from string) {
		r := table.Lookup(q, from)
		if r == nil {
			return
		}
		root, ok := owner[r.Symbol.DeclFile]
		if !ok {
			return
		}
		if usedBy[root] == nil {
			usedBy[root] = map[string]bool{}
		}
		usedBy[root][r.Symbol.Qualified()] = true
		// Symbols reached through aliases mark the alias's file too.
		for _, a := range r.AliasChain {
			if aroot, ok := owner[a.DeclFile]; ok {
				if usedBy[aroot] == nil {
					usedBy[aroot] = map[string]bool{}
				}
				usedBy[aroot][a.Qualified()] = true
			}
		}
	}
	ast.Inspect(tu, func(n ast.Node) {
		if n.Pos().FileName() != srcClean {
			return
		}
		switch x := n.(type) {
		case *ast.DeclRefExpr:
			note(x.Name, srcClean)
		case *ast.FieldDecl:
			noteType(note, x.Type, srcClean)
		case *ast.VarDecl:
			noteType(note, x.Type, srcClean)
		case *ast.AliasDecl:
			noteType(note, x.Target, srcClean)
		case *ast.FunctionDecl:
			noteType(note, x.ReturnType, srcClean)
			for _, p := range x.Params {
				noteType(note, p.Type, srcClean)
			}
		case *ast.UsingDecl:
			note(x.Name, srcClean)
		case *ast.MemberExpr:
			// Member names resolve via the object type; the type
			// reference above already claims the file.
		}
	})

	// Assemble the per-include report and the cleaned source.
	res := &Result{Graph: GraphMetrics(deps)}
	buf := rewrite.NewBuffer(opts.Source, src)
	line := 0
	off := 0
	for _, raw := range strings.SplitAfter(src, "\n") {
		line++
		trimmed := strings.TrimSpace(raw)
		if strings.HasPrefix(trimmed, "#include") {
			target := IncludeSpelling(trimmed)
			resolved := ResolveDirect(directs, target)
			use := IncludeUse{Target: target, Resolved: resolved, Line: line}
			if syms := usedBy[resolved]; len(syms) > 0 {
				use.Used = true
				for s := range syms {
					use.Symbols = append(use.Symbols, s)
				}
				sort.Strings(use.Symbols)
				if len(use.Symbols) > 8 {
					use.Symbols = use.Symbols[:8]
				}
			}
			if !use.Used && resolved != "" {
				if err := buf.RemoveLine(line); err != nil {
					return nil, err
				}
				res.Removed++
				res.Diagnostics = append(res.Diagnostics, check.Diagnostic{
					File:     srcClean,
					Line:     line,
					Col:      1 + strings.Index(raw, "#"),
					Offset:   off + strings.Index(raw, "#"),
					Severity: check.Warning,
					Pass:     "unused-include",
					Message:  fmt.Sprintf("include %q contributes no referenced symbol; remove it", target),
					FixIts: []check.FixIt{{
						File:  opts.Source,
						Start: off,
						End:   off + len(raw),
						Text:  "",
					}},
				})
			}
			res.Includes = append(res.Includes, use)
		}
		off += len(raw)
	}
	check.SortDiagnostics(res.Diagnostics)
	if res.Removed > 0 {
		cleaned, err := buf.Apply()
		if err != nil {
			return nil, err
		}
		res.Output = opts.OutDir + "/" + baseName(opts.Source)
		opts.FS.Write(res.Output, cleaned)
	}
	return res, nil
}

func noteType(note func(ast.QualifiedName, string), ty *ast.Type, from string) {
	if ty == nil || ty.Builtin {
		return
	}
	note(ty.Name, from)
	for _, seg := range ty.Name.Segments {
		for _, a := range seg.Args {
			if a.Type != nil {
				noteType(note, a.Type, from)
			}
		}
	}
}

// IncludeSpelling extracts the include target from a directive line
// ("#include <a/b.hpp>" -> "a/b.hpp").
func IncludeSpelling(line string) string {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "#include"))
	if len(rest) < 2 {
		return rest
	}
	switch rest[0] {
	case '<':
		if i := strings.IndexByte(rest, '>'); i > 0 {
			return rest[1:i]
		}
	case '"':
		if i := strings.IndexByte(rest[1:], '"'); i > 0 {
			return rest[1 : i+1]
		}
	}
	return rest
}

// ResolveDirect matches a spelled target against a resolved dependency
// list, returning the entry it names ("" when none matches).
func ResolveDirect(directs []string, target string) string {
	for _, d := range directs {
		if d == target || strings.HasSuffix(d, "/"+target) || strings.HasSuffix(d, target) {
			return d
		}
	}
	return ""
}

func baseName(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
