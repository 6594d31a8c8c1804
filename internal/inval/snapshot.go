// Package inval implements fine-grained incremental invalidation
// ("early cutoff") for warm daemon sessions. During Prepare the daemon
// records a decl-level dependency graph: which files the prepared
// translation units read, and which declaration names the sources and
// the generated artifacts actually reference. On a header edit it
// re-lexes and re-parses only the edited file, diffs per-declaration
// interface hashes (name, signature, type layout — bodies and comments
// excluded) against the previous state, and decides the cheapest sound
// rebuild action: nothing, a wrappers-object recompile, or a full
// re-Prepare. A comment-only or body-only header edit in a warm
// session therefore rebuilds nothing and costs ~0 — the "early cutoff"
// of build-system literature, applied at declaration granularity.
//
// Soundness over precision: every byte of the file lands in some hash
// bucket. Tokens the isolated parse cannot attribute to a declaration
// (preprocessor directives, conditionally-inactive regions, stray
// tokens) go into a per-file misc hash whose change forces a full
// re-Prepare, so imprecision always fails toward rebuilding more.
package inval

import (
	"hash"
	"hash/fnv"
	"sort"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
	"repro/internal/frontend"
	"repro/internal/vfs"
)

// DeclSig is one declaration's interface summary inside a FileSnapshot.
type DeclSig struct {
	// Name is the unqualified base name (what consumers spell at use
	// sites; overload sets and out-of-line definitions share it).
	Name string
	// Hash covers the declaration's interface tokens: everything in the
	// decl's source extent except function bodies. Decls sharing a key
	// (overload sets, redeclarations) fold into one hash in source order.
	Hash uint64
	// FuncDefs counts function bodies inside the extent (class methods
	// included); the linker model sums these, so a count change must
	// refresh the wrappers object even when no interface changed.
	FuncDefs int
}

// FileSnapshot is the invalidation-relevant digest of one file: every
// token classified into a named declaration's interface hash, a
// function body (excluded), or the conservative misc bucket.
type FileSnapshot struct {
	Path string
	// OK is false when the file did not lex or parse cleanly in
	// isolation; the planner then treats any edit as a full rebuild.
	OK bool
	// Decls maps a decl key ("kind qualified::name") to its signature.
	Decls map[string]DeclSig
	// Misc hashes everything outside decl extents: preprocessor
	// directives (macros, includes, conditionals), tokens in regions the
	// isolated preprocess skipped, and anything the parser could not
	// claim. Any misc change is conservatively a full rebuild.
	Misc uint64
	// FuncDefs is the file-total function-body count.
	FuncDefs int
}

// declExtent is one top-level declaration's byte range.
type declExtent struct {
	start, end int32
	key        string
	name       string
	scope      string
	funcDefs   int
}

// span is a half-open byte range (function bodies).
type span struct{ start, end int32 }

// Snapshot digests one file's content. It never touches the filesystem:
// the caller supplies the exact bytes (old content before an edit, new
// content after), so diffing old vs new is a pure function of the two
// strings.
func Snapshot(path, content string) *FileSnapshot {
	path = vfs.Clean(path)
	snap := &FileSnapshot{Path: path, Decls: map[string]DeclSig{}}
	raw, tu, ok := parseIsolated(path, content)
	if !ok {
		return snap // OK=false: conservative
	}

	decls, bodies, nsSpans := collectExtents(tu)
	funcDefs := len(bodies)
	bodies = mergeSpans(bodies) // lambdas nest inside enclosing bodies
	snap.OK = true
	snap.FuncDefs = funcDefs

	// Classify every raw token by offset. Directive tokens always land
	// in misc, even inside a body extent: a #define is global no matter
	// where it appears in the file.
	misc := fnv.New64a()
	hashes := map[string]hash.Hash64{}
	inDirective := false
	for _, t := range raw {
		if t.LeadingNewline {
			inDirective = t.Kind == token.Hash
		}
		if inDirective {
			hashToken(misc, t.Text)
			continue
		}
		off := t.Pos.Offset
		if inSpan(bodies, off) {
			continue // function body: excluded from every hash
		}
		if d := findDecl(decls, off); d != nil {
			h, ok := hashes[d.key]
			if !ok {
				h = fnv.New64a()
				hashes[d.key] = h
			}
			hashToken(h, t.Text)
			continue
		}
		// Namespace scaffolding ("namespace", the name, braces) between
		// leaf decls hashes under an unnamed per-file key: reopening a
		// namespace must not look like a directive-level change, but a
		// rename still shifts every inner decl's scoped key.
		if t.Kind == token.Semi || inAnySpan(nsSpans, off) {
			// Stray semicolons likewise attach to the nearest preceding
			// decl's scaffolding bucket rather than misc, so appending a
			// semicolon-terminated decl never looks like a misc change.
			h, ok := hashes[scaffoldKey]
			if !ok {
				h = fnv.New64a()
				hashes[scaffoldKey] = h
			}
			hashToken(h, t.Text)
			continue
		}
		hashToken(misc, t.Text)
	}
	snap.Misc = misc.Sum64()
	for _, d := range decls {
		h, ok := hashes[d.key]
		if !ok {
			continue // extent held only comments/whitespace
		}
		sig := snap.Decls[d.key]
		sig.Name = d.name
		sig.Hash = h.Sum64()
		sig.FuncDefs += d.funcDefs
		snap.Decls[d.key] = sig
	}
	if h, ok := hashes[scaffoldKey]; ok {
		snap.Decls[scaffoldKey] = DeclSig{Hash: h.Sum64()}
	}
	return snap
}

// parseIsolated lexes content raw and parses it as a translation unit
// of its own. The raw stream drops comments and whitespace, which is
// exactly the "comments excluded" part of the interface hash, but keeps
// directive tokens and inactive regions, so nothing an edit can change
// escapes classification. The structure comes from an isolated
// single-file parse: includes are unresolvable on the empty search
// path, the preprocessor records them as missing and moves on, and the
// parser sees only this file's own declarations — which is all the diff
// needs. ok is false when the file does not lex or parse cleanly.
func parseIsolated(path, content string) (raw []token.Token, tu *ast.TranslationUnit, ok bool) {
	lx := lexer.New(path, content)
	for {
		t := lx.Next()
		if t.Kind == token.EOF {
			break
		}
		raw = append(raw, t)
	}
	if len(lx.Errors()) > 0 {
		return nil, nil, false
	}
	sfs := vfs.New()
	sfs.Write(path, content)
	unit, err := frontend.Parse(frontend.Config{FS: sfs}, path, nil)
	if err != nil {
		return nil, nil, false
	}
	return raw, unit.Unit(nil), true
}

// scaffoldKey hashes namespace scaffolding and stray semicolons; its
// empty base name never matches a used identifier, so scaffolding-only
// changes stay on the cheap rebuild paths.
const scaffoldKey = "scaffold"

// mergeSpans unions overlapping/nested spans so binary search works.
func mergeSpans(spans []span) []span {
	if len(spans) < 2 {
		return spans
	}
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// inAnySpan is a linear containment probe for short (possibly nested)
// span lists. The end is inclusive: NamespaceDecl.End() points at the
// closing brace token, not one past it.
func inAnySpan(spans []span, off int32) bool {
	for _, s := range spans {
		if s.start <= off && off <= s.end {
			return true
		}
	}
	return false
}

func hashToken(h hash.Hash64, text string) {
	h.Write([]byte(text))
	h.Write([]byte{0}) // token boundary: "ab c" != "a bc"
}

// collectExtents flattens the translation unit into leaf declaration
// extents (namespaces recurse; classes stay whole so member signatures
// and field layout are part of the class hash) plus the function-body
// spans to excise.
func collectExtents(tu *ast.TranslationUnit) ([]declExtent, []span, []span) {
	var decls []declExtent
	var bodies []span
	var nsSpans []span

	var walkDecl func(d ast.Decl, scope string)
	walkDecl = func(d ast.Decl, scope string) {
		if ns, ok := d.(*ast.NamespaceDecl); ok {
			nsSpans = append(nsSpans, span{ns.Pos().Offset, ns.End().Offset})
			inner := scope + ns.Name + "::"
			for _, c := range ns.Decls {
				walkDecl(c, inner)
			}
			return
		}
		kind, name := declKindName(d)
		ext := declExtent{
			start: d.Pos().Offset,
			end:   d.End().Offset,
			key:   kind + " " + scope + name,
			name:  name,
			scope: scope,
		}
		// Excise every function body nested in the extent (free
		// functions, methods, lambdas in default arguments...).
		ast.Inspect(d, func(n ast.Node) {
			switch fn := n.(type) {
			case *ast.FunctionDecl:
				if fn.Body != nil {
					bodies = append(bodies, span{fn.Body.Pos().Offset, fn.Body.End().Offset})
					ext.funcDefs++
				}
			case *ast.LambdaExpr:
				if fn.Body != nil {
					bodies = append(bodies, span{fn.Body.Pos().Offset, fn.Body.End().Offset})
				}
			}
		})
		decls = append(decls, ext)
	}
	for _, d := range tu.Decls {
		walkDecl(d, "")
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].start < decls[j].start })
	sort.Slice(bodies, func(i, j int) bool { return bodies[i].start < bodies[j].start })
	return decls, bodies, nsSpans
}

// declKindName names a declaration for its diff key. Unknown node kinds
// key by position-independent kind only, which still diffs correctly
// (the extent hash covers the text).
func declKindName(d ast.Decl) (kind, name string) {
	switch n := d.(type) {
	case *ast.ClassDecl:
		return n.Keyword, n.Name
	case *ast.FunctionDecl:
		name := n.Name
		if !n.QualifierName.IsEmpty() {
			name = n.QualifierName.Plain() + "::" + n.Name
		}
		return "func", name
	case *ast.AliasDecl:
		return "alias", n.Name
	case *ast.EnumDecl:
		return "enum", n.Name
	case *ast.VarDecl:
		return "var", n.Name
	case *ast.UsingDecl:
		return "using", n.Name.Plain()
	case *ast.StaticAssertDecl:
		return "static_assert", ""
	default:
		return "decl", ""
	}
}

// inSpan reports whether off falls inside any (sorted) span.
func inSpan(spans []span, off int32) bool {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > off })
	return i < len(spans) && spans[i].start <= off
}

// findDecl returns the (sorted) declaration extent containing off.
func findDecl(decls []declExtent, off int32) *declExtent {
	i := sort.Search(len(decls), func(i int) bool { return decls[i].end > off })
	if i < len(decls) && decls[i].start <= off {
		return &decls[i]
	}
	return nil
}
