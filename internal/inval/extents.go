package inval

import "repro/internal/vfs"

// DeclExtent is one top-level declaration's byte range inside a header,
// keyed by the same per-decl interface key the early-cutoff snapshots
// use ("kind scope::name"). Overload sets and redeclarations produce
// multiple extents sharing one Key; consumers that treat the key as the
// unit of work (the header splitter does) must keep them together.
type DeclExtent struct {
	// Key is inval's per-decl interface key: "kind scope::name".
	Key string
	// Name is the unqualified base name consumers spell at use sites.
	Name string
	// Scope is the enclosing namespace path, "" at file scope or
	// "A::B::" style otherwise.
	Scope string
	// Start is the byte offset of the declaration's first token.
	Start int
	// End is the exclusive byte offset one past the declaration's last
	// token (the trailing ";" or "}"), so content[Start:End] is the
	// full declaration text.
	End int
}

// Extents parses one file in isolation (the Snapshot pattern: includes
// resolve to nothing and are recorded as missing) and returns its
// top-level declaration extents in source order. ok is false when the
// file does not lex or parse cleanly on its own, in which case callers
// must treat the file as opaque.
func Extents(path, content string) (extents []DeclExtent, ok bool) {
	raw, tu, ok := parseIsolated(vfs.Clean(path), content)
	if !ok {
		return nil, false
	}
	// lenAt maps a raw token's start offset to its byte length, so an
	// inclusive AST end position (which points AT the last token) can be
	// extended to an exclusive byte offset.
	lenAt := make(map[int32]int, len(raw))
	for _, t := range raw {
		lenAt[t.Pos.Offset] = len(t.Text)
	}

	decls, _, _ := collectExtents(tu)
	extents = make([]DeclExtent, 0, len(decls))
	for _, d := range decls {
		extents = append(extents, DeclExtent{
			Key:   d.key,
			Name:  d.name,
			Scope: d.scope,
			Start: int(d.start),
			End:   int(d.end) + lenAt[d.end],
		})
	}
	return extents, true
}
