package frontend

import (
	"fmt"

	"repro/internal/buildcache"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// A cached build keeps its main file's preamble — the leading block of
// directive lines, usually the #includes (preprocessor.State) — on the
// tree it parses, and the next build of the same cache key resumes from
// the preamble of the tree the key holds: a save to the lines after the
// block re-preprocesses and re-parses only those lines, the way a
// compiler's precompiled preamble does. The preamble rides on the tree
// (ast.TranslationUnit.Memo), so the cache's one-tree-per-key release
// drops it with the tree. An entry adopted from the remote tier, which
// carries no tree, has none, and neither has a tree TU.Unit re-parsed:
// the key's next build after either starts over and captures a new
// one. A resumed unit is a built unit like any other: it is inserted as
// a new variant and counted as a miss.

// preamble is what a cached build keeps of its main file's preamble: the
// preprocessor state at its end, the dependencies read up to there, the
// parser's split at its last token, and the reusable declarations'
// share of Stats. Immutable, and shared by every unit resumed from it.
type preamble struct {
	state *preprocessor.State
	deps  []buildcache.Dep
	parse *parser.Resume
	stats Stats
}

// preambleView is one tree's handle on its preamble: the shared part
// plus the tree's own tokens up to the preamble's end, so a unit never
// pins another variant's token stream.
type preambleView struct {
	*preamble
	toks []token.Token
}

type preambleKey struct{}

// preambleOf returns the preamble view tree carries, or nil.
func preambleOf(tree *ast.TranslationUnit) *preambleView {
	if tree == nil {
		return nil
	}
	v, _ := tree.Memo(preambleKey{}, func() any { return (*preambleView)(nil) }).(*preambleView)
	return v
}

// buildCached builds the unit for main on the cache's path, resuming
// from the preamble of held, the tree its key holds, when every
// dependency of that preamble still validates and the main file still
// starts with its bytes, and capturing a preamble otherwise.
func buildCached(cfg Config, main string, o *obs.Obs, held *ast.TranslationUnit) (*buildcache.TU, error) {
	from := preambleOf(held)
	if from != nil && !buildcache.DepsValid(from.deps, buildcache.Validator(cfg.FS)) {
		from = nil
	}
	var start *preprocessor.State
	var prefix []token.Token
	if from != nil {
		start, prefix = from.state, from.toks
	}
	res, state, err := newPreprocessor(cfg, o).PreprocessFrom(main, start, prefix)
	if err != nil {
		return nil, fmt.Errorf("preprocess %s: %v", main, err)
	}
	pr := parser.New(res.Tokens)
	pr.Obs = o
	var tu *ast.TranslationUnit
	var pre *preamble
	switch {
	case state != nil && state == start:
		o.Counter("frontend.preamble.hits").Add(1)
		pre = from.preamble
		tu, err = pr.ParseFrom(pre.parse)
	case state != nil:
		o.Counter("frontend.preamble.misses").Add(1)
		var r *parser.Resume
		tu, r, err = pr.ParseSplit(state.Tokens())
		if r != nil {
			pre = &preamble{state: state, deps: preambleDeps(cfg.FS, state), parse: r, stats: countDecls(r.Decls, main)}
		}
	default:
		o.Counter("frontend.preamble.misses").Add(1)
		tu, err = pr.Parse()
	}
	if err != nil {
		return nil, fmt.Errorf("parse %s: %v", main, err)
	}
	if pre == nil {
		return buildcache.NewTU(res, tu, countUnit(tu, res, main)), nil
	}
	st := pre.stats
	st.add(countDecls(tu.Decls[len(pre.parse.Decls):], main))
	st.addResult(res)
	view := &preambleView{preamble: pre, toks: res.Tokens[:state.Tokens()]}
	tu.Memo(preambleKey{}, func() any { return view })
	return buildcache.NewTU(res, tu, st), nil
}

// preambleDeps is the dependency manifest of a preamble: every file it
// included, by content hash, and every include probe that missed.
func preambleDeps(fs *vfs.FS, state *preprocessor.State) []buildcache.Dep {
	deps := make([]buildcache.Dep, 0, len(state.Includes())+len(state.AbsentDeps()))
	for _, p := range state.Includes() {
		if h, ok := fs.ContentHash(p); ok {
			deps = append(deps, buildcache.Dep{Path: p, Hash: h})
		}
	}
	for _, p := range state.AbsentDeps() {
		deps = append(deps, buildcache.Dep{Path: p})
	}
	return deps
}
