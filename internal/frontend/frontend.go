// Package frontend runs the C++ frontend over one translation unit:
// preprocess (recording macro definitions and expansion sites), parse,
// derive the unit's statistics, and record the dependency manifest —
// served from, and stored into, the content-addressed TU cache when one
// is configured.
//
// Parse is the one way the tools run the frontend (TestOneFrontend
// holds them to it). The compilation simulator, the PCH builder, the
// substitution tool and its safety checker call it with the same
// configuration key and a shared cache, so a translation unit any of
// them parsed is a cache hit for the others: a Yalla setup's tool run
// and its probe compile of the main file share one entry, and a warm
// setup parses nothing. The include auditor (iwyu), the header splitter
// (split), early-cutoff invalidation (inval) and the differential
// oracles (difftest) call it without a cache.
package frontend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Config is the compilation configuration a frontend result depends on
// (file system, include search order, predefined macros) plus the cache
// that memoizes it.
type Config struct {
	FS          *vfs.FS
	SearchPaths []string
	Defines     map[string]string
	// Cache, when set, serves the whole translation unit while its
	// recorded dependency manifest (every file read, by content hash,
	// and every include probe that missed) still validates against FS.
	// Results are identical with or without it; only wall time changes.
	Cache *buildcache.Cache
}

// Parse returns the frontend result for main: the preprocessor output
// (with macro records), the parsed tree, and the unit's Stats in Aux.
// The result may be shared with other callers through the cache and
// must be treated as read-only. Read the tree through Unit: a cached
// entry adopted from a remote tier, or one whose key has a newer
// variant, holds none, and Unit re-parses it.
//
// With a cache, a build resumes from the preamble of the tree its key
// holds when it can (see preamble.go); the result is the same either
// way.
//
// o receives "preprocess" and "parse" spans when the unit is built, or
// one "frontend cache hit" span when the cache serves it.
func Parse(cfg Config, main string, o *obs.Obs) (*buildcache.TU, error) {
	if cfg.Cache == nil {
		res, err := newPreprocessor(cfg, o).Preprocess(main)
		if err != nil {
			return nil, fmt.Errorf("preprocess %s: %v", main, err)
		}
		pr := parser.New(res.Tokens)
		pr.Obs = o
		tu, err := pr.Parse()
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", main, err)
		}
		return buildcache.NewTU(res, tu, countUnit(tu, res, main)), nil
	}
	t, hit, err := cfg.Cache.TranslationUnit(configKey(cfg, main), o, buildcache.Validator(cfg.FS), func(held *ast.TranslationUnit) (*buildcache.TU, []buildcache.Dep, error) {
		t, err := buildCached(cfg, main, o, held)
		if err != nil {
			return nil, nil, err
		}
		return t, buildcache.Manifest(cfg.FS, main, t.Result), nil
	})
	if hit {
		// The preprocess/parse spans never opened; mark the hit so the
		// timeline still shows where this unit came from.
		hsp := o.Start("frontend cache hit")
		hsp.SetStr("file", main)
		hsp.End()
	}
	return t, err
}

// newPreprocessor returns a preprocessor for cfg.
func newPreprocessor(cfg Config, o *obs.Obs) *preprocessor.Preprocessor {
	pp := preprocessor.New(cfg.FS, cfg.SearchPaths...)
	pp.Obs = o
	if cfg.Cache != nil {
		pp.Cache = cfg.Cache
	}
	for k, v := range cfg.Defines {
		pp.Define(k, v)
	}
	return pp
}

// configKey identifies the configuration a frontend result depends on:
// main file, search-path order, and predefined macros. The "compilesim"
// tag predates this package; keeping it keeps existing cache keys.
func configKey(cfg Config, main string) string {
	parts := []string{"compilesim", vfs.Clean(main), strings.Join(cfg.SearchPaths, "\x1f")}
	defs := make([]string, 0, len(cfg.Defines))
	for k, v := range cfg.Defines {
		defs = append(defs, k+"="+v)
	}
	sort.Strings(defs)
	return buildcache.ConfigKey(append(parts, defs...)...)
}

// Stats are the measured (not modeled) facts about one translation unit.
type Stats struct {
	LOC          int // non-blank lines compiled (Table 3 "LOCs")
	Headers      int // files included directly+transitively (Table 3)
	Tokens       int // total tokens in the translation unit
	Decls        int
	FuncDefs     int // function bodies in the unit
	MainFuncDefs int // function bodies defined in the main file itself
	BodyTokens   int // tokens inside those bodies (approximated via AST)
	TemplateUses int // template usages requiring instantiation
	MissingIncl  int
}

// StatsOf returns the statistics of a Parse result for main. Results
// built by Parse carry them in Aux; an entry adopted from a remote node
// that lacked the Stats codec has none, and they are re-derived from
// its tree (deterministic either way; o records the re-parse).
func StatsOf(t *buildcache.TU, main string, o *obs.Obs) Stats {
	if st, ok := t.Aux.(Stats); ok {
		return st
	}
	return countUnit(t.Unit(o), t.Result, main)
}

// countUnit derives the unit statistics from the preprocessor result and
// the parsed tree.
func countUnit(tu *ast.TranslationUnit, res *preprocessor.Result, main string) Stats {
	st := countDecls(tu.Decls, main)
	st.addResult(res)
	return st
}

// addResult sets the statistics read off the preprocessor result.
func (st *Stats) addResult(res *preprocessor.Result) {
	st.LOC = res.LOC
	st.Headers = len(res.Includes)
	st.MissingIncl = len(res.MissingIncludes)
	st.Tokens = len(res.Tokens)
}

// add adds o's counts to st's.
func (st *Stats) add(o Stats) {
	dst, src := statsAuxFields(st), statsAuxFields(&o)
	for i := range dst {
		*dst[i] += *src[i]
	}
}

// countDecls derives the declaration statistics (every field but those
// addResult sets) of top-level declarations in a unit of main. The
// counts are sums over declarations, so a unit's are the sum of any
// split of its declarations.
func countDecls(decls []ast.Decl, main string) Stats {
	var st Stats
	mainID := token.InternFile(vfs.Clean(main))
	count := func(n ast.Node) {
		switch x := n.(type) {
		case *ast.ClassDecl, *ast.AliasDecl, *ast.EnumDecl, *ast.VarDecl, *ast.FieldDecl, *ast.UsingDecl:
			st.Decls++
		case *ast.FunctionDecl:
			st.Decls++
			if x.Body != nil {
				st.FuncDefs++
				st.BodyTokens += bodyTokenEstimate(x.Body)
				if x.Pos().File == mainID {
					st.MainFuncDefs++
				}
			}
		case *ast.ExplicitInstantiation:
			st.Decls++
			st.TemplateUses++
		case *ast.DeclRefExpr:
			if hasTemplateArgs(x.Name) {
				st.TemplateUses++
			}
		case *ast.LambdaExpr:
			st.TemplateUses++ // unique closure type instantiation
		}
		if t, ok := typeOfNode(n); ok && t != nil && hasTemplateArgs(t.Name) {
			st.TemplateUses++
		}
	}
	for _, d := range decls {
		ast.Inspect(d, count)
	}
	return st
}

// typeOfNode extracts the declared type for declarator nodes.
func typeOfNode(n ast.Node) (*ast.Type, bool) {
	switch x := n.(type) {
	case *ast.FieldDecl:
		return x.Type, true
	case *ast.VarDecl:
		return x.Type, true
	case *ast.AliasDecl:
		return x.Target, true
	}
	return nil, false
}

func hasTemplateArgs(q ast.QualifiedName) bool {
	for _, s := range q.Segments {
		if len(s.Args) > 0 {
			return true
		}
	}
	return false
}

// bodyTokenEstimate approximates the token count of a function body from
// its AST node count (the parser does not retain raw body tokens).
func bodyTokenEstimate(body *ast.CompoundStmt) int {
	n := 0
	ast.Inspect(body, func(ast.Node) { n++ })
	return n * 4
}
