package check

import (
	"fmt"
	"path"
	"strings"
	"sync"

	"repro/internal/buildcache"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/sema"
	"repro/internal/cpp/token"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Options configures one standalone checker run (the same input shape
// core.Substitute takes, minus output naming).
type Options struct {
	// FS holds the project tree (sources + all headers).
	FS *vfs.FS
	// SearchPaths are the -I include directories.
	SearchPaths []string
	// Sources are the user files that would be transformed.
	Sources []string
	// Header is the include target to substitute, as spelled in the
	// #include directive; ExtraHeaders are additional ones.
	Header       string
	ExtraHeaders []string
	// Defines are -D style predefined macros.
	Defines map[string]string
	// Passes restricts which checks run (nil = all registered).
	Passes []string
	// Jobs bounds per-TU parallelism (<=0 picks GOMAXPROCS).
	Jobs int
	// Cache, when set, serves each source's translation unit from the
	// build cache the compiler and the substitution tool share
	// (wall-clock only).
	Cache *buildcache.Cache
	// Obs records per-pass histograms/counters and frontend spans.
	Obs *obs.Obs
}

// Run builds one TU per source (each with its own frontend, so TUs are
// independent and check in parallel) and executes the passes. It fails
// if no source includes the header — a silent "safe" on a typo'd header
// name would be worse than an error.
func Run(opts Options) (*Result, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("check: Options.FS is required")
	}
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("check: at least one source file is required")
	}
	if opts.Header == "" {
		return nil, fmt.Errorf("check: Options.Header is required")
	}
	sp := opts.Obs.Start("check")
	sp.SetStr("header", opts.Header)
	defer sp.End()
	o := sp.Obs()

	tus, err := buildTUs(opts, o)
	if err != nil {
		return nil, err
	}
	anyHeader := false
	for _, tu := range tus {
		if len(tu.HeaderOwned) > 0 {
			anyHeader = true
			break
		}
	}
	if !anyHeader {
		return nil, fmt.Errorf("check: header %q is not included by any source", opts.Header)
	}
	res, err := CheckTUs(tus, opts.Passes, opts.Jobs, o)
	if err != nil {
		return nil, err
	}
	sp.SetInt("diagnostics", int64(len(res.Diagnostics)))
	return res, nil
}

// buildTUs runs the frontend for every source on the bounded pool,
// each worker recording into its own trace lane.
func buildTUs(opts Options, o *obs.Obs) ([]*TU, error) {
	sources := map[string]bool{}
	for _, s := range opts.Sources {
		sources[vfs.Clean(s)] = true
	}
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = 4
	}
	tus := make([]*TU, len(opts.Sources))
	errs := make([]error, len(opts.Sources))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, src := range opts.Sources {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, src string) {
			defer wg.Done()
			defer func() { <-sem }()
			wo := o.Lane("check frontend " + src)
			defer wo.SealLane()
			tus[i], errs[i] = frontendTU(opts, wo, src, sources)
		}(i, src)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("check: %v", err)
		}
	}
	return tus, nil
}

// frontendTU runs the shared frontend over one source and analyzes it
// into a self-contained TU whose AST is the source set's user view.
func frontendTU(opts Options, o *obs.Obs, src string, sources map[string]bool) (*TU, error) {
	cfg := frontend.Config{FS: opts.FS, SearchPaths: opts.SearchPaths, Defines: opts.Defines, Cache: opts.Cache}
	unit, err := frontend.Parse(cfg, src, o)
	if err != nil {
		return nil, err
	}
	res := unit.Result
	owned := map[string]bool{}
	for _, target := range append([]string{opts.Header}, opts.ExtraHeaders...) {
		if hf := FindHeaderFile(res, target); hf != "" {
			MarkOwned(owned, res.DirectDeps, hf)
		}
	}
	tu := unit.Unit(o)
	tables := sema.NewTable()
	tables.Obs = o
	tables.AddUnit(tu)
	return &TU{
		Source:      vfs.Clean(src),
		AST:         UserView(tu, sources),
		Tables:      tables,
		HeaderOwned: owned,
		Sources:     sources,
		MacroDefs:   res.MacroDefs,
		MacroUses:   res.MacroUses,
		FS:          opts.FS,
	}, nil
}

// UserView returns the top-level declarations of tu that contain at
// least one node positioned in one of the sources, in their original
// order and sharing tu's nodes. Every pass, and every walk of the
// substitution engine's analysis, discards nodes whose own position
// lies outside the sources, so walking the view gives exactly the
// results of walking tu while skipping the library code around the
// user's declarations. The view depends on the source set, so it is
// built per run and never stored with a cached tree.
func UserView(tu *ast.TranslationUnit, sources map[string]bool) *ast.TranslationUnit {
	ids := make(map[token.FileID]bool, len(sources))
	for s := range sources {
		ids[token.InternFile(s)] = true
	}
	view := &ast.TranslationUnit{}
	for _, d := range tu.Decls {
		found := false
		ast.Walk(d, func(n ast.Node) bool {
			found = found || ids[n.Pos().File]
			return !found
		})
		if found {
			view.Decls = append(view.Decls, d)
		}
	}
	return view
}

// FindHeaderFile locates the resolved path of an include target (as
// spelled in the #include directive) among a TU's includes, or "". The
// substitution engine resolves its headers with it too.
func FindHeaderFile(res *preprocessor.Result, target string) string {
	suffix := "/" + path.Base(target)
	for _, inc := range res.Includes {
		if inc == vfs.Clean(target) || strings.HasSuffix("/"+inc, suffix) {
			return inc
		}
	}
	return ""
}

// MarkOwned adds hf and everything reachable from it through deps (a
// preprocessor result's DirectDeps) to owned.
func MarkOwned(owned map[string]bool, deps map[string][]string, hf string) {
	if owned[hf] {
		return
	}
	owned[hf] = true
	for _, d := range deps[hf] {
		MarkOwned(owned, deps, d)
	}
}
