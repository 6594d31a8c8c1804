// Package core implements Header Substitution, the paper's contribution:
// given C++ source files and an expensive header they include, it
// generates (1) a lightweight header containing forward declarations,
// function/method wrappers, and functors replacing lambdas; (2) modified
// sources that include the lightweight header instead and use the wrappers
// (with incomplete-type usages turned into pointers); and (3) a wrappers
// translation unit holding wrapper definitions plus explicit template
// instantiations, which is compiled once and linked thereafter (Figure 6).
//
// The entry point Substitute follows the SubstituteHeader algorithm of
// Figure 5: analyze → resolve aliases → forward declare → wrap → transform
// lambdas → replace include → write wrapper file.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/check"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/sema"
	"repro/internal/frontend"
	"repro/internal/obs"
	"repro/internal/rewrite"
	"repro/internal/vfs"
)

// Options configures one Header Substitution run.
type Options struct {
	// FS holds the project tree (sources + all headers).
	FS *vfs.FS
	// SearchPaths are the -I include directories.
	SearchPaths []string
	// Sources are the user files to transform. The first file that
	// includes Header gets the include replacement; all of them get usage
	// transformations.
	Sources []string
	// Header is the include target to substitute, as spelled in the
	// #include directive (e.g. "Kokkos_Core.hpp").
	Header string
	// ExtraHeaders are additional expensive headers substituted in the
	// same run — a step toward the paper's §6 goal of applying Header
	// Substitution to entire projects. All substituted headers share one
	// lightweight header and one wrappers TU.
	ExtraHeaders []string
	// OutDir receives the generated files. Default "yalla_out".
	OutDir string
	// LightweightName names the generated header. Default
	// "lightweight_header.hpp".
	LightweightName string
	// WrappersName names the wrapper TU. Default "wrappers.cpp".
	WrappersName string
	// Defines are -D style predefined macros.
	Defines map[string]string
	// PreDeclare lists qualified names of classes and functions from the
	// substituted header that should be forward declared (and wrapped if
	// necessary) even when the sources do not use them yet. This is the
	// paper's §6 extension: "allowing developers to specify all the
	// classes and functions they need prior to running YALLA for the
	// first time", so the tool need not be rerun when the used-symbol
	// set grows.
	PreDeclare []string
	// SkipCheck disables the safety gate. By default Substitute runs the
	// internal/check passes over the parsed sources and refuses to
	// substitute when any error-severity finding would make the rewritten
	// program miscompile or change meaning (returning a *GateError).
	// Setting SkipCheck restores the unchecked behavior of earlier
	// versions.
	SkipCheck bool
	// Cache, when set, serves each source's translation unit from the
	// build cache the compiler shares (wall-clock only; output
	// unchanged).
	Cache *buildcache.Cache
	// Obs, when set, records one "substitute" span with per-phase child
	// spans (frontend, analyze, forward-decls, wrappers, transform, emit)
	// and substitution counters. Nil disables recording at zero cost.
	Obs *obs.Obs
}

// Result reports what Substitute produced.
type Result struct {
	// LightweightPath/WrappersPath are the generated files' paths in FS.
	LightweightPath string
	WrappersPath    string
	// ModifiedSources maps each original source path to its rewritten
	// path in OutDir.
	ModifiedSources map[string]string
	// HeaderFile is the resolved path of the (primary) substituted
	// header; HeaderFiles lists every substituted header's resolved path.
	HeaderFile  string
	HeaderFiles []string
	// HeaderOwned lists every file the substituted header pulls in
	// (including itself).
	HeaderOwned []string
	// Includes is the union of every file any source's preprocessor run
	// resolved (sources included), sorted; AbsentDeps is the union of
	// the include probes that missed. Together they are the tool run's
	// dependency manifest: the output is reproducible while all of
	// Includes hash the same and all of AbsentDeps stay absent. The
	// daemon's incremental-invalidation graph is built from them.
	Includes   []string
	AbsentDeps []string
	Report     Report
}

// Report carries the statistics the evaluation tables summarize.
type Report struct {
	ForwardDeclaredClasses int
	FunctionWrappers       int
	MethodWrappers         int
	FieldWrappers          int
	LambdasConverted       int
	CallSitesRewritten     int
	PointerizedUsages      int
	EnumsRewritten         int
	AliasesResolved        int
	Diagnostics            []string
}

// Engine carries the state of one substitution run.
type Engine struct {
	opts   Options
	fs     *vfs.FS
	tables *sema.Table

	headerFile  string
	headerFiles []string
	headerOwned map[string]bool
	sourceSet   map[string]bool
	// ppRes keeps each source's preprocessor result (macro definitions
	// and expansion records) for the safety gate.
	ppRes map[string]*preprocessor.Result

	an  *analysis
	rep Report

	// includes/absentDeps accumulate the union dependency manifest over
	// every source's preprocessor run (see Result.Includes).
	includes   map[string]bool
	absentDeps map[string]bool

	// edits per original file; lambda-internal edits are partitioned out
	// during emission.
	rewrites *rewrite.Set

	// fullUnits makes the analysis and the gate walk whole translation
	// units instead of their user views; tests set it to prove the
	// views exact.
	fullUnits bool
}

// Substitute runs Header Substitution; see the package comment.
func Substitute(opts Options) (*Result, error) {
	e, err := newEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.run()
}

func newEngine(opts Options) (*Engine, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("core: Options.FS is required")
	}
	if len(opts.Sources) == 0 {
		return nil, fmt.Errorf("core: at least one source file is required")
	}
	if opts.Header == "" {
		return nil, fmt.Errorf("core: Options.Header is required")
	}
	if opts.OutDir == "" {
		opts.OutDir = "yalla_out"
	}
	if opts.LightweightName == "" {
		opts.LightweightName = "lightweight_header.hpp"
	}
	if opts.WrappersName == "" {
		opts.WrappersName = "wrappers.cpp"
	}
	return &Engine{
		opts:        opts,
		fs:          opts.FS,
		headerOwned: map[string]bool{},
		sourceSet:   map[string]bool{},
		ppRes:       map[string]*preprocessor.Result{},
		includes:    map[string]bool{},
		absentDeps:  map[string]bool{},
		rewrites:    rewrite.NewSet(),
	}, nil
}

func (e *Engine) run() (*Result, error) {
	root := e.opts.Obs.Start("substitute")
	root.SetStr("header", e.opts.Header)
	defer root.End()
	o := root.Obs()
	phase := func(name string, f func() error) error {
		sp := o.Start(name)
		defer sp.End()
		return f()
	}

	// Phase 0: preprocess + parse everything, build symbol tables.
	if err := phase("frontend", func() error { return e.frontend(o) }); err != nil {
		return nil, err
	}
	// Phase 0.5: the safety gate — refuse substitutions the check passes
	// prove unsafe (§6 hazards), reusing the frontend artifacts.
	if !e.opts.SkipCheck {
		if err := phase("check", func() error { return e.gate(o) }); err != nil {
			return nil, err
		}
	}
	// Phase 1 (Fig. 5 lines 2–10): analysis.
	if err := phase("analyze", e.analyze); err != nil {
		return nil, err
	}
	// Phase 2 (lines 11–14): forward declarations.
	var fwd []ForwardDecl
	if err := phase("forward-decls", func() error {
		var err error
		fwd, err = e.buildForwardDecls()
		return err
	}); err != nil {
		return nil, err
	}
	// Lines 15–22: wrappers.
	var wrappers *wrapperSet
	if err := phase("wrappers", func() error {
		wrappers = e.buildWrappers()
		return nil
	}); err != nil {
		return nil, err
	}
	// Lines 23–26: lambda conversion, include replacement, and usage
	// transformations, collected as source edits.
	var edits []editRec
	var functors []*Functor
	if err := phase("transform", func() error {
		var err error
		edits, functors, err = e.transform(wrappers)
		return err
	}); err != nil {
		return nil, err
	}
	// Line 27: emit everything.
	var res *Result
	if err := phase("emit", func() error {
		var err error
		res, err = e.emit(fwd, wrappers, functors, edits)
		return err
	}); err != nil {
		return nil, err
	}
	res.Includes = sortedKeys(e.includes)
	res.AbsentDeps = sortedKeys(e.absentDeps)
	e.opts.Obs.Counter("substitute.runs").Add(1)
	e.opts.Obs.Counter("substitute.wrappers").Add(uint64(res.Report.FunctionWrappers + res.Report.MethodWrappers))
	root.SetInt("forward_decls", int64(res.Report.ForwardDeclaredClasses))
	root.SetInt("call_sites", int64(res.Report.CallSitesRewritten))
	return res, nil
}

// frontend preprocesses and parses each source through the shared
// frontend, builds the symbol table over the full translation units,
// computes the header-owned file set, and keeps each unit's user view
// (see check.UserView) for the analysis walks.
func (e *Engine) frontend(o *obs.Obs) error {
	for _, s := range e.opts.Sources {
		e.sourceSet[vfs.Clean(s)] = true
	}
	e.tables = sema.NewTable()
	e.tables.Obs = o
	e.an = newAnalysis()

	cfg := frontend.Config{FS: e.fs, SearchPaths: e.opts.SearchPaths, Defines: e.opts.Defines, Cache: e.opts.Cache}
	for _, src := range e.opts.Sources {
		unit, err := frontend.Parse(cfg, src, o)
		if err != nil {
			return fmt.Errorf("core: %v", err)
		}
		res := unit.Result
		e.ppRes[vfs.Clean(src)] = res
		e.includes[vfs.Clean(src)] = true
		for _, inc := range res.Includes {
			e.includes[inc] = true
		}
		for _, p := range res.AbsentDeps {
			e.absentDeps[p] = true
		}
		// Resolve every substituted header among this TU's includes and
		// mark their transitive closures as header-owned.
		for _, target := range e.headerTargets() {
			if hf := check.FindHeaderFile(res, target); hf != "" {
				if e.headerFile == "" {
					e.headerFile = hf
				}
				if !e.headerOwned[hf] {
					e.headerFiles = append(e.headerFiles, hf)
				}
				check.MarkOwned(e.headerOwned, res.DirectDeps, hf)
			}
		}
		tu := unit.Unit(o)
		e.tables.AddUnit(tu)
		if !e.fullUnits {
			tu = check.UserView(tu, e.sourceSet)
		}
		e.an.units[vfs.Clean(src)] = tu
	}
	if e.headerFile == "" {
		return fmt.Errorf("core: header %q is not included by any source", e.opts.Header)
	}
	return nil
}

// sortedKeys flattens a string set for Result fields.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// headerTargets lists every include target being substituted.
func (e *Engine) headerTargets() []string {
	return append([]string{e.opts.Header}, e.opts.ExtraHeaders...)
}

// inHeader reports whether a file is owned by the substituted header.
func (e *Engine) inHeader(file string) bool { return e.headerOwned[file] }

// inSources reports whether a file is one of the user sources.
func (e *Engine) inSources(file string) bool { return e.sourceSet[file] }

// diag records a diagnostic in the report.
func (e *Engine) diag(format string, args ...any) {
	e.rep.Diagnostics = append(e.rep.Diagnostics, fmt.Sprintf(format, args...))
}

// srcText returns the trimmed original source for a node range.
func (e *Engine) srcText(file string, startOff, endOff int) string {
	src, err := e.fs.Read(file)
	if err != nil || startOff < 0 || endOff > len(src) || startOff > endOff {
		return ""
	}
	return strings.TrimSpace(src[startOff:endOff])
}
