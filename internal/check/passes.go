package check

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/sema"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TU is the per-translation-unit view a pass analyzes: the parsed AST,
// its symbol table, the header-ownership partition, and (when tracked)
// the preprocessor's macro records. Dataflow facts are attached by the
// runner before any pass executes.
type TU struct {
	// Source is the user source file this TU was preprocessed from.
	Source string
	AST    *ast.TranslationUnit
	Tables *sema.Table
	// HeaderOwned marks every file pulled in (transitively) by the
	// substituted header(s), including the headers themselves.
	HeaderOwned map[string]bool
	// Sources marks the user source files under transformation; passes
	// only diagnose nodes positioned in them.
	Sources map[string]bool
	// MacroDefs/MacroUses are the preprocessor's macro records for this
	// TU, which every frontend run fills.
	MacroDefs map[string]preprocessor.MacroDef
	MacroUses []preprocessor.MacroUse
	// FS gives passes access to original source text (e.g. to inspect
	// the operand of an opaque sizeof extent).
	FS *vfs.FS
	// Flow holds the def-use dataflow facts; set by the runner.
	Flow *Flow
}

// InHeader reports whether file is owned by a substituted header.
func (tu *TU) InHeader(file string) bool { return tu.HeaderOwned[file] }

// InSources reports whether file is a user source under transformation.
func (tu *TU) InSources(file string) bool { return tu.Sources[file] }

// HeaderClassOf resolves ty to a class symbol declared by a substituted
// header, or nil.
func (tu *TU) HeaderClassOf(ty *ast.Type, fromFile string) *sema.Symbol {
	if ty == nil || ty.Builtin {
		return nil
	}
	r := tu.Tables.Lookup(ty.Name, ty.PosStart.File.Name())
	if r == nil {
		r = tu.Tables.Lookup(ty.Name, fromFile)
	}
	if r == nil || r.Symbol.Kind != sema.ClassSym || !tu.InHeader(r.Symbol.DeclFile) {
		return nil
	}
	return r.Symbol
}

// SrcText returns the raw source text for [startOff, endOff) of file, or
// "" when unavailable.
func (tu *TU) SrcText(file string, startOff, endOff int) string {
	src, err := tu.FS.Read(file)
	if err != nil || startOff < 0 || endOff > len(src) || startOff > endOff {
		return ""
	}
	return src[startOff:endOff]
}

// Pass is one registered check. Run inspects the TU and reports each
// finding; it must be deterministic for a given TU and must not retain
// the report callback.
type Pass struct {
	// ID names the pass in diagnostics ([incomplete-deref]) and metrics.
	ID string
	// Doc is a one-line description shown by cmd/yallacheck -list.
	Doc string
	Run func(tu *TU, report func(Diagnostic))
}

var registry = map[string]*Pass{}

// register adds a pass to the table; each pass file calls it from init,
// so adding a check is one new file. Duplicate IDs are a programming
// error.
func register(p *Pass) {
	if _, dup := registry[p.ID]; dup {
		panic(fmt.Sprintf("check: duplicate pass %q", p.ID))
	}
	registry[p.ID] = p
}

// Passes returns the registered passes sorted by ID.
func Passes() []*Pass {
	out := make([]*Pass, 0, len(registry))
	for _, p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selectPasses resolves a pass-ID filter (nil/empty = all).
func selectPasses(ids []string) ([]*Pass, error) {
	if len(ids) == 0 {
		return Passes(), nil
	}
	out := make([]*Pass, 0, len(ids))
	seen := map[string]bool{}
	for _, id := range ids {
		p := registry[id]
		if p == nil {
			return nil, fmt.Errorf("check: unknown pass %q", id)
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Result is the outcome of checking one substitution candidate.
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Verdict     Verdict      `json:"verdict"`
	// Counts is the number of findings per pass (only passes that ran).
	Counts map[string]int `json:"counts"`
}

// Errors reports how many error-severity diagnostics were found.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// CheckTUs runs the selected passes (nil = all) over every TU on a
// bounded worker pool of the given size (<=0 picks GOMAXPROCS). The
// returned diagnostics are sorted and deduplicated, so the result is
// byte-identical regardless of pool size or scheduling. Each TU's
// "check.tu" span is recorded on a trace lane of its own, sealed when
// the TU is done (a lane belongs to one goroutine). Per-pass wall
// durations land in the `check.pass_ms.<id>` histograms and finding
// counts in the `check.findings.<id>` counters of o's registry.
func CheckTUs(tus []*TU, passIDs []string, jobs int, o *obs.Obs) (*Result, error) {
	passes, err := selectPasses(passIDs)
	if err != nil {
		return nil, err
	}
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	perTU := make([][]Diagnostic, len(tus))
	sem := make(chan struct{}, jobs)
	var wg sync.WaitGroup
	for i, tu := range tus {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, tu *TU) {
			defer wg.Done()
			defer func() { <-sem }()
			wo := o.Lane("check " + tu.Source)
			defer wo.SealLane()
			sp := wo.Start("check.tu")
			sp.SetStr("source", tu.Source)
			defer sp.End()
			tu.Flow = BuildFlow(tu)
			var diags []Diagnostic
			for _, p := range passes {
				t0 := time.Now()
				before := len(diags)
				p.Run(tu, func(d Diagnostic) { diags = append(diags, d) })
				o.ObserveMs("check.pass_ms."+p.ID, time.Since(t0))
				o.Counter("check.findings." + p.ID).Add(uint64(len(diags) - before))
			}
			perTU[i] = diags
		}(i, tu)
	}
	wg.Wait()

	res := &Result{Counts: map[string]int{}}
	for _, p := range passes {
		res.Counts[p.ID] = 0
	}
	var all []Diagnostic
	for _, ds := range perTU {
		all = append(all, ds...)
	}
	SortDiagnostics(all)
	all = dedupe(all)
	for _, d := range all {
		res.Counts[d.Pass]++
	}
	res.Diagnostics = all
	res.Verdict = ClassifyVerdict(all)
	return res, nil
}
