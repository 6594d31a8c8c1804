// Package difftest is the differential-testing harness for the Header
// Substitution pipeline. It checks the paper's core claim — that
// substitution is *semantics-preserving* while compiling faster — on
// arbitrary subjects (corpus entries or fuzzgen-generated programs) with
// five oracles:
//
//	safety      the yallacheck passes produce no error diagnostic on a
//	            clean program (no false positives) and at least one on a
//	            program generated with a known-unsafe construct; when
//	            the exec oracle later catches a real divergence the
//	            passes stayed silent about, that silence is a violation
//	exec        the original program and the substituted program
//	            (modified sources + wrappers TU) produce identical
//	            observable output under the reference interpreter
//	idempotent  substituting already-substituted sources is a no-op
//	            (the tool reports nothing left to substitute) or a
//	            stable fixpoint (byte-identical regenerated artifacts)
//	paths       cache-on/cache-off, -j1/-jN, and daemon-session vs.
//	            one-shot execution paths produce byte-identical
//	            generated files
//	incremental after every header edit in a seeded stream, a live
//	            session's generated artifacts — kept across benign
//	            edits by the decl-level early cutoff — are
//	            byte-identical to a cold one-shot build of the same
//	            overlay (incremental.go)
//	perf        the substituted rebuild cost is no worse than the
//	            baseline rebuild cost (the paper's headline property)
//	split       decomposing the subject's god header (internal/split)
//	            preserves observable behavior (exec equivalence of
//	            original vs. decomposed) and is path-independent: the
//	            rewritten file set is byte-identical at -j 1 and -j 4
//
// A failed oracle yields a Violation with a deterministic detail string;
// the minimizer (minimize.go) shrinks a failing generated program to a
// minimal reproducer.
package difftest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/buildcache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpp/ast"
	"repro/internal/daemon"
	"repro/internal/devcycle"
	"repro/internal/frontend"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/split"
	"repro/internal/vfs"
)

// OracleNames lists every oracle in canonical run order.
var OracleNames = []string{"safety", "exec", "idempotent", "paths", "incremental", "perf", "split"}

// mutateGenerated is a test-only fault-injection hook: when set, every
// generated file (lightweight header, wrappers, modified sources) is
// passed through it right after substitution, before the exec oracle
// interprets the substituted program. Tests use it to verify that a
// broken rewrite actually trips an oracle.
var mutateGenerated func(path, content string) string

// Violation is one oracle failure.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// Result is the outcome of checking one subject against the oracles.
type Result struct {
	Subject    string      `json:"subject"`
	Violations []Violation `json:"violations,omitempty"`
	// Skipped records oracles that could not run with the reason (e.g.
	// both program variants fail identically under the interpreter).
	Skipped []string `json:"skipped,omitempty"`
}

// OK reports whether every oracle passed.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

func (r *Result) addf(oracle, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) skipf(oracle, format string, args ...any) {
	r.Skipped = append(r.Skipped, oracle+": "+fmt.Sprintf(format, args...))
}

// Options tunes a Check run.
type Options struct {
	// Oracles selects a subset of OracleNames; nil or empty runs all.
	Oracles []string
	// Budget bounds interpreter steps per program; <= 0 uses the
	// interpreter default.
	Budget int
	// MustFlag inverts the safety oracle's expectation: the subject was
	// generated with a known-unsafe construct, so zero error diagnostics
	// is the violation (a false negative).
	MustFlag bool
	// IncrementalSeed selects the incremental oracle's edit stream;
	// 0 means stream 1. IncrementalEdits is the stream length; <= 0
	// means 8.
	IncrementalSeed  int64
	IncrementalEdits int
	// Obs, when set, records one span per oracle plus check counters.
	Obs *obs.Obs
}

func (o Options) want(name string) bool {
	if len(o.Oracles) == 0 {
		return true
	}
	for _, n := range o.Oracles {
		if n == name {
			return true
		}
	}
	return false
}

// SubjectFor wraps a generated program as a corpus subject so the whole
// devcycle/daemon machinery can run it unchanged.
func SubjectFor(p *fuzzgen.Program) *corpus.Subject {
	fs := vfs.New()
	paths := make([]string, 0, len(p.Files))
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fs.Write(path, p.Files[path])
	}
	return &corpus.Subject{
		Name:                p.Name,
		Library:             "Fuzz",
		FS:                  fs,
		MainFile:            p.MainFile,
		Sources:             []string{p.MainFile},
		Header:              p.Header,
		SearchPaths:         p.SearchPaths,
		KernelIters:         4,
		WrapperCallsPerIter: 2,
	}
}

// Check runs the selected oracles over one subject. The subject's FS is
// never written to: every pipeline run works on a private overlay.
func Check(s *corpus.Subject, opt Options) *Result {
	o := opt.Obs
	sp := o.Start("difftest.check")
	defer sp.End()
	sp.SetStr("subject", s.Name)
	res := &Result{Subject: s.Name}

	// The safety oracle runs before (and independently of) the
	// substitution: it judges the *input* program.
	safetyErrs, safetyRan := 0, false
	if opt.want("safety") {
		ssp := o.Start("oracle.safety")
		safetyErrs = safetyOracle(res, s, opt.MustFlag)
		safetyRan = true
		ssp.End()
	}

	// One primary substitution; exec/idempotent/paths all reuse it.
	fsSub := s.FS.Overlay()
	sub, err := substitute(fsSub, s, nil, "")
	if err != nil {
		res.addf("pipeline", "substitute failed: %v", err)
		o.Counter("difftest.violations").Add(1)
		return res
	}
	base := snapshotGenerated(fsSub, sub)
	applyFault(fsSub, sub)

	if opt.want("exec") {
		esp := o.Start("oracle.exec")
		execOracle(res, s, fsSub, sub, opt.Budget)
		esp.End()
	}
	// Cross-check: an exec-caught miscompile the passes did not flag is
	// a safety false negative. Injected faults (mutateGenerated) are
	// exempt — they corrupt the *generated* output, which no static
	// analysis of the input can anticipate.
	if safetyRan && safetyErrs == 0 && mutateGenerated == nil {
		for _, v := range res.Violations {
			if v.Oracle == "exec" {
				res.addf("safety", "exec divergence not flagged by any check pass: %s", v.Detail)
				break
			}
		}
	}
	if opt.want("idempotent") {
		isp := o.Start("oracle.idempotent")
		idempotentOracle(res, s, fsSub, sub)
		isp.End()
	}
	if opt.want("paths") {
		psp := o.Start("oracle.paths")
		pathsOracle(res, s, base)
		psp.End()
	}
	if opt.want("incremental") {
		nsp := o.Start("oracle.incremental")
		incrementalOracle(res, s, opt)
		nsp.End()
	}
	if opt.want("perf") {
		fsp := o.Start("oracle.perf")
		perfOracle(res, s)
		fsp.End()
	}
	if opt.want("split") {
		ssp := o.Start("oracle.split")
		splitOracle(res, s, opt.Budget)
		ssp.End()
	}
	o.Counter("difftest.checks").Add(1)
	o.Counter("difftest.violations").Add(uint64(len(res.Violations)))
	return res
}

// substitute runs core.Substitute on fs with panic containment (a
// crashing rewrite is a finding, not a harness abort).
func substitute(fs *vfs.FS, s *corpus.Subject, cache *buildcache.Cache, outDir string) (sub *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			sub, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	if outDir == "" {
		outDir = s.OutDir()
	}
	opts := core.Options{
		FS:          fs,
		SearchPaths: s.SearchPaths,
		Sources:     s.Sources,
		Header:      s.Header,
		OutDir:      outDir,
		// The harness judges safety through its own oracle; the engine's
		// gate must not pre-empt the downstream oracles (and fault
		// injection plants bugs the gate would never see anyway).
		SkipCheck: true,
		Cache:     cache,
	}
	return core.Substitute(opts)
}

// generatedPaths lists the substitution's output files in stable order.
func generatedPaths(sub *core.Result) []string {
	paths := []string{sub.LightweightPath, sub.WrappersPath}
	for _, p := range sub.ModifiedSources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

func snapshotGenerated(fs *vfs.FS, sub *core.Result) map[string]string {
	out := map[string]string{}
	for _, p := range generatedPaths(sub) {
		if c, err := fs.Read(p); err == nil {
			out[p] = c
		}
	}
	return out
}

func applyFault(fs *vfs.FS, sub *core.Result) {
	if mutateGenerated == nil {
		return
	}
	for _, p := range generatedPaths(sub) {
		if c, err := fs.Read(p); err == nil {
			fs.Write(p, mutateGenerated(p, c))
		}
	}
}

// ---------------------------------------------------------------- safety

// safetyOracle runs the yallacheck passes over the *input* program and
// returns the number of error diagnostics. With mustFlag unset, any
// error on a program believed clean is a false positive; with mustFlag
// set (the subject was generated around a known-unsafe construct),
// silence is the violation — a false negative.
func safetyOracle(res *Result, s *corpus.Subject, mustFlag bool) int {
	cres, err := check.Run(check.Options{
		FS:          s.FS.Overlay(),
		SearchPaths: s.SearchPaths,
		Sources:     s.Sources,
		Header:      s.Header,
	})
	if err != nil {
		res.addf("safety", "check run failed: %v", err)
		return 0
	}
	errs := cres.Errors()
	switch {
	case mustFlag && len(errs) == 0:
		res.addf("safety", "known-unsafe program produced no error diagnostic (verdict %s)", cres.Verdict)
	case !mustFlag && len(errs) > 0:
		res.addf("safety", "false positive on clean program: %s", errs[0])
	}
	return len(errs)
}

// ------------------------------------------------------------------ exec

func execOracle(res *Result, s *corpus.Subject, fsSub *vfs.FS, sub *core.Result, budget int) {
	orig, origErr := Interpret(s.FS.Overlay(), s.SearchPaths, s.Sources, budget)

	files := make([]string, 0, len(s.Sources)+1)
	for _, src := range s.Sources {
		if m, ok := sub.ModifiedSources[src]; ok {
			files = append(files, m)
		} else {
			files = append(files, src)
		}
	}
	files = append(files, sub.WrappersPath)
	paths := append(append([]string{}, s.SearchPaths...), dirOf(sub.LightweightPath))
	got, gotErr := Interpret(fsSub, paths, files, budget)

	switch {
	case origErr != nil && gotErr != nil:
		// The interpreter covers the generated subset, not all of C++;
		// when BOTH variants are outside it, the oracle abstains.
		res.skipf("exec", "both variants uninterpretable: original: %v; substituted: %v", origErr, gotErr)
	case origErr != nil:
		res.addf("exec", "original uninterpretable but substituted ran: %v", origErr)
	case gotErr != nil:
		res.addf("exec", "substituted program failed: %v (original ran fine)", gotErr)
	default:
		if d := diffTraces(orig, got); d != "" {
			res.addf("exec", "output diverged: %s", d)
		}
	}
}

// Interpret preprocesses, parses, and runs a set of translation units
// as one program, returning its observable trace.
func Interpret(fs *vfs.FS, searchPaths, files []string, budget int) (tr *Trace, err error) {
	defer func() {
		if p := recover(); p != nil {
			tr, err = nil, fmt.Errorf("interpreter panic: %v", p)
		}
	}()
	tus := make([]*ast.TranslationUnit, 0, len(files))
	for _, f := range files {
		unit, err := frontend.Parse(frontend.Config{FS: fs, SearchPaths: searchPaths}, f, nil)
		if err != nil {
			return nil, err
		}
		tus = append(tus, unit.Unit(nil))
	}
	return Run(tus, budget)
}

func diffTraces(a, b *Trace) string {
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	for i := 0; i < n; i++ {
		if a.Events[i] != b.Events[i] {
			return fmt.Sprintf("event %d: original %q vs substituted %q", i, a.Events[i], b.Events[i])
		}
	}
	if len(a.Events) != len(b.Events) {
		return fmt.Sprintf("event count: original %d vs substituted %d", len(a.Events), len(b.Events))
	}
	if a.Ret != b.Ret {
		return fmt.Sprintf("return value: original %d vs substituted %d", a.Ret, b.Ret)
	}
	return ""
}

func dirOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return "."
}

// ------------------------------------------------------------ idempotent

func idempotentOracle(res *Result, s *corpus.Subject, fsSub *vfs.FS, sub *core.Result) {
	fs2 := fsSub.Overlay()
	srcs := make([]string, 0, len(s.Sources))
	for _, src := range s.Sources {
		if m, ok := sub.ModifiedSources[src]; ok {
			srcs = append(srcs, m)
		} else {
			srcs = append(srcs, src)
		}
	}
	paths := append(append([]string{}, s.SearchPaths...), dirOf(sub.LightweightPath))
	out2 := dirOf(sub.LightweightPath) + "_idem"
	sub2, err := core.Substitute(core.Options{
		FS:          fs2,
		SearchPaths: paths,
		Sources:     srcs,
		Header:      s.Header,
		OutDir:      out2,
		SkipCheck:   true,
	})
	if err != nil {
		// The expected no-op shape: the substituted sources no longer
		// include the expensive header, so the tool has nothing to do.
		if strings.Contains(err.Error(), "not included by any source") ||
			strings.Contains(err.Error(), "no #include") {
			return
		}
		res.addf("idempotent", "re-substitution failed unexpectedly: %v", err)
		return
	}
	// Otherwise it must be a fixpoint: regenerated artifacts match the
	// first generation byte for byte.
	pairs := [][2]string{
		{sub.LightweightPath, sub2.LightweightPath},
		{sub.WrappersPath, sub2.WrappersPath},
	}
	for i, src := range srcs {
		if m, ok := sub2.ModifiedSources[src]; ok {
			pairs = append(pairs, [2]string{srcs[i], m})
		}
	}
	for _, pr := range pairs {
		a, errA := fs2.Read(pr[0])
		b, errB := fs2.Read(pr[1])
		if errA != nil || errB != nil {
			res.addf("idempotent", "cannot read %q/%q for fixpoint compare", pr[0], pr[1])
			return
		}
		if a != b {
			res.addf("idempotent", "re-substitution changed %q (not a fixpoint)", pr[0])
			return
		}
	}
}

// ----------------------------------------------------------------- paths

// pathsOracle re-runs the substitution through every alternate execution
// path and demands byte-identical generated files.
func pathsOracle(res *Result, s *corpus.Subject, base map[string]string) {
	compare := func(variant string, got map[string]string) {
		keys := make([]string, 0, len(base))
		for k := range base {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g, ok := got[k]
			if !ok {
				res.addf("paths", "%s: missing generated file %q", variant, k)
				return
			}
			if g != base[k] {
				res.addf("paths", "%s: %q differs from one-shot output", variant, k)
				return
			}
		}
	}

	// Cache-on one-shot, then a warm re-run against the same cache.
	cache := buildcache.New()
	for _, variant := range []string{"cache-cold", "cache-warm"} {
		fs := s.FS.Overlay()
		sub, err := substitute(fs, s, cache, "")
		if err != nil {
			res.addf("paths", "%s: substitute failed: %v", variant, err)
			return
		}
		compare(variant, snapshotGenerated(fs, sub))
	}

	// Parallel: N workers share one fresh cache, each on its own
	// overlay (the -j N path; exercises singleflight and hash reuse).
	const jobs = 4
	pcache := buildcache.New()
	type out struct {
		files map[string]string
		err   error
	}
	outs := make([]out, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fs := s.FS.Overlay()
			sub, err := substitute(fs, s, pcache, "")
			if err != nil {
				outs[i] = out{err: err}
				return
			}
			outs[i] = out{files: snapshotGenerated(fs, sub)}
		}(i)
	}
	wg.Wait()
	for i, o := range outs {
		if o.err != nil {
			res.addf("paths", "parallel[%d]: substitute failed: %v", i, o.err)
			return
		}
		compare(fmt.Sprintf("parallel[%d]", i), o.files)
	}

	// Daemon session path.
	srv := daemon.New(daemon.Config{Workers: 2})
	sess, err := srv.CreateSessionFor("difftest-"+s.Name, s, "yalla")
	if err != nil {
		res.addf("paths", "daemon: create session: %v", err)
		return
	}
	dres, err := sess.Substitute(context.Background(), nil)
	if err != nil {
		res.addf("paths", "daemon: substitute failed: %v", err)
		return
	}
	compare("daemon", dres.Files)
}

// ------------------------------------------------------------------ perf

func perfOracle(res *Result, s *corpus.Subject) {
	cycle := func(mode devcycle.Mode) (devcycle.Times, error) {
		st, err := devcycle.PrepareWith(s, mode, devcycle.Config{FS: s.FS.Overlay()})
		if err != nil {
			return devcycle.Times{}, fmt.Errorf("prepare %s: %v", mode, err)
		}
		t, err := st.Cycle()
		if err != nil {
			return devcycle.Times{}, fmt.Errorf("cycle %s: %v", mode, err)
		}
		return t, nil
	}
	tD, err := cycle(devcycle.Default)
	if err != nil {
		res.addf("perf", "%v", err)
		return
	}
	tY, err := cycle(devcycle.Yalla)
	if err != nil {
		res.addf("perf", "%v", err)
		return
	}
	if tY.Compile > tD.Compile {
		res.addf("perf", "substituted rebuild compile %v exceeds baseline %v", tY.Compile, tD.Compile)
	}
}

// ----------------------------------------------------------------- split

// splitOracle decomposes the subject's god header on a private overlay
// and demands (a) exec equivalence — the decomposed program's observable
// trace matches the original's — and (b) path independence — the
// partition digest and every rewritten byte are identical at -j 1 and
// -j 4. A header the analysis refuses (ErrNotDecomposable) is a skip:
// refusal leaves the tree untouched, so there is nothing to diverge.
func splitOracle(res *Result, s *corpus.Subject, budget int) {
	decompose := func(jobs int) (fs *vfs.FS, r *split.Result, err error) {
		defer func() {
			if p := recover(); p != nil {
				fs, r, err = nil, nil, fmt.Errorf("panic: %v", p)
			}
		}()
		fs = s.FS.Overlay()
		r, err = split.Decompose(split.Options{
			FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
			Header: s.Header, MaxParts: 4, Jobs: jobs,
		})
		return fs, r, err
	}
	fsDec, dec, err := decompose(1)
	if err != nil {
		if errors.Is(err, split.ErrNotDecomposable) {
			res.skipf("split", "header not decomposable: %v", err)
			return
		}
		res.addf("split", "decompose failed: %v", err)
		return
	}

	// Exec equivalence of original vs. decomposed, same abstention rule
	// as the exec oracle: both variants outside the interpreted subset
	// is a skip, a one-sided failure is a violation.
	orig, origErr := Interpret(s.FS.Overlay(), s.SearchPaths, s.Sources, budget)
	got, gotErr := Interpret(fsDec, s.SearchPaths, s.Sources, budget)
	switch {
	case origErr != nil && gotErr != nil:
		res.skipf("split", "both variants uninterpretable: original: %v; decomposed: %v", origErr, gotErr)
	case origErr != nil:
		res.addf("split", "original uninterpretable but decomposed ran: %v", origErr)
	case gotErr != nil:
		res.addf("split", "decomposed program failed: %v (original ran fine)", gotErr)
	default:
		if d := diffTraces(orig, got); d != "" {
			res.addf("split", "output diverged: %s", d)
		}
	}

	// Path independence: a -j 4 rerun must produce the same partition
	// and write byte-identical files.
	_, dec4, err := decompose(4)
	if err != nil {
		res.addf("split", "-j4 decompose failed after -j1 succeeded: %v", err)
		return
	}
	if dec4.Digest != dec.Digest {
		res.addf("split", "partition digest differs across -j: %s vs %s", dec.Digest, dec4.Digest)
		return
	}
	if len(dec4.Files) != len(dec.Files) {
		res.addf("split", "written file count differs across -j: %d vs %d", len(dec.Files), len(dec4.Files))
		return
	}
	for p, want := range dec.Files {
		if dec4.Files[p] != want {
			res.addf("split", "-j4 wrote different bytes for %q", p)
			return
		}
	}
}
