// Package devcycle simulates the paper's local development cycle
// (Fig. 1/Fig. 6): the one-time setup for each configuration (steps ①–③ —
// running the tool, compiling wrappers.cpp, or building a PCH) and the
// repeated edit–compile–link–run iteration (steps ④–⑤ plus execution),
// producing the data behind Figure 8 (cycle speedups) and Figure 10
// (first-time compilation cost).
package devcycle

import (
	"fmt"
	"time"

	"repro/internal/buildcache"
	"repro/internal/compilesim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/inval"
	"repro/internal/obs"
	"repro/internal/pch"
	"repro/internal/vfs"
)

// Mode is a build configuration from the evaluation.
type Mode int

// The three configurations of Tables 2–3 and Figures 7–8, plus the two
// extensions the paper discusses: YALLA combined with a PCH over the
// residual (non-substituted) headers (§6: "YALLA is orthogonal in its
// approach to PCH so the two techniques can be used simultaneously") and
// YALLA with link-time optimization (§5.4: recovers the lost inlining at
// a link-time cost the paper found detrimental).
const (
	Default Mode = iota
	PCH
	Yalla
	YallaPCH
	YallaLTO
)

// String names the mode as the paper does.
func (m Mode) String() string {
	switch m {
	case Default:
		return "Default"
	case PCH:
		return "PCH"
	case Yalla:
		return "Yalla"
	case YallaPCH:
		return "Yalla+PCH"
	case YallaLTO:
		return "Yalla+LTO"
	}
	return "?"
}

// isYalla reports whether the mode compiles the substituted sources.
func (m Mode) isYalla() bool { return m == Yalla || m == YallaPCH || m == YallaLTO }

// Times is one development-cycle iteration.
type Times struct {
	Compile time.Duration
	Link    time.Duration
	Run     time.Duration
}

// Total is the full cycle latency.
func (t Times) Total() time.Duration { return t.Compile + t.Link + t.Run }

// SetupTimes is the one-time cost before iterating (Fig. 10).
type SetupTimes struct {
	// Tool is YALLA's own execution time (≈1.5 s in the paper's Fig. 10).
	Tool time.Duration
	// WrapperCompile is the wrappers.cpp compile (step ③).
	WrapperCompile time.Duration
	// PCHBuild is the PCH generation time in PCH mode.
	PCHBuild time.Duration
	// FirstCompile is the first step-④ compile.
	FirstCompile time.Duration
}

// Total is the full first-time cost.
func (s SetupTimes) Total() time.Duration {
	return s.Tool + s.WrapperCompile + s.PCHBuild + s.FirstCompile
}

// Setup is a prepared development environment for one subject+mode.
type Setup struct {
	Subject *corpus.Subject
	Mode    Mode
	FS      *vfs.FS
	Setup   SetupTimes

	compiler     *compilesim.Compiler
	mainFile     string
	wrapperObj   *compilesim.Object
	wrappersPath string
	phases       compilesim.Phases // last compile's phases
	stats        compilesim.Stats
	preDeclared  map[string]bool
	obs          *obs.Obs
	// graph is the decl-level invalidation graph recorded during
	// Prepare: the file closure of every prepared artifact plus the
	// identifiers its consumers reference. Never nil after PrepareWith.
	graph *inval.Graph
}

// runModel captures per-library execution characteristics with the small
// inputs the paper uses in §5.4.
type runModel struct {
	startupNs float64 // process/framework startup (PyKokkos imports Python)
	opNs      float64 // per logical kernel operation
	penaltyNs float64 // extra per wrapper-boundary call in YALLA builds
	perIter   bool    // penalty applies per iteration (fine-grained calls)
}

func modelFor(lib string) runModel {
	switch lib {
	case "PyKokkos":
		// Per-element wrapper calls (Fig. 9) — the penalty scales with
		// the iteration count.
		return runModel{startupNs: 120e6, opNs: 2000, penaltyNs: 3000, perIter: true}
	case "RapidJSON":
		return runModel{startupNs: 8e6, opNs: 150, penaltyNs: 1200, perIter: true}
	case "OpenCV":
		// Library internals stay fully optimized inside wrappers.o; only
		// call boundaries pay.
		return runModel{startupNs: 25e6, opNs: 120, penaltyNs: 1200, perIter: true}
	case "Boost.Asio":
		return runModel{startupNs: 30e6, opNs: 180, penaltyNs: 1200, perIter: true}
	}
	return runModel{startupNs: 10e6, opNs: 200, penaltyNs: 500, perIter: true}
}

// Prepare performs the one-time steps for a subject under a mode.
func Prepare(s *corpus.Subject, mode Mode) (*Setup, error) {
	return PrepareWith(s, mode, Config{})
}

// Config bundles the optional knobs of a Prepare run.
type Config struct {
	// PreDeclare is the §6 pre-declared symbol list passed to the tool.
	PreDeclare []string
	// FS, when set, is used as the working tree directly instead of an
	// overlay over the subject's pristine FS. Daemon sessions pass their
	// live copy-on-write overlay here, so edits applied after Prepare are
	// visible to subsequent Cycle compiles (the build cache invalidates
	// exactly the translation units whose content hashes changed).
	FS *vfs.FS
	// Cache, when set, memoizes frontend work (lexing, preprocessing,
	// parsing) across subjects, modes, and repeated cycles. All virtual
	// times are byte-identical with or without it; only the real time
	// spent simulating drops.
	Cache *buildcache.Cache
	// Obs, when set, records prepare/cycle spans and pipeline metrics for
	// this setup. Nil disables recording at zero cost.
	Obs *obs.Obs
}

// PrepareWith is Prepare with explicit configuration.
func PrepareWith(s *corpus.Subject, mode Mode, cfg Config) (*Setup, error) {
	sp := cfg.Obs.Start("prepare")
	sp.SetStr("subject", s.Name)
	sp.SetStr("mode", mode.String())
	defer sp.End()
	o := sp.Obs()

	fs := cfg.FS
	if fs == nil {
		// An overlay memoizes content hashes in the shared subject tree,
		// so repeated Prepares validate cached units without re-hashing.
		fs = s.FS.Overlay()
	}
	fs.SetReadCounter(o.Counter("vfs.reads"))
	st := &Setup{Subject: s, Mode: mode, FS: fs, preDeclared: map[string]bool{}, obs: o}
	for _, p := range cfg.PreDeclare {
		st.preDeclared[p] = true
	}
	newCompiler := func(paths ...string) *compilesim.Compiler {
		cc := compilesim.New(fs, paths...)
		cc.Cache = cfg.Cache
		cc.Obs = o
		return cc
	}

	var coreRes *core.Result
	switch mode {
	case Default:
		st.compiler = newCompiler(s.SearchPaths...)
		st.mainFile = s.MainFile

	case PCH:
		headerPath, err := resolveHeader(fs, s)
		if err != nil {
			return nil, err
		}
		p, err := pch.Build(fs, headerPath, s.SearchPaths, nil, cfg.Cache, o)
		if err != nil {
			return nil, err
		}
		st.compiler = newCompiler(s.SearchPaths...)
		st.compiler.PCH = p
		st.mainFile = s.MainFile
		// PCH build ≈ frontend over the header plus serialization.
		probe := newCompiler(s.SearchPaths...)
		hdrObj, err := probe.Compile(headerPath)
		if err != nil {
			return nil, err
		}
		st.Setup.PCHBuild = time.Duration(1.15 * float64(hdrObj.Phases.Frontend()))

	case Yalla, YallaPCH, YallaLTO:
		opts := core.Options{
			FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
			Header: s.Header, OutDir: s.OutDir(),
			PreDeclare: cfg.PreDeclare,
			Cache:      cfg.Cache,
			Obs:        o,
		}
		res, err := core.Substitute(opts)
		if err != nil {
			return nil, err
		}
		coreRes = res
		paths := append([]string{s.OutDir()}, s.SearchPaths...)
		st.compiler = newCompiler(paths...)
		st.mainFile = res.ModifiedSources[s.MainFile]
		st.wrappersPath = res.WrappersPath
		// Tool time: the analysis parses the whole translation unit and
		// runs matching + rewriting over it — modeled as 2.3× the default
		// frontend (≈1.5 s for the 02 subject, Fig. 10).
		probe := newCompiler(s.SearchPaths...)
		defObj, err := probe.Compile(s.MainFile)
		if err != nil {
			return nil, err
		}
		st.Setup.Tool = time.Duration(2.3 * float64(defObj.Phases.Frontend()))
		// Step ③: compile wrappers.cpp once.
		wobj, err := st.compiler.Compile(res.WrappersPath)
		if err != nil {
			return nil, fmt.Errorf("devcycle: wrappers compile: %v", err)
		}
		st.wrapperObj = wobj
		st.Setup.WrapperCompile = wobj.Phases.Total()
		if mode == YallaPCH {
			// §6 combination: pre-compile the residual headers the
			// substituted sources still include (std and non-substituted
			// modules).
			p, err := pch.Build(fs, st.mainFile, paths, nil, cfg.Cache, o)
			if err != nil {
				return nil, fmt.Errorf("devcycle: residual pch: %v", err)
			}
			// The PCH must not cover the user's editable files.
			delete(p.Files, st.mainFile)
			for _, out := range res.ModifiedSources {
				delete(p.Files, out)
			}
			delete(p.Files, res.LightweightPath)
			st.compiler.PCH = p
			probeHdr, err := newCompiler(paths...).Compile(st.mainFile)
			if err != nil {
				return nil, err
			}
			st.Setup.PCHBuild = time.Duration(1.15 * float64(probeHdr.Phases.Frontend()))
		}
	}

	// First step-④ compile to complete the initial build.
	obj, err := st.compiler.Compile(st.mainFile)
	if err != nil {
		return nil, err
	}
	st.Setup.FirstCompile = obj.Phases.Total()
	st.phases = obj.Phases
	st.stats = obj.Stats
	st.buildGraph(coreRes, obj)
	return st, nil
}

// buildGraph records the decl-level invalidation graph for this setup:
// which files the prepared artifacts read (the edit-relevance closure)
// and which identifiers the consumers — sources and generated files —
// actually reference. The daemon consults it per edit via PlanEdit.
func (st *Setup) buildGraph(coreRes *core.Result, mainObj *compilesim.Object) {
	g := inval.NewGraph()
	st.graph = g
	switch {
	case st.Mode == Default:
		// No Prepare-time artifact depends on header content: every edit
		// keeps the setup, and the build cache's dependency manifests
		// rebuild exactly the affected translation unit on the next cycle.
	case st.Mode == PCH:
		// The PCH blob bakes in its covered files; anything else only
		// affects the main TU, which the manifest check rebuilds.
		g.PCHFiles = st.compiler.PCH.Files
	default: // Yalla modes
		g.AddFiles(mainObj.Includes...)
		g.AddAbsent(mainObj.AbsentDeps...)
		if coreRes != nil {
			g.AddFiles(coreRes.Includes...)
			g.AddAbsent(coreRes.AbsentDeps...)
		}
		if st.wrapperObj != nil {
			g.AddWrapperFiles(st.wrapperObj.Includes...)
			g.AddAbsent(st.wrapperObj.AbsentDeps...)
		}
		// Consumers: every identifier the sources or the generated
		// artifacts spell. A header decl whose name appears nowhere here
		// cannot change the tool's output.
		lexPaths := append([]string{st.Subject.MainFile}, st.Subject.Sources...)
		if coreRes != nil {
			lexPaths = append(lexPaths, coreRes.LightweightPath, coreRes.WrappersPath)
			for _, p := range coreRes.ModifiedSources {
				lexPaths = append(lexPaths, p)
			}
		}
		seen := map[string]bool{}
		for _, p := range lexPaths {
			p = vfs.Clean(p)
			if seen[p] {
				continue
			}
			seen[p] = true
			if content, err := st.FS.Read(p); err == nil {
				g.AddUsedIdents(p, content)
			}
		}
		if st.Mode == YallaPCH && st.compiler.PCH != nil {
			g.PCHFiles = st.compiler.PCH.Files
		}
	}
}

// Graph exposes the invalidation graph recorded at Prepare time.
func (st *Setup) Graph() *inval.Graph { return st.graph }

// PlanEdit classifies one structural edit against the recorded graph:
// the cheapest sound rebuild action plus the diff statistics.
func (st *Setup) PlanEdit(path, oldContent string, existed bool, newContent string) inval.Decision {
	return st.graph.Classify(path, oldContent, existed, newContent)
}

// RecompileWrappers refreshes the wrappers object in place after an
// edit that changed its translation unit without touching any consumed
// interface (e.g. an inline body rewrite that shifted the unit's
// function-definition count). Much cheaper than a full re-Prepare: the
// tool run, PCH, and first compile all survive. Returns the virtual
// compile cost paid.
func (st *Setup) RecompileWrappers() (time.Duration, error) {
	if st.wrapperObj == nil || st.wrappersPath == "" {
		return 0, nil
	}
	wobj, err := st.compiler.Compile(st.wrappersPath)
	if err != nil {
		return 0, fmt.Errorf("devcycle: wrappers recompile: %v", err)
	}
	st.wrapperObj = wobj
	st.Setup.WrapperCompile = wobj.Phases.Total()
	st.graph.AddWrapperFiles(wobj.Includes...)
	st.graph.AddAbsent(wobj.AbsentDeps...)
	st.obs.Counter("devcycle.wrapper_recompiles").Add(1)
	st.obs.ObserveMs("wrappers.recompile_ms", wobj.Phases.Total())
	return wobj.Phases.Total(), nil
}

// resolveHeader finds the substituted header's path on the search paths.
func resolveHeader(fs *vfs.FS, s *corpus.Subject) (string, error) {
	for _, sp := range s.SearchPaths {
		cand := sp + "/" + s.Header
		if sp == "." {
			cand = s.Header
		}
		if fs.Exists(cand) {
			return vfs.Clean(cand), nil
		}
	}
	return "", fmt.Errorf("devcycle: cannot resolve header %q", s.Header)
}

// SetObs re-points the setup's observability handle (e.g. so cycles run
// under a harness-level span instead of the prepare span). Nil is allowed
// and disables recording.
func (st *Setup) SetObs(o *obs.Obs) {
	st.obs = o
	if st.compiler != nil {
		st.compiler.Obs = o
	}
}

// Cycle simulates one edit–compile–link–run iteration (steps ④–⑤ plus
// execution with small inputs).
func (st *Setup) Cycle() (Times, error) {
	sp := st.obs.Start("cycle")
	defer sp.End()
	prev := st.compiler.Obs
	st.compiler.Obs = sp.Obs()
	defer func() { st.compiler.Obs = prev }()

	obj, err := st.compiler.Compile(st.mainFile)
	if err != nil {
		return Times{}, err
	}
	st.phases = obj.Phases
	st.stats = obj.Stats

	objs := []*compilesim.Object{obj}
	if st.Mode.isYalla() && st.wrapperObj != nil {
		// "YALLA requires an additional linking step with the wrappers"
		// (§5.4).
		objs = append(objs, st.wrapperObj)
	}
	link := st.compiler.Link(objs...)
	if st.Mode == YallaLTO {
		// LTO re-optimizes the whole program at link time; the wrappers
		// object drags the entire library's code into every link — "the
		// additional time needed by the linker ... proved to be
		// detrimental to the development cycle" (§5.4).
		link += st.compiler.LinkLTO(objs...)
	}

	t := Times{Compile: obj.Phases.Total(), Link: link, Run: st.runTime()}
	st.obs.Counter("devcycle.cycles").Add(1)
	st.obs.ObserveMs("cycle.total_ms", t.Total())
	sp.SetInt("vcompile_us", t.Compile.Microseconds())
	sp.SetInt("vlink_us", link.Microseconds())
	sp.SetInt("vrun_us", t.Run.Microseconds())
	return t, nil
}

// CycleWithNewSymbol simulates an edit that starts using a header symbol
// the source did not use before (§4.2: "YALLA must be rerun if the set of
// used symbols from the header file being substituted changes"). In a
// YALLA configuration the cycle then pays the tool rerun and the wrappers
// recompile — unless the symbol was pre-declared at Prepare time (§6).
// The returned bool reports whether a rerun was charged.
func (st *Setup) CycleWithNewSymbol(symbol string) (Times, bool, error) {
	times, err := st.Cycle()
	if err != nil {
		return Times{}, false, err
	}
	if !st.Mode.isYalla() || st.preDeclared[symbol] {
		return times, false, nil
	}
	// The used-symbol set changed: rerun the tool and recompile wrappers
	// before the normal fast compile.
	times.Compile += st.Setup.Tool + st.Setup.WrapperCompile
	st.preDeclared[symbol] = true // subsequent cycles are fast again
	return times, true, nil
}

// Phases exposes the last compile's phase breakdown (Fig. 7).
func (st *Setup) Phases() compilesim.Phases { return st.phases }

// Stats exposes the last compile's translation-unit statistics (Table 3).
func (st *Setup) Stats() compilesim.Stats { return st.stats }

// runTime models executing the subject with small inputs.
func (st *Setup) runTime() time.Duration {
	m := modelFor(st.Subject.Library)
	const opsPerIter = 6
	ns := m.startupNs + float64(st.Subject.KernelIters)*opsPerIter*m.opNs
	if st.Mode == Yalla || st.Mode == YallaPCH {
		// Wrapper calls cross translation units and cannot be inlined
		// (Fig. 9c) — each boundary crossing pays call overhead and
		// missed optimization. YallaLTO recovers the inlining, so it
		// runs at Default speed.
		calls := float64(st.Subject.KernelIters) * float64(st.Subject.WrapperCallsPerIter)
		if !m.perIter {
			calls = float64(st.Subject.WrapperCallsPerIter) * 100
		}
		ns += calls * m.penaltyNs
	}
	return time.Duration(ns)
}
