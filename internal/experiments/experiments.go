// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) over the synthetic corpora: Table 2 (compilation time
// and speedups under Default/PCH/YALLA), Table 3 (LOC and header counts),
// Figure 7 (per-phase compiler timers), Figure 8 (development-cycle
// speedup), Figure 9 (generated-code comparison), and Figure 10
// (first-time build breakdown). It is shared by cmd/experiments and the
// end-to-end benchmark (e2ebench).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/buildcache"
	"repro/internal/codegen"
	"repro/internal/compilesim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pch"
)

// ModeResult is one subject × mode measurement.
type ModeResult struct {
	CompileMs float64
	LinkMs    float64
	RunMs     float64
	// Phase breakdown of the step-④ compile (Fig. 7).
	StartupMs     float64
	PreprocessMs  float64
	LexParseMs    float64
	SemaMs        float64
	PCHLoadMs     float64
	InstantiateMs float64
	BackendMs     float64
	FrontendMs    float64
	// Unit statistics (Table 3).
	LOC     int
	Headers int
	// Setup (one-time) costs (Fig. 10).
	ToolMs           float64
	WrapperCompileMs float64
	PCHBuildMs       float64
	// WallNs is the real (not virtual) time spent simulating this
	// subject × mode, which e2ebench times matrix passes by. It never
	// feeds any paper table or figure.
	WallNs int64
}

// CycleMs is the development-cycle latency.
func (m ModeResult) CycleMs() float64 { return m.CompileMs + m.LinkMs + m.RunMs }

// SubjectResult aggregates one subject across the three configurations.
type SubjectResult struct {
	Name    string
	Library string
	Modes   map[devcycle.Mode]ModeResult
}

// PCHSpeedup is Table 2's "PCH Speedup" column.
func (r *SubjectResult) PCHSpeedup() float64 {
	return r.Modes[devcycle.Default].CompileMs / r.Modes[devcycle.PCH].CompileMs
}

// YallaSpeedup is Table 2's "Yalla Speedup" column.
func (r *SubjectResult) YallaSpeedup() float64 {
	return r.Modes[devcycle.Default].CompileMs / r.Modes[devcycle.Yalla].CompileMs
}

// CycleSpeedup is Figure 8's y-axis for the given mode.
func (r *SubjectResult) CycleSpeedup(m devcycle.Mode) float64 {
	return r.Modes[devcycle.Default].CycleMs() / r.Modes[m].CycleMs()
}

// Modes lists the configurations in presentation order.
var Modes = []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla}

// runSubject measures one subject under all modes, recording a "subject"
// span with one child span per mode plus a virtual-cost lane per
// subject × mode on the handle's tracer (nil o disables recording).
func runSubject(s *corpus.Subject, bc *buildcache.Cache, o *obs.Obs) (*SubjectResult, error) {
	ssp := o.Start("subject")
	ssp.SetStr("name", s.Name)
	ssp.SetStr("library", s.Library)
	defer ssp.End()
	so := ssp.Obs()

	out := &SubjectResult{Name: s.Name, Library: s.Library, Modes: map[devcycle.Mode]ModeResult{}}
	for _, mode := range Modes {
		start := time.Now()
		msp := so.Start("mode")
		msp.SetStr("mode", mode.String())
		// Debug lines carry the span ID, so a slow mode in the log links
		// straight to its lane in the trace export.
		mlog := msp.Obs().Logger()
		mlog.Debug("mode start", "subject", s.Name, "mode", mode.String(), "phase", "prepare")
		st, err := devcycle.PrepareWith(s, mode, devcycle.Config{Cache: bc, Obs: msp.Obs()})
		if err != nil {
			msp.End()
			return nil, fmt.Errorf("%s/%v: %v", s.Name, mode, err)
		}
		st.SetObs(msp.Obs())
		cycle, err := st.Cycle()
		if err != nil {
			msp.End()
			return nil, fmt.Errorf("%s/%v: %v", s.Name, mode, err)
		}
		mlog.Debug("mode done", "subject", s.Name, "mode", mode.String(), "phase", "cycle",
			"wall_ms", time.Since(start).Milliseconds())
		msp.End()
		ph := st.Phases()
		stats := st.Stats()
		out.Modes[mode] = ModeResult{
			CompileMs:        ms(cycle.Compile),
			LinkMs:           ms(cycle.Link),
			RunMs:            ms(cycle.Run),
			StartupMs:        ms(ph.Startup),
			PreprocessMs:     ms(ph.Preprocess),
			LexParseMs:       ms(ph.LexParse),
			SemaMs:           ms(ph.Sema),
			PCHLoadMs:        ms(ph.PCHLoad),
			InstantiateMs:    ms(ph.Instantiate),
			BackendMs:        ms(ph.Backend),
			FrontendMs:       ms(ph.Frontend()),
			LOC:              stats.LOC,
			Headers:          stats.Headers,
			ToolMs:           ms(st.Setup.Tool),
			WrapperCompileMs: ms(st.Setup.WrapperCompile),
			PCHBuildMs:       ms(st.Setup.PCHBuild),
			WallNs:           time.Since(start).Nanoseconds(),
		}
	}
	o.Counter("experiments.subjects").Add(1)
	emitVirtualLanes(o, out)
	return out, nil
}

// emitVirtualLanes renders the subject's per-mode virtual phase costs as
// explicit-timestamp spans on the trace's virtual-cost process, so the
// deterministic per-phase timeline the paper plots (Fig. 7) sits next to
// the real wall-clock subject lanes in one Chrome trace.
func emitVirtualLanes(o *obs.Obs, r *SubjectResult) {
	for _, mode := range Modes {
		lane := o.VirtualLane(r.Name + "/" + mode.String())
		if lane == nil {
			return
		}
		m := r.Modes[mode]
		phases := []struct {
			name string
			ms   float64
		}{
			{"Startup", m.StartupMs},
			{"Preprocess", m.PreprocessMs},
			{"LexParse", m.LexParseMs},
			{"Sema", m.SemaMs},
			{"PCHLoad", m.PCHLoadMs},
			{"Instantiate", m.InstantiateMs},
			{"Backend", m.BackendMs},
		}
		t := time.Duration(0)
		for _, ph := range phases {
			if ph.ms <= 0 {
				continue
			}
			d := time.Duration(ph.ms * float64(time.Millisecond))
			lane.Emit(ph.name, t, d)
			t += d
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ResetCache does nothing. Subject results are not memoized across
// runs: a run shares work only through its RunConfig.Cache. It is kept
// because e2ebench, a module of its own, still calls it before a pass.
func ResetCache() {}

// RunConfig configures RunAllWith.
type RunConfig struct {
	// Jobs is how many subjects run at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Jobs int
	// Subjects restricts the run; nil means corpus.All().
	Subjects []*corpus.Subject
	// Cache is the build cache shared by all workers; nil disables
	// frontend caching (every TU is lexed and parsed from scratch).
	Cache *buildcache.Cache
	// Progress, when set, is called from worker goroutines as each
	// subject starts; it must be safe for concurrent use.
	Progress func(s *corpus.Subject)
	// Obs, when set, records the run: each subject gets a trace lane of
	// its own ("subject NAME", sealed when the subject is done) holding
	// its span tree, and the registry the pipeline's counters and
	// histograms. Nil disables recording.
	Obs *obs.Obs
}

// RunAllWith measures the configured subjects on a bounded worker pool
// (par.Each). Results come back in presentation (corpus) order
// regardless of completion order. A failure stops further subjects from
// starting, and the error of the first failing subject in presentation
// order is returned — the same at any Jobs — together with the partial
// results: every subject that ran to completion keeps its slot, failed
// and unstarted subjects are nil. Callers that only care about the
// all-or-nothing contract can keep ignoring the slice when err != nil.
func RunAllWith(cfg RunConfig) ([]*SubjectResult, error) {
	subjects := cfg.Subjects
	if subjects == nil {
		subjects = corpus.All()
	}
	out := make([]*SubjectResult, len(subjects))
	err := par.Each(cfg.Obs, cfg.Jobs, len(subjects),
		func(i int) string { return "subject " + subjects[i].Name },
		func(i int, o *obs.Obs) error {
			if cfg.Progress != nil {
				cfg.Progress(subjects[i])
			}
			r, err := runSubject(subjects[i], cfg.Cache, o)
			out[i] = r
			return err
		})
	// On error the partial results still come back so the caller can
	// report how far the run got (and flush any trace/metrics recorded).
	return out, err
}

// ------------------------------------------------------------- rendering

// Table2 renders the compilation-time table.
func Table2(results []*SubjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-11s %12s %9s %11s %12s %14s\n",
		"File", "Subject", "Default [ms]", "PCH [ms]", "Yalla [ms]", "PCH Speedup", "Yalla Speedup")
	geoP, geoY, n := 0.0, 0.0, 0
	for _, r := range results {
		d := r.Modes[devcycle.Default].CompileMs
		p := r.Modes[devcycle.PCH].CompileMs
		y := r.Modes[devcycle.Yalla].CompileMs
		fmt.Fprintf(&b, "%-24s %-11s %12.0f %9.0f %11.1f %11.1fx %13.1fx\n",
			r.Name, r.Library, d, p, y, r.PCHSpeedup(), r.YallaSpeedup())
		geoP += r.PCHSpeedup()
		geoY += r.YallaSpeedup()
		n++
	}
	if n > 0 {
		fmt.Fprintf(&b, "%-24s %-11s %12s %9s %11s %11.1fx %13.1fx\n",
			"average", "", "", "", "", geoP/float64(n), geoY/float64(n))
	}
	return b.String()
}

// Table3 renders the code-statistics table.
func Table3(results []*SubjectResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %13s %11s %16s %14s\n",
		"File", "Default LOCs", "Yalla LOCs", "Default Headers", "Yalla Headers")
	for _, r := range results {
		d := r.Modes[devcycle.Default]
		y := r.Modes[devcycle.Yalla]
		fmt.Fprintf(&b, "%-24s %13d %11d %16d %14d\n",
			r.Name, d.LOC, y.LOC, d.Headers, y.Headers)
	}
	return b.String()
}

// Fig7 renders the phase breakdown for the named subjects.
func Fig7(results []*SubjectResult, names ...string) string {
	var b strings.Builder
	for _, name := range names {
		r := findResult(results, name)
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "Figure 7 — %s: time per compilation phase [ms]\n", name)
		fmt.Fprintf(&b, "  %-8s %10s %10s %8s %8s %12s %9s | %9s %8s\n",
			"mode", "preproc", "lexparse", "sema", "pchload", "instantiate", "backend", "frontend", "total")
		for _, mode := range Modes {
			m := r.Modes[mode]
			fmt.Fprintf(&b, "  %-8s %10.1f %10.1f %8.1f %8.1f %12.1f %9.1f | %9.1f %8.1f\n",
				mode, m.PreprocessMs, m.LexParseMs, m.SemaMs, m.PCHLoadMs,
				m.InstantiateMs, m.BackendMs, m.FrontendMs, m.CompileMs)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig8 renders development-cycle speedups per subject.
func Fig8(results []*SubjectResult) string {
	var b strings.Builder
	b.WriteString("Figure 8 — development cycle speedup over Default (compile+link+run)\n")
	fmt.Fprintf(&b, "%-24s %10s %10s %14s %14s\n", "Subject", "PCH", "Yalla", "cycle(def)ms", "cycle(yalla)ms")
	for _, r := range results {
		fmt.Fprintf(&b, "%-24s %9.2fx %9.2fx %14.0f %14.0f\n",
			r.Name, r.CycleSpeedup(devcycle.PCH), r.CycleSpeedup(devcycle.Yalla),
			r.Modes[devcycle.Default].CycleMs(), r.Modes[devcycle.Yalla].CycleMs())
	}
	return b.String()
}

// Fig9 renders the 02 kernel's generated code in the three variants.
func Fig9() string {
	var b strings.Builder
	b.WriteString("Figure 9 — 02 kernel generated code\n")
	emit := func(title string, yalla, lto bool) {
		opts := codegen.DefaultOptions()
		opts.LTO = lto
		lines, err := codegen.Kernel02(yalla, 8).Emit("kernel02", opts)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			return
		}
		fmt.Fprintf(&b, "\n-- %s (callq count: %d) --\n", title, codegen.CountCalls(lines))
		for _, l := range lines {
			b.WriteString("  " + l + "\n")
		}
	}
	emit("Default (Fig. 9b: inlined accesses)", false, false)
	emit("YALLA (Fig. 9c: callq paren_operator)", true, false)
	emit("YALLA + LTO (§5.4: inlining recovered)", true, true)
	return b.String()
}

// Fig10 renders the first-time-compilation breakdown for a subject.
func Fig10(results []*SubjectResult, name string) string {
	r := findResult(results, name)
	if r == nil {
		return "no such subject: " + name
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 — first-time compilation of %s [ms]\n", name)
	d := r.Modes[devcycle.Default]
	y := r.Modes[devcycle.Yalla]
	fmt.Fprintf(&b, "  Default: source compile %.0f  (total %.0f)\n", d.CompileMs, d.CompileMs)
	fmt.Fprintf(&b, "  Yalla:   tool %.0f + wrappers compile %.0f + source compile %.1f  (total %.0f)\n",
		y.ToolMs, y.WrapperCompileMs, y.CompileMs,
		y.ToolMs+y.WrapperCompileMs+y.CompileMs)
	return b.String()
}

// Extensions runs the §5.4/§6 extension configurations (Yalla+PCH,
// Yalla+LTO) against the standard three on the named subjects and renders
// a comparison table: the ablation behind the paper's two design
// decisions (reject LTO; propose PCH combination as future work).
func Extensions(names ...string) (string, error) {
	var b strings.Builder
	b.WriteString("Extensions — development-cycle ablation (§5.4 LTO, §6 PCH combination)\n")
	fmt.Fprintf(&b, "%-14s %-10s %10s %8s %8s %10s\n", "subject", "mode", "compile", "link", "run", "cycle[ms]")
	modes := []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla, devcycle.YallaPCH, devcycle.YallaLTO}
	for _, name := range names {
		s := corpus.ByName(name)
		if s == nil {
			return "", fmt.Errorf("unknown subject %q", name)
		}
		for _, mode := range modes {
			st, err := devcycle.Prepare(s, mode)
			if err != nil {
				return "", err
			}
			c, err := st.Cycle()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%-14s %-10s %10.1f %8.1f %8.1f %10.1f\n",
				name, mode, ms(c.Compile), ms(c.Link), ms(c.Run), ms(c.Total()))
		}
		b.WriteString("\n")
	}

	// §4.2/§6: the cost of the used-symbol set growing, with and without
	// pre-declaration.
	s := corpus.ByName("team_policy")
	if s != nil {
		b.WriteString("Symbol-growth ablation (§4.2 rerun vs §6 pre-declaration), team_policy:\n")
		plain, err := devcycle.Prepare(s, devcycle.Yalla)
		if err != nil {
			return "", err
		}
		grow, rerun, err := plain.CycleWithNewSymbol("Kokkos::fence")
		if err != nil {
			return "", err
		}
		pre, err := devcycle.PrepareWith(s, devcycle.Yalla, devcycle.Config{PreDeclare: []string{"Kokkos::fence"}})
		if err != nil {
			return "", err
		}
		growPre, rerunPre, err := pre.CycleWithNewSymbol("Kokkos::fence")
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  first use of Kokkos::fence, plain:        %8.1f ms cycle (tool rerun: %v)\n",
			ms(grow.Total()), rerun)
		fmt.Fprintf(&b, "  first use of Kokkos::fence, pre-declared: %8.1f ms cycle (tool rerun: %v)\n",
			ms(growPre.Total()), rerunPre)
	}
	return b.String(), nil
}

// GCCSummary reproduces the paper's summarized GCC results (§5.3: "We
// obtain similar results with GCC 9.4.0 ... YALLA speeds up compilation
// time by ... 31.4× for GCC while PCH speeds up compilation time by ...
// 2.7× for GCC"): the same pipeline under the GCC cost model, reported as
// averages. bc may be nil; because the cached frontend is cost-model
// independent, a cache shared with the clang-model run serves every TU
// that run already processed.
func GCCSummary(bc *buildcache.Cache) (string, error) {
	var b strings.Builder
	b.WriteString("GCC summary — average compile-time speedups under the g++ cost model\n")
	fmt.Fprintf(&b, "%-24s %12s %9s %11s %8s %8s\n",
		"File", "Default [ms]", "PCH [ms]", "Yalla [ms]", "PCH", "Yalla")
	sumP, sumY := 0.0, 0.0
	n := 0
	for _, s := range corpus.All() {
		d, p, y, err := compileTriple(s, compilesim.GCCCostModel(), bc)
		if err != nil {
			return "", fmt.Errorf("%s: %v", s.Name, err)
		}
		fmt.Fprintf(&b, "%-24s %12.0f %9.0f %11.1f %7.1fx %7.1fx\n",
			s.Name, d, p, y, d/p, d/y)
		sumP += d / p
		sumY += d / y
		n++
	}
	fmt.Fprintf(&b, "%-24s %12s %9s %11s %7.1fx %7.1fx\n", "average", "", "", "",
		sumP/float64(n), sumY/float64(n))
	return b.String(), nil
}

// compileTriple compiles one subject under the three configurations with
// an explicit cost model, returning virtual milliseconds.
func compileTriple(s *corpus.Subject, model compilesim.CostModel, bc *buildcache.Cache) (def, pchMs, yal float64, err error) {
	fs := s.FS.Overlay()
	cc := compilesim.New(fs, s.SearchPaths...)
	cc.Model = model
	cc.Cache = bc
	defObj, err := cc.Compile(s.MainFile)
	if err != nil {
		return 0, 0, 0, err
	}
	hdr := ""
	for _, cand := range s.HeaderPaths() {
		if fs.Exists(cand) {
			hdr = cand
			break
		}
	}
	p, err := pch.Build(fs, hdr, s.SearchPaths, nil, bc, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	cp := compilesim.New(fs, s.SearchPaths...)
	cp.Model = model
	cp.Cache = bc
	cp.PCH = p
	subOpts := core.Options{
		FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
		Header: s.Header, OutDir: s.OutDir(), Cache: bc,
	}
	pchObj, err := cp.Compile(s.MainFile)
	if err != nil {
		return 0, 0, 0, err
	}
	res, err := core.Substitute(subOpts)
	if err != nil {
		return 0, 0, 0, err
	}
	paths := append([]string{s.OutDir()}, s.SearchPaths...)
	cy := compilesim.New(fs, paths...)
	cy.Model = model
	cy.Cache = bc
	yalObj, err := cy.Compile(res.ModifiedSources[s.MainFile])
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(defObj.Phases.Total()) / 1e6,
		float64(pchObj.Phases.Total()) / 1e6,
		float64(yalObj.Phases.Total()) / 1e6, nil
}

func findResult(results []*SubjectResult, name string) *SubjectResult {
	for _, r := range results {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// ----------------------------------------------------------------- CSVs

// CSVs renders the artifact-style result files (A.6): per-mode
// compilation CSVs split into kokkos/other, and the stats CSV.
func CSVs(results []*SubjectResult) map[string]string {
	out := map[string]string{}
	modeName := map[devcycle.Mode]string{
		devcycle.Default: "normal", devcycle.PCH: "pch", devcycle.Yalla: "yalla",
	}
	for _, mode := range Modes {
		var kk, other strings.Builder
		kk.WriteString("subject,compile_ms,link_ms,run_ms\n")
		other.WriteString("subject,compile_ms,link_ms,run_ms\n")
		for _, r := range results {
			m := r.Modes[mode]
			line := fmt.Sprintf("%s,%.3f,%.3f,%.3f\n", r.Name, m.CompileMs, m.LinkMs, m.RunMs)
			if r.Library == "PyKokkos" {
				kk.WriteString(line)
			} else {
				other.WriteString(line)
			}
		}
		out["compilation_kokkos_"+modeName[mode]+".csv"] = kk.String()
		out["compilation_other_"+modeName[mode]+".csv"] = other.String()
	}
	var stats strings.Builder
	stats.WriteString("subject,default_loc,yalla_loc,default_headers,yalla_headers\n")
	for _, r := range results {
		d := r.Modes[devcycle.Default]
		y := r.Modes[devcycle.Yalla]
		fmt.Fprintf(&stats, "%s,%d,%d,%d,%d\n", r.Name, d.LOC, y.LOC, d.Headers, y.Headers)
	}
	out["stats.csv"] = stats.String()
	return out
}

// Traces renders Chrome Trace Viewer JSON per subject/mode, mirroring the
// artifact's results/traces files.
func Traces(results []*SubjectResult) map[string]string {
	out := map[string]string{}
	for _, r := range results {
		for _, mode := range Modes {
			m := r.Modes[mode]
			events := []struct {
				name string
				ms   float64
			}{
				{"Startup", m.StartupMs},
				{"Preprocess", m.PreprocessMs},
				{"LexParse", m.LexParseMs},
				{"Sema", m.SemaMs},
				{"PCHLoad", m.PCHLoadMs},
				{"Instantiate", m.InstantiateMs},
				{"Backend", m.BackendMs},
			}
			var b strings.Builder
			b.WriteString("{\"traceEvents\":[")
			t := 0.0
			first := true
			for _, ev := range events {
				if ev.ms <= 0 {
					continue
				}
				if !first {
					b.WriteString(",")
				}
				first = false
				fmt.Fprintf(&b, `{"name":%q,"ph":"X","ts":%.0f,"dur":%.0f,"pid":1,"tid":1}`,
					ev.name, t*1000, ev.ms*1000)
				t += ev.ms
			}
			b.WriteString("]}")
			name := fmt.Sprintf("%s-%s.json", r.Name, strings.ToLower(mode.String()))
			out[name] = b.String()
		}
	}
	return out
}

// SortByTableOrder orders results in Table 2's row order.
func SortByTableOrder(results []*SubjectResult) {
	order := map[string]int{}
	for i, s := range corpus.All() {
		order[s.Name] = i
	}
	sort.SliceStable(results, func(i, j int) bool {
		return order[results[i].Name] < order[results[j].Name]
	})
}
