// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark prints the paper's observable as
// ReportMetric values in *virtual* milliseconds (the simulated compiler's
// deterministic model output, metric "vms"), while the standard ns/op
// measures the real cost of running the simulation itself.
//
//	go test -bench Table2 .      # Table 2: compile time per subject/mode
//	go test -bench Table3 .      # Table 3: LOC and header statistics
//	go test -bench Fig7 .        # Figure 7: phase breakdown (02, drawing)
//	go test -bench Fig8 .        # Figure 8: development-cycle speedup
//	go test -bench Fig9 .        # Figure 9: generated-code comparison
//	go test -bench Fig10 .       # Figure 10: first-time build breakdown
package repro

import (
	"fmt"

	"testing"

	"repro/internal/buildcache"
	"repro/internal/codegen"
	"repro/internal/compilesim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/execsim"
	"repro/internal/experiments"
)

// table2Subjects limits the heaviest benchmarks to one representative per
// library plus the paper's headline subject; -bench Table2All covers the
// full 18×3 matrix.
var table2Subjects = []string{"02", "team_policy", "condense", "drawing", "chat_server"}

func prepare(b *testing.B, name string, mode devcycle.Mode) *devcycle.Setup {
	b.Helper()
	s := corpus.ByName(name)
	if s == nil {
		b.Fatalf("unknown subject %q", name)
	}
	st, err := devcycle.Prepare(s, mode)
	if err != nil {
		b.Fatalf("prepare %s/%v: %v", name, mode, err)
	}
	return st
}

// benchCompile measures the step-④ compile for one subject/mode and
// reports the simulated (virtual) milliseconds.
func benchCompile(b *testing.B, name string, mode devcycle.Mode) {
	st := prepare(b, name, mode)
	b.ResetTimer()
	var last devcycle.Times
	for i := 0; i < b.N; i++ {
		c, err := st.Cycle()
		if err != nil {
			b.Fatal(err)
		}
		last = c
	}
	b.ReportMetric(float64(last.Compile)/1e6, "vms_compile")
}

// BenchmarkTable2 regenerates Table 2 rows for representative subjects.
func BenchmarkTable2(b *testing.B) {
	for _, name := range table2Subjects {
		for _, mode := range []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				benchCompile(b, name, mode)
			})
		}
	}
}

// BenchmarkTable2All covers the full 18-subject × 3-mode matrix.
func BenchmarkTable2All(b *testing.B) {
	for _, s := range corpus.All() {
		for _, mode := range []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla} {
			b.Run(s.Name+"/"+mode.String(), func(b *testing.B) {
				benchCompile(b, s.Name, mode)
			})
		}
	}
}

// BenchmarkTable3Stats regenerates Table 3 (LOC and headers compiled,
// Default vs YALLA) and reports both as metrics.
func BenchmarkTable3Stats(b *testing.B) {
	for _, s := range corpus.All() {
		b.Run(s.Name, func(b *testing.B) {
			var defLOC, defHdr, yalLOC, yalHdr int
			for i := 0; i < b.N; i++ {
				fs := s.FS.Clone()
				def, err := compilesim.New(fs, s.SearchPaths...).Compile(s.MainFile)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Substitute(core.Options{
					FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
					Header: s.Header, OutDir: s.OutDir(),
				})
				if err != nil {
					b.Fatal(err)
				}
				paths := append([]string{s.OutDir()}, s.SearchPaths...)
				yal, err := compilesim.New(fs, paths...).Compile(res.ModifiedSources[s.MainFile])
				if err != nil {
					b.Fatal(err)
				}
				defLOC, defHdr = def.Stats.LOC, def.Stats.Headers
				yalLOC, yalHdr = yal.Stats.LOC, yal.Stats.Headers
			}
			b.ReportMetric(float64(defLOC), "loc_default")
			b.ReportMetric(float64(yalLOC), "loc_yalla")
			b.ReportMetric(float64(defHdr), "hdr_default")
			b.ReportMetric(float64(yalHdr), "hdr_yalla")
		})
	}
}

// BenchmarkFig7Phases regenerates Figure 7's frontend/backend breakdown
// for the two subjects the paper plots.
func BenchmarkFig7Phases(b *testing.B) {
	for _, name := range []string{"02", "drawing"} {
		for _, mode := range []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				st := prepare(b, name, mode)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := st.Cycle(); err != nil {
						b.Fatal(err)
					}
				}
				ph := st.Phases()
				b.ReportMetric(float64(ph.Frontend())/1e6, "vms_frontend")
				b.ReportMetric(float64(ph.Backend)/1e6, "vms_backend")
			})
		}
	}
}

// BenchmarkFig8DevCycle regenerates Figure 8: the full development-cycle
// latency (compile + link + run) per subject and mode.
func BenchmarkFig8DevCycle(b *testing.B) {
	for _, name := range table2Subjects {
		for _, mode := range []devcycle.Mode{devcycle.Default, devcycle.PCH, devcycle.Yalla} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				st := prepare(b, name, mode)
				b.ResetTimer()
				var last devcycle.Times
				for i := 0; i < b.N; i++ {
					c, err := st.Cycle()
					if err != nil {
						b.Fatal(err)
					}
					last = c
				}
				b.ReportMetric(float64(last.Total())/1e6, "vms_cycle")
			})
		}
	}
}

// BenchmarkFig9Codegen regenerates Figure 9: pseudo-x86 emission for the
// 02 kernel in Default, YALLA, and YALLA+LTO form, reporting the callq
// count (0 / 3 / 0) and the simulated execution cycles.
func BenchmarkFig9Codegen(b *testing.B) {
	cases := []struct {
		name  string
		yalla bool
		lto   bool
	}{
		{"Default", false, false},
		{"Yalla", true, false},
		{"YallaLTO", true, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			opts := codegen.DefaultOptions()
			opts.LTO = c.lto
			var calls int
			var cycles float64
			for i := 0; i < b.N; i++ {
				p := codegen.Kernel02(c.yalla, 64)
				lines, err := p.Emit("kernel02", opts)
				if err != nil {
					b.Fatal(err)
				}
				calls = codegen.CountCalls(lines)
				r, err := execsim.Run(p, "kernel02", opts, execsim.DefaultCostModel())
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(calls), "callq")
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkFig10Startup regenerates Figure 10: the one-time cost of the
// first build of the 02 subject per configuration (tool run, wrapper
// compile, first source compile).
func BenchmarkFig10Startup(b *testing.B) {
	s := corpus.ByName("02")
	for _, mode := range []devcycle.Mode{devcycle.Default, devcycle.Yalla} {
		b.Run(mode.String(), func(b *testing.B) {
			var setup devcycle.SetupTimes
			for i := 0; i < b.N; i++ {
				st, err := devcycle.Prepare(s, mode)
				if err != nil {
					b.Fatal(err)
				}
				setup = st.Setup
			}
			b.ReportMetric(float64(setup.Tool)/1e6, "vms_tool")
			b.ReportMetric(float64(setup.WrapperCompile)/1e6, "vms_wrappers")
			b.ReportMetric(float64(setup.FirstCompile)/1e6, "vms_compile")
			b.ReportMetric(float64(setup.Total())/1e6, "vms_total")
		})
	}
}

// BenchmarkYallaTool measures the real wall-clock execution of Header
// Substitution itself — the startup cost discussed in §5.5.
func BenchmarkYallaTool(b *testing.B) {
	for _, name := range []string{"team_policy", "condense"} {
		s := corpus.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fs := s.FS.Clone()
				if _, err := core.Substitute(core.Options{
					FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
					Header: s.Header, OutDir: s.OutDir(),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExtensions measures the §5.4/§6 extension
// configurations on representative subjects: Yalla+LTO (run-time
// recovered, link cost added — the paper's rejected variant) and
// Yalla+PCH (residual headers pre-compiled — the paper's proposed
// combination).
func BenchmarkAblationExtensions(b *testing.B) {
	for _, name := range []string{"02", "drawing"} {
		for _, mode := range []devcycle.Mode{devcycle.Yalla, devcycle.YallaPCH, devcycle.YallaLTO} {
			b.Run(name+"/"+mode.String(), func(b *testing.B) {
				st := prepare(b, name, mode)
				b.ResetTimer()
				var last devcycle.Times
				for i := 0; i < b.N; i++ {
					c, err := st.Cycle()
					if err != nil {
						b.Fatal(err)
					}
					last = c
				}
				b.ReportMetric(float64(last.Compile)/1e6, "vms_compile")
				b.ReportMetric(float64(last.Link)/1e6, "vms_link")
				b.ReportMetric(float64(last.Run)/1e6, "vms_run")
				b.ReportMetric(float64(last.Total())/1e6, "vms_cycle")
			})
		}
	}
}

// BenchmarkAblationOptLevels sweeps the simulated -O level for the
// default configuration of 02, showing the backend share the paper's
// -O3 setting implies.
func BenchmarkAblationOptLevels(b *testing.B) {
	s := corpus.ByName("02")
	for _, opt := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("O%d", opt), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				cc := compilesim.New(s.FS, s.SearchPaths...)
				cc.OptLevel = opt
				obj, err := cc.Compile(s.MainFile)
				if err != nil {
					b.Fatal(err)
				}
				total = float64(obj.Phases.Total()) / 1e6
			}
			b.ReportMetric(total, "vms_compile")
		})
	}
}

// ----------------------------------------------------------------- harness

// BenchmarkHarnessSequential measures the real wall-clock cost of the
// full 18-subject × 3-mode evaluation run cold: one worker, no build
// cache. This is the baseline the parallel/cached harness is compared
// against.
func BenchmarkHarnessSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAllWith(experiments.RunConfig{Jobs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHarnessParallel measures the same full matrix warm: a 4-way
// worker pool served from a build cache primed by one untimed cold run.
// Every iteration re-simulates all subjects; only lexing, preprocessing
// and parsing are reused.
// The rendered tables and figures are byte-identical to the sequential
// cold run (see TestParallelAndCachedRunsAreByteIdentical).
func BenchmarkHarnessParallel(b *testing.B) {
	bc := buildcache.New()
	if _, err := experiments.RunAllWith(experiments.RunConfig{Jobs: 4, Cache: bc}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAllWith(experiments.RunConfig{Jobs: 4, Cache: bc}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := bc.Stats()
	b.ReportMetric(float64(st.TUHits), "tu_hits")
	b.ReportMetric(float64(st.TokenHits), "token_hits")
}

// BenchmarkFrontendColdCache measures one simulated compile of the
// paper's headline subject with a fresh (empty) build cache each
// iteration — the cost of lexing, preprocessing, and parsing the full
// Kokkos header tree from scratch.
func BenchmarkFrontendColdCache(b *testing.B) {
	s := corpus.ByName("02")
	for i := 0; i < b.N; i++ {
		cc := compilesim.New(s.FS, s.SearchPaths...)
		cc.Cache = buildcache.New()
		if _, err := cc.Compile(s.MainFile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrontendWarmCache measures the same compile served from a
// primed build cache: the manifest validates and the whole frontend is
// one TU-cache hit.
func BenchmarkFrontendWarmCache(b *testing.B) {
	s := corpus.ByName("02")
	bc := buildcache.New()
	cc := compilesim.New(s.FS, s.SearchPaths...)
	cc.Cache = bc
	if _, err := cc.Compile(s.MainFile); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(s.MainFile); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := bc.Stats(); st.TUMisses != 1 {
		b.Fatalf("expected exactly one cold build, stats = %+v", st)
	}
}
