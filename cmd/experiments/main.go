// Command experiments regenerates the paper's evaluation: Table 2
// (compilation speedups), Table 3 (code statistics), Figure 7 (phase
// timers), Figure 8 (development-cycle speedups), Figure 9 (generated
// code), and Figure 10 (first-time build). Results are also written as
// artifact-style CSV and Chrome-trace files under -results.
//
// Usage:
//
//	experiments [-table2] [-table3] [-fig7] [-fig8] [-fig9] [-fig10]
//	            [-subject NAME] [-results DIR] [-j N] [-cache=false]
//	            [-benchjson] [-trace FILE] [-metrics FILE|-]
//	            [-attribution FILE] [-pprof ADDR] [-v]
//
// With no selection flags, everything runs. Subjects fan out over -j
// worker goroutines and share a content-addressed build cache; both are
// wall-clock optimizations only — every table and figure is
// byte-identical at any -j with the cache on or off.
//
// Observability: -trace writes a Chrome trace_event JSON of the run
// (load it in chrome://tracing or Perfetto: per-worker wall-clock lanes
// plus per subject × mode virtual phase lanes), -metrics writes the
// metrics-registry snapshot ("-" for stdout), -attribution writes the
// per-phase compile-cost attribution report, and -pprof serves
// net/http/pprof on the given address for live profiling.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		table2      = flag.Bool("table2", false, "regenerate Table 2 (compilation time)")
		table3      = flag.Bool("table3", false, "regenerate Table 3 (LOC and headers)")
		fig7        = flag.Bool("fig7", false, "regenerate Figure 7 (phase breakdown)")
		fig8        = flag.Bool("fig8", false, "regenerate Figure 8 (dev-cycle speedup)")
		fig9        = flag.Bool("fig9", false, "regenerate Figure 9 (generated code)")
		fig10       = flag.Bool("fig10", false, "regenerate Figure 10 (first-time build)")
		ext         = flag.Bool("extensions", false, "run the §5.4/§6 extension ablation (Yalla+PCH, Yalla+LTO)")
		gcc         = flag.Bool("gcc", false, "reproduce the summarized GCC results (§5.3)")
		subject     = flag.String("subject", "", "restrict to one subject")
		results     = flag.String("results", "", "directory to write CSV/trace results into")
		jobs        = flag.Int("j", runtime.GOMAXPROCS(0), "parallel subject jobs")
		useCache    = flag.Bool("cache", true, "memoize lexing/preprocessing/parsing across subjects")
		benchjson   = flag.String("benchjson", "", "measure the harness cold-vs-warm (plus frontend microbenchmarks) and write the JSON report to this file (e.g. results/bench_frontend.json)")
		benchbase   = flag.Duration("benchbaseline", 0, "pre-pass parallel-cold wall time to record in the -benchjson report (e.g. 85.2s), for the speedup-vs-baseline field")
		traceFile   = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		metricsOut  = flag.String("metrics", "", "write the metrics snapshot to this file, or - for stdout")
		attribution = flag.String("attribution", "", "write the compile-cost attribution report (JSON) to this file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		verbose     = flag.Bool("v", false, "print per-subject progress and the metrics snapshot")
	)
	flag.Parse()

	// Progress and error prints are structured: every line carries the
	// run ID, and per-subject lines carry subject/mode fields, so an
	// archived or piped log is machine-filterable. Paper outputs (the
	// tables and figures on stdout) are untouched.
	log := obs.StderrLogger(*verbose).With("run", obs.NewRunID())
	fail := func(msg string, err error) {
		log.Error(msg, "err", err)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Error("pprof", "err", err)
			}
		}()
		log.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
	}

	// The observability handle: a tracer only when a trace is requested,
	// a registry whenever anything will read metrics (-metrics or -v).
	var (
		tracer *obs.Tracer
		reg    *obs.Registry
	)
	if *traceFile != "" {
		tracer = obs.NewTracer(nil)
	}
	if *metricsOut != "" || *verbose {
		reg = obs.NewRegistry()
	}
	o := obs.New(tracer, reg).WithLogger(log)

	var bc *buildcache.Cache
	if *useCache {
		bc = buildcache.Default()
		bc.AttachMetrics(o)
	}

	if *benchjson != "" {
		rep, err := experiments.BenchHarness(*jobs)
		if err != nil {
			fail("benchjson", err)
		}
		if *benchbase > 0 {
			rep.BaselineColdNs = benchbase.Nanoseconds()
			if rep.ParallelColdNs > 0 {
				rep.SpeedupVsBaseline = float64(rep.BaselineColdNs) / float64(rep.ParallelColdNs)
			}
		}
		blob, err := rep.JSON()
		if err != nil {
			fail("benchjson", err)
		}
		if err := os.MkdirAll(filepath.Dir(*benchjson), 0o755); err != nil {
			fail("benchjson", err)
		}
		if err := os.WriteFile(*benchjson, append(blob, '\n'), 0o644); err != nil {
			fail("benchjson", err)
		}
		log.Info("harness bench done", "phase", "benchjson",
			"cold_sequential_s", fmt.Sprintf("%.1f", float64(rep.SequentialColdNs)/1e9),
			"cold_parallel_s", fmt.Sprintf("%.1f", float64(rep.ParallelColdNs)/1e9),
			"warm_parallel_s", fmt.Sprintf("%.1f", float64(rep.ParallelWarmNs)/1e9),
			"jobs", rep.Jobs, "speedup", fmt.Sprintf("%.1f", rep.Speedup), "report", *benchjson)
		if rep.BaselineColdNs > 0 {
			log.Info("frontend speed pass", "phase", "benchjson",
				"cold_parallel_s", fmt.Sprintf("%.1f", float64(rep.ParallelColdNs)/1e9),
				"baseline_s", fmt.Sprintf("%.1f", float64(rep.BaselineColdNs)/1e9),
				"speedup_vs_baseline", fmt.Sprintf("%.2f", rep.SpeedupVsBaseline))
		}
		for _, m := range rep.Frontend {
			log.Info("frontend bench", "phase", "benchjson", "name", m.Name,
				"ns_per_op", m.NsPerOp, "mb_per_s", fmt.Sprintf("%.1f", m.MBPerS),
				"allocs_per_op", m.AllocsPerOp)
		}
		return
	}

	all := !*table2 && !*table3 && !*fig7 && !*fig8 && !*fig9 && !*fig10 && !*ext && !*gcc

	if *gcc {
		out, err := experiments.GCCSummary(bc)
		if err != nil {
			fail("gcc summary", err)
		}
		fmt.Println(out)
	}
	if *ext {
		out, err := experiments.Extensions("02", "drawing")
		if err != nil {
			fail("extensions", err)
		}
		fmt.Println(out)
	}

	// Figure 9 needs no simulation runs.
	if *fig9 || all {
		fmt.Println(experiments.Fig9())
	}
	needRuns := all || *table2 || *table3 || *fig7 || *fig8 || *fig10 ||
		*results != "" || *traceFile != "" || *attribution != ""
	if !needRuns {
		flushObservability(log, tracer, reg, *traceFile, *metricsOut, *verbose)
		return
	}

	var subjects []*corpus.Subject
	if *subject != "" {
		s := corpus.ByName(*subject)
		if s == nil {
			log.Error("unknown subject", "subject", *subject)
			os.Exit(1)
		}
		subjects = []*corpus.Subject{s}
	}

	cfg := experiments.RunConfig{Jobs: *jobs, Subjects: subjects, Cache: bc, Obs: o}
	if *verbose {
		cfg.Progress = func(s *corpus.Subject) {
			log.Info("running subject", "subject", s.Name, "library", s.Library)
		}
	}
	res, err := experiments.RunAllWith(cfg)
	if err != nil {
		// A failed run still reports how far it got and flushes whatever
		// trace/metrics the completed subjects recorded.
		done, total := 0, len(res)
		for _, r := range res {
			if r != nil {
				done++
			}
		}
		log.Error("run failed", "err", err, "completed", done, "total", total)
		flushObservability(log, tracer, reg, *traceFile, *metricsOut, *verbose)
		os.Exit(1)
	}
	experiments.SortByTableOrder(res)

	if all || *table2 {
		fmt.Println("Table 2 — compilation time and speedups")
		fmt.Println(experiments.Table2(res))
	}
	if all || *table3 {
		fmt.Println("Table 3 — code statistics before/after Header Substitution")
		fmt.Println(experiments.Table3(res))
	}
	if all || *fig7 {
		fmt.Println(experiments.Fig7(res, "02", "drawing"))
	}
	if all || *fig8 {
		fmt.Println(experiments.Fig8(res))
		fmt.Println()
	}
	if all || *fig10 {
		fmt.Println(experiments.Fig10(res, "02"))
		fmt.Println()
	}
	if *results != "" {
		if err := writeResults(*results, res); err != nil {
			fail("write results", err)
		}
		log.Info("results written", "dir", *results)
	}
	if *attribution != "" {
		rep := experiments.Attribution(res, bc)
		blob, err := rep.JSON()
		if err != nil {
			fail("attribution", err)
		}
		if dir := filepath.Dir(*attribution); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail("attribution", err)
			}
		}
		if err := os.WriteFile(*attribution, append(blob, '\n'), 0o644); err != nil {
			fail("attribution", err)
		}
		log.Info("attribution report written", "path", *attribution)
	}
	flushObservability(log, tracer, reg, *traceFile, *metricsOut, *verbose)
}

// flushObservability writes the trace file and metrics snapshot (if
// requested) once the run — complete or partial — is over.
func flushObservability(log *slog.Logger, tracer *obs.Tracer, reg *obs.Registry, traceFile, metricsOut string, verbose bool) {
	if tracer != nil && traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			log.Error("trace", "err", err)
			return
		}
		if err := tracer.Export(f); err != nil {
			log.Error("trace", "err", err)
		}
		if err := f.Close(); err != nil {
			log.Error("trace", "err", err)
		}
		log.Info("trace written", "path", traceFile, "viewer", "chrome://tracing")
	}
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	if metricsOut == "-" {
		os.Stdout.WriteString(snap.String())
	} else if metricsOut != "" {
		blob, err := snap.JSON()
		if err != nil {
			log.Error("metrics", "err", err)
			return
		}
		if err := os.WriteFile(metricsOut, append(blob, '\n'), 0o644); err != nil {
			log.Error("metrics", "err", err)
			return
		}
		log.Info("metrics written", "path", metricsOut)
	}
	if verbose && metricsOut != "-" {
		os.Stderr.WriteString(snap.String())
	}
}

func writeResults(dir string, res []*experiments.SubjectResult) error {
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return err
	}
	for name, content := range experiments.CSVs(res) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	for name, content := range experiments.Traces(res) {
		if err := os.WriteFile(filepath.Join(dir, "traces", name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}
