// Command e2ebench is the repository's end-to-end benchmark. The paper's
// claim is a faster edit→compile→run loop; e2ebench times that loop the
// way a user of this system meets it, and breaks each result down layer
// by layer from the spans and counters the program already exposes.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash e2ebench/run.sh --workload <name> --runs 10 [--sets 2] [--seconds <s>]
//
// A run sets its workload up five times (setup_s is the median), starts
// measured rounds until --seconds have elapsed, checks every output, and
// prints each metric as "name value unit", then failed_frac, then one
// JSON line {"correct", "attempted", "failed", "metrics"}. It exits 1 if
// any check failed, and without a JSON line if the workload could not
// run. All load comes from this one process, with at most nproc (2)
// worker goroutines or client connections, each a closed loop. Runs
// execute under a 2 GiB soft heap limit (see memoryLimit).
//
// With --runs, the command re-executes itself once per run (seeds seed,
// seed+1, ...), so each run gets a fresh process and its own peak RSS,
// and prints each end-to-end metric's median, quartiles and spread per
// run-set, checking later run-sets against the first within the bounds
// in BENCHMARK.json.
//
// # Workloads
//
// The seed fixes only the inputs the program sees: the subject feed
// order of every matrix pass, or the edit script.
//
//   - matrix-cold: passes of a five-subject paper matrix (02, archiver,
//     condense, drawing, laplace × Default/PCH/Yalla; see
//     matrixSubjects) through experiments.RunAllWith with no build
//     cache: what cmd/experiments costs a user. Preprocess and parse
//     dominate; the build cache does nothing. Frontend gains show here,
//     cache changes should not. Passes run one subject at a time (see
//     matrixJobs).
//   - matrix-warm: the same passes against a cache one untimed pass
//     primed (the set-up). Every translation unit hits, and the
//     substitution tool's own uncached frontend and safety gate take
//     about 85% of the prepare time: this isolates the cache read path,
//     core's duplicate pipeline, and GC over the primed cache.
//   - edit-stream: one developer. One client drives an in-process daemon
//     with yallad's defaults over loopback: one Yalla session of
//     archiver, rounds of ten seeded saves (4 body and 3 comment edits
//     to the substituted source, 2 interface-neutral header edits that
//     early cutoff keeps, 1 interface header edit that re-Prepares),
//     each followed by a Cycle. Every source edit is a translation-unit
//     miss, so this is the workload that writes the cache and runs inval
//     and the daemon.
//   - farm-team: two developers on a three-node farm.StartLocal fleet.
//     The router places their sessions on two different nodes, and both
//     replay the same script at once, so the difference to edit-stream
//     is the router, the leases, the L2 tier and the cache server.
//
// # End-to-end metrics
//
// Measured with tracing off; BENCHMARK.json holds their bounds.
//
//	setup_s         median wall time of the five set-ups
//	wall_s          median wall time of one round: a matrix pass, or one
//	                developer's ten scripted saves
//	op_p50_ms       median latency of one operation: a subject×mode cell
//	                of a pass (ModeResult.WallNs), or an edit's
//	                save→rebuilt time (Client.Edit + Client.Cycle) when the
//	                Cycle did not re-Prepare
//	op_p95_ms       95th percentile of the same
//	prepare_p50_ms  median latency of a Yalla (re-)Prepare: the Yalla cell
//	                of a pass, or the save→rebuilt time of an edit whose
//	                Cycle re-Prepared
//	peak_rss_mb     the process's peak resident set size (VmHWM)
//
// Each run prints its sample counts. In a 20-second run on a 2-core
// machine: matrix-cold makes 9 passes (135 cells, 45 Yalla cells, so
// about 7 cells lie beyond the p95); matrix-warm about 45 passes (675
// cells, 225 Yalla cells); edit-stream about 140 rounds (1260 keep-path
// edits, 140 re-Prepares); farm-team about 26 rounds per developer (470
// keep-path edits, 52 re-Prepares). The tail metric is the p95, not
// the p90: on edit-stream the p90 falls where the keep path's latencies
// are steepest (about 10 ms against a 6 ms median and a 13 ms p95), and
// it spread 19% across runs where the p95 spreads under 5%.
//
// Every check feeds attempted and failed. A matrix pass's results,
// re-sorted to corpus order, must render experiments.CSVs rows equal to
// the rows of the committed results/*.csv; each subject row is one
// operation. Each edit is one operation and fails on an RPC error. After
// the window, each edit session restores the files the script edited,
// rebuilds, and must then match a one-shot devcycle.PrepareWith + Cycle
// of the pristine tree: the same generated files and the same virtual
// compile, link and run costs.
//
// # Per-layer metrics
//
// A traced run (--trace 1) measures half the window untraced and half
// with the program's public hooks on: RunConfig.Obs and
// Cache.AttachMetrics for the matrix; daemon.Config{Tracer, Registry}
// with a retention above the request count for edit-stream; the farm's
// node, router and cache-server registries for farm-team. The benchmark
// adds spans of its own around each public call (bench.pass, bench.edit,
// bench.cycle) and one bench.window span over the measurement. It writes
// the Chrome trace to <out>/trace-<workload>-seed<n>.json and reports
// every per-layer metric: span times come from the trace, where a
// layer's self time is its spans' duration minus the parts child spans
// on the same lane cover; counters are the registries' deltas over the
// window. Times and counts are per measured round. trace.overhead is the
// traced wall_s over the untraced one, minus 1. Splitting buildcache
// lookups into waiting and building needs spans inside buildcache and is
// not measured here.
//
// Each layer and the end-to-end metric it should move:
//
//	cpp/preprocessor   preprocessor.self_ms (lexing included), .runs,       wall_s, op_p50_ms on matrix-cold
//	                   .tokens, .files
//	cpp/parser         parser.self_ms, .units                               wall_s on matrix-cold
//	cpp/sema           sema.self_ms, .units, .decls                         wall_s on matrix-cold
//	core, check        core.substitute_ms, core.{frontend,check,analyze,    wall_s, prepare_p50_ms on matrix-warm;
//	                   wrappers,transform,emit}_ms, core.runs,              prepare_p50_ms on edit-stream
//	                   check.tu_self_ms, check.tu_count
//	compilesim, pch    compilesim.compile_self_ms, .compiles,               wall_s on matrix-cold
//	                   pch.build_self_ms, .builds
//	devcycle,          devcycle.prepare_ms, .cycle_ms,                      wall_s on both matrix workloads
//	experiments        experiments.unattributed_ms
//	                   devcycle.cycle_virtual_ms                            nothing: the paper's simulated cost
//	buildcache, vfs    buildcache.tu.{hits,misses,hit_ratio},               wall_s, peak_rss_mb on matrix-warm;
//	                   buildcache.token.{hits,misses},                      op_p50_ms on edit-stream
//	                   buildcache.singleflight.dedup,
//	                   buildcache.{evictions,evicted_bytes}, vfs.reads
//	inval              inval.diff_ms, .decls_diffed, .keep,                 op_p50_ms on edit-stream
//	                   .recompile_wrappers, .reprepare
//	daemon             daemon.{edit,cycle}_rpc_p50_ms (client-timed),       op_p50_ms on edit-stream
//	                   daemon.request_{p50,p95,self}_ms, .queue.waits,
//	                   .rejected, .cycles.{cold,warm}
//	farm               router.{forwards,retries,forward_errors},            op_p50_ms, op_p95_ms on farm-team
//	                   buildcache.lease.{grants,waits},
//	                   buildcache.remote.{tu_hits,misses,errors},
//	                   buildcache.tier.{l1,l2,compile}_p50_ms,
//	                   farmcache.{hits,misses,evictions,lease.timeouts}
//	Go runtime         runtime.gc_cycles, .gc_cpu_s, .heap_peak_mb,         wall_s, peak_rss_mb on matrix-warm
//	                   .alloc_mb                                            and edit-stream
//	obs                obs.flight.evicted (0 means no lane was dropped),    nothing
//	                   trace.overhead
//
// devcycle.cycle_virtual_ms is the mean virtual cost (TotalMs + SetupMs +
// WrappersMs) of the run's first 100 operations, exact for a seed: the
// paper's simulated output, kept apart from this system's wall time.
//
// # Known defects
//
// In a Yalla daemon session, edits to the original source never reach
// the compiled translation unit: the Yalla build compiles the
// substituted copy, which only a re-Prepare regenerates. Appending
// "int e2ebench_added() { return 1; }" to archiver.cpp leaves the
// session's virtual compile at 197.752 ms; a one-shot build of the edited
// tree takes 197.909 ms. As a result internal/replay's comment and body
// classes, which edit the original source, time a cache hit. The edit
// workloads here edit the substituted source, which is what the Yalla
// build compiles.
//
// check.CheckTUs ends its per-TU spans from concurrent goroutines on one
// trace lane, which is a data race whenever tracing is on: go test -race
// reports it in the traced matrix test. Untraced runs are unaffected.
package main
