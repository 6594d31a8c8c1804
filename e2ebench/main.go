package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

// memoryLimit is the soft heap limit every run executes under. The
// benchmark shares a small machine: without a limit matrix-warm reaches
// about 2.5 GB of resident memory and farm-team about 4.2 GB. Under this
// limit both stay near 2.2 GB; edit-stream and matrix-cold stay below
// it. farm-team's three in-process nodes share one heap, so under the
// limit its rounds spend much of their time in GC: they run about 70%
// slower than without one. A 3 GiB limit left farm-team at the edge,
// where its re-Prepare median switched between 200 and 280 ms from run
// to run. Every commit is measured under the same limit, so a larger
// live set shows as GC time in the timings.
const memoryLimit = 2 << 30

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, runs what they ask for, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fl.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = fl.Float64("seconds", 10, "how long one run measures, in seconds")
		trace   = fl.Int("trace", 0, "1 runs the workload traced and reports the per-layer metrics instead")
		out     = fl.String("out", ".bench_build", "directory for traces")
		golden  = fl.String("golden", "results", "directory holding the committed paper CSVs the matrix output must match")
		runs    = fl.Int("runs", 0, "run-set mode: run the workload this many times, with seeds seed, seed+1, ..., each in its own process, and print every end-to-end metric's median, quartiles and spread")
		sets    = fl.Int("sets", 1, "run-set mode: how many run-sets to make with the same seeds; with 2 or more, each later set's medians are checked against the first's within BENCHMARK.json's bounds")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "e2ebench: "+format+"\n", args...)
		return 1
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		return fail("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	case *trace != 0 && *trace != 1:
		return fail("-trace must be 0 or 1, got %d", *trace)
	case *seconds <= 0:
		return fail("-seconds must be positive")
	}
	if *runs > 0 {
		if err := runSets(stdout, *name, *seed, *seconds, *runs, *sets, "-out", *out, "-golden", *golden); err != nil {
			return fail("%v", err)
		}
		return 0
	}

	debug.SetMemoryLimit(memoryLimit)
	cfg := config{Seed: *seed, Seconds: *seconds, Golden: *golden}
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(wl, cfg, fmt.Sprintf("%s/trace-%s-seed%d.json", *out, *name, *seed))
	} else {
		rep, err = runPlain(wl, cfg)
	}
	if err != nil {
		return fail("%s: %v", *name, err)
	}
	if err := rep.write(stdout); err != nil {
		return fail("%v", err)
	}
	if !rep.Correct {
		for _, p := range rep.problems {
			fail("%s: %s", *name, p)
		}
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	// samples states how many samples the metrics summarize.
	samples string
}

// write prints every metric as "name value unit", the sample counts,
// the failure share, and then the report as one JSON line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %v %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "samples: %s\n", r.samples)
	fmt.Fprintf(w, "failed_frac %v (%d of %d operations)\n",
		float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
