package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// config is one run's settings.
type config struct {
	Seed int64
	// Seconds is the measurement window: rounds start until it has
	// elapsed, and the last one runs to completion.
	Seconds float64
	// Golden is the directory holding the committed paper CSVs.
	Golden string
	// Setups is how many times the workload sets up; setup_s is the
	// median. <= 0 means 5.
	Setups int
	// Rounds, when > 0, also caps the measured rounds; tests shrink runs
	// with it.
	Rounds int
}

func (c config) setups() int {
	if c.Setups <= 0 {
		return 5
	}
	return c.Setups
}

// more reports whether another round should start, given when the
// measurement began and how many rounds ran.
func (c config) more(start time.Time, rounds int) bool {
	if c.Rounds > 0 && rounds >= c.Rounds {
		return false
	}
	return time.Since(start).Seconds() < c.Seconds
}

// A workload sets itself up cfg.setups() times, measures rounds for
// cfg.Seconds, and checks every output. pr is nil on untraced runs; on
// traced runs the workload turns on the program's hooks and records its
// own spans through it.
type workload func(cfg config, pr *probe) (*measurement, error)

var workloads = map[string]workload{
	"matrix-cold": matrixCold,
	"matrix-warm": matrixWarm,
	"edit-stream": editStream,
	"farm-team":   farmTeam,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measurement is what one workload run recorded.
type measurement struct {
	setups []time.Duration
	// rounds holds each measured round's wall time.
	rounds []time.Duration
	// ops holds the latency of each unit operation: one subject×mode
	// cell of a matrix pass, or one edit whose Cycle did not re-Prepare.
	ops []time.Duration
	// prepares holds the latency of each Yalla (re-)Prepare: the Yalla
	// cell of a matrix pass, or one edit whose Cycle re-Prepared.
	prepares []time.Duration
	// virtualMs holds each operation's virtual (simulated) cost.
	virtualMs []float64
	attempted int
	failed    int
	problems  []string

	// Per-layer inputs. win is nil on untraced runs.
	win      *window
	editRPC  []time.Duration
	cycleRPC []time.Duration
	inval    invalTally
}

// merge adds a developer's replay to the run's measurement.
func (m *measurement) merge(o *measurement) {
	m.rounds = append(m.rounds, o.rounds...)
	m.ops = append(m.ops, o.ops...)
	m.prepares = append(m.prepares, o.prepares...)
	m.virtualMs = append(m.virtualMs, o.virtualMs...)
	m.editRPC = append(m.editRPC, o.editRPC...)
	m.cycleRPC = append(m.cycleRPC, o.cycleRPC...)
	m.inval.add(o.inval)
	m.attempted += o.attempted
	m.failed += o.failed
	m.problems = append(m.problems, o.problems...)
}

// window is a traced run's measurement window: a bench.window span that
// marks it in the trace, the counter deltas of the registries it reads,
// and the Go runtime's work over it.
type window struct {
	span *obs.Span
	regs []*obs.Registry
	base []obs.Snapshot
	rt   runtimeWindow

	// Filled by close: counters as deltas over the window, histograms
	// as of its end.
	counters map[string]uint64
	final    []obs.Snapshot
}

// open starts the measurement window on lane, reading regs. It does
// nothing on an untraced run (nil pr).
func (m *measurement) open(pr *probe, lane *obs.Obs, regs ...*obs.Registry) {
	if pr == nil {
		return
	}
	w := &window{regs: regs}
	for _, r := range regs {
		w.base = append(w.base, r.Snapshot())
	}
	w.rt.begin()
	w.span = lane.Start("bench.window")
	m.win = w
}

// close ends the window opened by open, from the goroutine that opened
// it.
func (m *measurement) close() {
	w := m.win
	if w == nil {
		return
	}
	w.span.End()
	w.rt.end()
	w.counters = map[string]uint64{}
	for i, r := range w.regs {
		s := r.Snapshot()
		w.final = append(w.final, s)
		for name, v := range s.Counters {
			w.counters[name] += v - w.base[i].Counters[name]
		}
	}
}

// fail records one failed operation.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.problems) < 10 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

// invalTally sums the invalidation planner's verdicts over the edits.
type invalTally struct {
	diffMs                    float64
	declsDiffed               int
	keep, wrappers, reprepare int
}

func (t *invalTally) add(o invalTally) {
	t.diffMs += o.diffMs
	t.declsDiffed += o.declsDiffed
	t.keep += o.keep
	t.wrappers += o.wrappers
	t.reprepare += o.reprepare
}

// probe holds a traced run's tracer and registry.
type probe struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	root   *obs.Obs
}

func newProbe() *probe {
	t, r := obs.NewTracer(nil), obs.NewRegistry()
	return &probe{tracer: t, reg: r, root: obs.New(t, r)}
}

// registry returns the probe's registry, or nil on an untraced run.
func (p *probe) registry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// lane returns a handle recording into a new trace lane, or nil on an
// untraced run.
func (p *probe) lane(name string) *obs.Obs {
	if p == nil {
		return nil
	}
	return p.root.Lane(name)
}

// runPlain makes an untraced run and reports the end-to-end metrics.
func runPlain(wl workload, cfg config) (*report, error) {
	m, err := wl(cfg, nil)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEnd(m)
	if err != nil {
		return nil, err
	}
	return newReport(e2e, m), nil
}

// runTraced measures half the window untraced and half traced, writes
// the Chrome trace to tracePath, and reports the per-layer metrics plus
// the tracing overhead (traced over untraced wall_s, minus 1).
func runTraced(wl workload, cfg config, tracePath string) (*report, error) {
	half := cfg
	half.Seconds = cfg.Seconds / 2
	half.Setups = 1
	plain, err := wl(half, nil)
	if err != nil {
		return nil, err
	}
	pr := newProbe()
	traced, err := wl(half, pr)
	if err != nil {
		return nil, err
	}
	if len(plain.rounds) == 0 || len(traced.rounds) == 0 {
		return nil, fmt.Errorf("run too short: no measured round")
	}
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return nil, err
	}
	err = pr.tracer.Export(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("write trace: %v", err)
	}
	layers, err := perLayer(traced, tracePath)
	if err != nil {
		return nil, err
	}
	overhead := durMedian(traced.rounds).Seconds()/durMedian(plain.rounds).Seconds() - 1
	layers["trace.overhead"] = metric{overhead, "ratio"}
	rep := newReport(layers, traced)
	rep.Attempted += plain.attempted
	rep.Failed += plain.failed
	rep.problems = append(plain.problems, rep.problems...)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func newReport(ms map[string]metric, m *measurement) *report {
	return &report{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   ms,
		problems:  m.problems,
		samples: fmt.Sprintf("%d rounds, %d operations, %d prepares, %d set-ups",
			len(m.rounds), len(m.ops), len(m.prepares), len(m.setups)),
	}
}

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(m *measurement) (map[string]metric, error) {
	if len(m.setups) == 0 || len(m.rounds) == 0 || len(m.ops) == 0 || len(m.prepares) == 0 {
		return nil, fmt.Errorf("run too short: %d set-ups, %d rounds, %d operations, %d prepares",
			len(m.setups), len(m.rounds), len(m.ops), len(m.prepares))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":        {durMedian(m.setups).Seconds(), "s"},
		"wall_s":         {durMedian(m.rounds).Seconds(), "s"},
		"op_p50_ms":      {msOf(percentile(m.ops, 0.50)), "ms"},
		"op_p95_ms":      {msOf(percentile(m.ops, 0.95)), "ms"},
		"prepare_p50_ms": {msOf(percentile(m.prepares, 0.50)), "ms"},
		"peak_rss_mb":    {rss, "MB"},
	}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %v", err)
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %v", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeWindow records the Go runtime's GC and allocation work over a
// measurement window and samples the live heap's peak.
type runtimeWindow struct {
	gcCycles   uint64
	gcCPUs     float64
	allocBytes uint64
	heapPeak   uint64

	stop chan struct{}
	done chan struct{}
}

var runtimeSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// begin opens the window and polls the heap every 10 ms until end.
func (w *runtimeWindow) begin() {
	s := readRuntime()
	w.gcCycles, w.gcCPUs, w.allocBytes = s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Uint64()
	w.heapPeak = s[3].Value.Uint64()
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		heap := []metrics.Sample{{Name: runtimeSamples[3]}}
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				metrics.Read(heap)
				if v := heap[0].Value.Uint64(); v > w.heapPeak {
					w.heapPeak = v
				}
			}
		}
	}()
}

// end closes the window, turning the counters into deltas.
func (w *runtimeWindow) end() {
	close(w.stop)
	<-w.done
	s := readRuntime()
	w.gcCycles = s[0].Value.Uint64() - w.gcCycles
	w.gcCPUs = s[1].Value.Float64() - w.gcCPUs
	w.allocBytes = s[2].Value.Uint64() - w.allocBytes
}
