// Package replay benchmarks the daemon under a deterministic edit
// stream. The paper's claim is about the *repeated* edit–compile–run
// cycle, and not all edits cost the same: a comment-only save rebuilds
// one translation unit from cache-validated manifests, a function-body
// change recompiles that TU, an interface (header) change invalidates
// the whole prepared setup — tool rerun, wrappers, PCH — and a mixed
// benign header edit (comment or inline-body change inside the header)
// is proven interface-neutral by the decl-level diff and rebuilds
// nothing. The replay harness scripts those four edit classes against
// live sessions and reports per-class latency percentiles, quantifying
// the warm path the daemon exists for, the over-invalidation cost of
// structural edits, and the early-cutoff win that shaves it.
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/daemon"
)

// Class names, in report order.
const (
	ClassComment   = "comment"   // comment-only edit: hash changes, semantics don't
	ClassBody      = "body"      // new global definition: the TU recompiles
	ClassInterface = "interface" // header edit: structural, full re-Prepare
	ClassMixed     = "mixed"     // benign header edit: early cutoff keeps the setup
)

// Classes lists the edit classes every replay run drives.
func Classes() []string { return []string{ClassComment, ClassBody, ClassInterface, ClassMixed} }

// mode is the build configuration every replay session runs, and
// workers sizes the in-process daemon's pool.
const (
	mode    = "yalla"
	workers = 4
)

// Config configures a replay run.
type Config struct {
	// Subjects to replay; nil means the whole corpus.
	Subjects []string
	// Iters is the number of edits per class per subject; <= 0 means 5.
	Iters int
	// InjectDelay, when > 0, sleeps inside every timed edit→rebuild
	// window. Test-only: it synthesizes a uniform slowdown so the
	// regression gate's detection path can be exercised without slowing
	// anything real down.
	InjectDelay time.Duration
}

// LatencyStats summarizes a latency sample in nanoseconds.
type LatencyStats struct {
	Count  int   `json:"count"`
	MeanNs int64 `json:"mean_ns"`
	P50Ns  int64 `json:"p50_ns"`
	P95Ns  int64 `json:"p95_ns"`
	P99Ns  int64 `json:"p99_ns"`
	MaxNs  int64 `json:"max_ns"`
}

// quantile is the p-quantile of an ascending sample by floor index,
// with no interpolation, so every reported quantile is one of the
// samples. Both the wall and the virtual statistics use it; the virtual
// p95 figures the regression gate holds exactly come from it.
func quantile[T any](sorted []T, p float64) T {
	return sorted[int(p*float64(len(sorted)-1))]
}

func summarize(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, s := range sorted {
		sum += s
	}
	return LatencyStats{
		Count:  len(sorted),
		MeanNs: (sum / time.Duration(len(sorted))).Nanoseconds(),
		P50Ns:  quantile(sorted, 0.50).Nanoseconds(),
		P95Ns:  quantile(sorted, 0.95).Nanoseconds(),
		P99Ns:  quantile(sorted, 0.99).Nanoseconds(),
		MaxNs:  sorted[len(sorted)-1].Nanoseconds(),
	}
}

func virtualStats(ms []float64) (mean, p95 float64) {
	if len(ms) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return sum / float64(len(sorted)), quantile(sorted, 0.95)
}

// ClassStats is one edit class's aggregate across a run.
type ClassStats struct {
	Class string `json:"class"`
	// Edits is how many timed edit→rebuild windows the class ran.
	Edits   int          `json:"edits"`
	Latency LatencyStats `json:"latency"`
	// Invalidations and Prepares sum the per-session counters: the
	// interface class should account for (almost) all of both.
	Invalidations uint64 `json:"invalidations"`
	Prepares      uint64 `json:"prepares"`
	// EarlyCutoffHits counts structural (header) edits the decl-level
	// diff proved interface-neutral, keeping the prepared setup live;
	// WrapperRecompiles is the subset that still needed the wrapper TU
	// rebuilt; DeclsDiffed is the total interface hashes compared. The
	// mixed class should score a hit on every edit, the others zero.
	EarlyCutoffHits   uint64 `json:"early_cutoff_hits,omitempty"`
	WrapperRecompiles uint64 `json:"wrapper_recompiles,omitempty"`
	DeclsDiffed       uint64 `json:"decls_diffed,omitempty"`
	// VirtualMeanMs and VirtualP95Ms summarize the simulated
	// compile-cost of each timed window on the deterministic virtual
	// clock (cycle total plus any re-prepare setup). Unlike the wall
	// latencies they are byte-identical across machines, which is what
	// makes a committed cross-machine regression baseline meaningful.
	VirtualMeanMs float64 `json:"virtual_mean_ms"`
	VirtualP95Ms  float64 `json:"virtual_p95_ms"`
}

// SubjectReport is one subject's per-class breakdown.
type SubjectReport struct {
	Subject string       `json:"subject"`
	Library string       `json:"library"`
	Classes []ClassStats `json:"classes"`
}

// Report is the results/bench_replay.json payload.
type Report struct {
	Mode     string `json:"mode"`
	Iters    int    `json:"iters"`
	Subjects int    `json:"subjects"`
	WallNs   int64  `json:"wall_ns"`

	// Classes aggregates each edit class across all subjects.
	Classes []ClassStats `json:"classes"`
	// OverInvalidationX is mean(interface) / mean(body): how much more a
	// header edit costs than a semantically comparable source edit,
	// i.e. the price of invalidating the whole prepared setup.
	OverInvalidationX float64 `json:"over_invalidation_x"`
	// OverInvalidationVirtualX is the same ratio on the deterministic
	// virtual clock — byte-identical across machines, so the regression
	// gate can hold it exactly.
	OverInvalidationVirtualX float64 `json:"over_invalidation_virtual_x"`
	// EarlyCutoffVirtualX is virtual mean(interface) / virtual
	// mean(mixed): how much a worst-case header edit costs relative to a
	// benign one the decl diff proves interface-neutral — the measured
	// early-cutoff win.
	EarlyCutoffVirtualX float64 `json:"early_cutoff_virtual_x"`

	PerSubject []SubjectReport `json:"per_subject"`
}

// JSON renders the report indented.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Class returns the aggregate stats for a class name, or a zero value.
func (r *Report) Class(name string) ClassStats {
	for _, c := range r.Classes {
		if c.Class == name {
			return c
		}
	}
	return ClassStats{}
}

// mixedProbe is the inline definition the mixed class appends to its
// header during an untimed warmup edit: an unused function whose body
// the odd iterations rewrite, so both edit kinds (comment append,
// body-only change) are provably interface-neutral.
const mixedProbe = "inline int yalla_replay_mixed_probe() { return 0; }\n"

// editScript generates the iter-th content for one class. Scripts are
// pure functions of (original content, iter), so a replay run is fully
// deterministic: same corpus, same edits, same cache traffic. For the
// mixed class, orig already contains mixedProbe (see replaySubject).
func editScript(class string, orig string, iter int) string {
	switch class {
	case ClassComment:
		return fmt.Sprintf("%s\n// replay comment %d\n", orig, iter)
	case ClassBody:
		return fmt.Sprintf("%s\nint yalla_replay_%d = %d;\n", orig, iter, iter)
	case ClassInterface:
		return fmt.Sprintf("%s\n#define YALLA_REPLAY_%d %d\n", orig, iter, iter)
	case ClassMixed:
		if iter%2 == 0 {
			return fmt.Sprintf("%s// replay mixed comment %d\n", orig, iter)
		}
		return strings.Replace(orig, "yalla_replay_mixed_probe() { return 0; }",
			fmt.Sprintf("yalla_replay_mixed_probe() { return %d; }", iter), 1)
	}
	return orig
}

// resolveHeader finds the subject's target header inside the session's
// working tree by probing the subject's search paths, the same
// resolution order the pipeline uses.
func resolveHeader(c *daemon.Client, session string, subj *corpus.Subject) (path, content string, err error) {
	for _, cand := range subj.HeaderPaths() {
		content, err := c.ReadFile(session, cand)
		if err == nil {
			return cand, content, nil
		}
	}
	return "", "", fmt.Errorf("replay: cannot resolve header %s for %s", subj.Header, subj.Name)
}

// Run replays the edit stream and aggregates per-class latencies.
func Run(cfg Config) (*Report, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	subjects := cfg.Subjects
	if subjects == nil {
		for _, s := range corpus.All() {
			subjects = append(subjects, s.Name)
		}
	}
	for _, name := range subjects {
		if corpus.ByName(name) == nil {
			return nil, fmt.Errorf("replay: unknown subject %q", name)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("replay: listen: %v", err)
	}
	// A benchmark must not shed load — the interface class deliberately
	// triggers slow re-Prepares.
	srv := daemon.New(daemon.Config{
		Workers:        workers,
		QueueTimeout:   10 * time.Minute,
		RequestTimeout: 10 * time.Minute,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-done
	}()
	c := daemon.NewClient("http://" + ln.Addr().String())

	rep := &Report{Mode: mode, Iters: cfg.Iters, Subjects: len(subjects)}
	agg := map[string]*classAgg{}
	for _, class := range Classes() {
		agg[class] = &classAgg{}
	}

	t0 := time.Now()
	for _, name := range subjects {
		sr, err := replaySubject(c, name, cfg, agg)
		if err != nil {
			return nil, err
		}
		rep.PerSubject = append(rep.PerSubject, *sr)
	}
	rep.WallNs = time.Since(t0).Nanoseconds()

	for _, class := range Classes() {
		a := agg[class]
		cs := ClassStats{
			Class:             class,
			Edits:             len(a.samples),
			Latency:           summarize(a.samples),
			Invalidations:     a.invalidations,
			Prepares:          a.prepares,
			EarlyCutoffHits:   a.earlyCutoffHits,
			WrapperRecompiles: a.wrapperRecompiles,
			DeclsDiffed:       a.declsDiffed,
		}
		cs.VirtualMeanMs, cs.VirtualP95Ms = virtualStats(a.virtual)
		rep.Classes = append(rep.Classes, cs)
	}
	ifaceMean := rep.Class(ClassInterface).Latency.MeanNs
	bodyMean := rep.Class(ClassBody).Latency.MeanNs
	if bodyMean > 0 {
		rep.OverInvalidationX = float64(ifaceMean) / float64(bodyMean)
	}
	ifaceVirtual := rep.Class(ClassInterface).VirtualMeanMs
	if v := rep.Class(ClassBody).VirtualMeanMs; v > 0 {
		rep.OverInvalidationVirtualX = ifaceVirtual / v
	}
	if v := rep.Class(ClassMixed).VirtualMeanMs; v > 0 {
		rep.EarlyCutoffVirtualX = ifaceVirtual / v
	}
	return rep, nil
}

type classAgg struct {
	samples           []time.Duration
	virtual           []float64
	invalidations     uint64
	prepares          uint64
	earlyCutoffHits   uint64
	wrapperRecompiles uint64
	declsDiffed       uint64
}

// replaySubject drives all edit classes for one subject. Each class gets
// its own session so one class's invalidations never pollute another's
// warm state; the first (untimed) cycle pays the prepare.
func replaySubject(c *daemon.Client, name string, cfg Config, agg map[string]*classAgg) (*SubjectReport, error) {
	subj := corpus.ByName(name)
	sr := &SubjectReport{Subject: subj.Name, Library: subj.Library}
	for _, class := range Classes() {
		sess := fmt.Sprintf("replay-%s-%s", name, class)
		if _, err := c.CreateSession(sess, name, mode); err != nil {
			return nil, fmt.Errorf("replay %s/%s: %v", name, class, err)
		}
		// Warm the session: replay isolates the steady-state cost of each
		// edit class, so the prepare and first compile stay untimed.
		if _, err := c.Cycle(sess, ""); err != nil {
			return nil, fmt.Errorf("replay %s/%s warmup: %v", name, class, err)
		}

		editPath := subj.MainFile
		orig, err := c.ReadFile(sess, editPath)
		if err != nil {
			return nil, fmt.Errorf("replay %s/%s: %v", name, class, err)
		}
		if class == ClassInterface || class == ClassMixed {
			editPath, orig, err = resolveHeader(c, sess, subj)
			if err != nil {
				return nil, err
			}
		}
		if class == ClassMixed {
			// Untimed warmup edit: append the probe whose body the odd
			// iterations rewrite, and settle the session, so every timed
			// window is a pure benign-header edit against warm state.
			orig = orig + "\n" + mixedProbe
			if _, err := c.Edit(sess, editPath, orig); err != nil {
				return nil, fmt.Errorf("replay %s/%s probe: %v", name, class, err)
			}
			if _, err := c.Cycle(sess, ""); err != nil {
				return nil, fmt.Errorf("replay %s/%s probe cycle: %v", name, class, err)
			}
		}
		// Counters accumulated before the timed loop (the warmup prepare,
		// the mixed probe edit) are not edit costs; stats below report
		// deltas against this baseline.
		before, err := c.SessionInfo(sess)
		if err != nil {
			return nil, fmt.Errorf("replay %s/%s: %v", name, class, err)
		}

		var (
			samples []time.Duration
			virtual []float64
		)
		for iter := 0; iter < cfg.Iters; iter++ {
			content := editScript(class, orig, iter)
			// The timed window is save→rebuilt: the edit request, the
			// (possible) re-prepare, and the compile-link-run cycle —
			// what a developer actually waits for after hitting save.
			start := time.Now()
			if cfg.InjectDelay > 0 {
				time.Sleep(cfg.InjectDelay)
			}
			if _, err := c.Edit(sess, editPath, content); err != nil {
				return nil, fmt.Errorf("replay %s/%s iter %d: %v", name, class, iter, err)
			}
			cy, err := c.Cycle(sess, "")
			if err != nil {
				return nil, fmt.Errorf("replay %s/%s iter %d: %v", name, class, iter, err)
			}
			samples = append(samples, time.Since(start))
			virtual = append(virtual, cy.TotalMs+cy.SetupMs+cy.WrappersMs)
		}

		info, err := c.SessionInfo(sess)
		if err != nil {
			return nil, fmt.Errorf("replay %s/%s: %v", name, class, err)
		}
		cs := ClassStats{
			Class:             class,
			Edits:             len(samples),
			Latency:           summarize(samples),
			Invalidations:     info.Invalidations - before.Invalidations,
			Prepares:          info.Prepares - before.Prepares,
			EarlyCutoffHits:   info.EarlyCutoffHits - before.EarlyCutoffHits,
			WrapperRecompiles: info.WrapperRecompiles - before.WrapperRecompiles,
			DeclsDiffed:       info.DeclsDiffed - before.DeclsDiffed,
		}
		cs.VirtualMeanMs, cs.VirtualP95Ms = virtualStats(virtual)
		sr.Classes = append(sr.Classes, cs)
		a := agg[class]
		a.samples = append(a.samples, samples...)
		a.virtual = append(a.virtual, virtual...)
		a.invalidations += cs.Invalidations
		a.prepares += cs.Prepares
		a.earlyCutoffHits += cs.EarlyCutoffHits
		a.wrapperRecompiles += cs.WrapperRecompiles
		a.declsDiffed += cs.DeclsDiffed
		if err := c.CloseSession(sess); err != nil {
			return nil, fmt.Errorf("replay %s/%s: %v", name, class, err)
		}
	}
	return sr, nil
}
