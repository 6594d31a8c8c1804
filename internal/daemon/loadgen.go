package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/devcycle"
)

// LoadgenConfig configures a load-generation run.
type LoadgenConfig struct {
	// Clients is the number of concurrent clients; <= 0 means 8.
	Clients int
	// Iters is the number of edit→rebuild iterations per client;
	// <= 0 means 20.
	Iters int
	// Subjects are driven round-robin across clients; nil picks a
	// representative subject per library.
	Subjects []string
	// Mode is the build configuration every session runs; empty means
	// yalla.
	Mode string
	// ColdIters is how many one-shot (cold CLI equivalent) iterations
	// the baseline measures; <= 0 means 3.
	ColdIters int
	// Workers sizes the daemon worker pool; <= 0 means Clients.
	Workers int
	// Addr, when set, drives an already-running daemon instead of
	// starting one in-process.
	Addr string
	// Progress, when set, is called once per completed client.
	Progress func(client int)
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

// Summarize computes the latency percentiles of a raw sample set; the
// replay benchmark reuses it so every report quotes quantiles the same
// way.
func Summarize(samples []time.Duration) LatencyStats { return summarize(samples) }

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
	q := func(p float64) int64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i].Nanoseconds()
	}
	return LatencyStats{
		Count:  len(sorted),
		MeanNs: (sum / time.Duration(len(sorted))).Nanoseconds(),
		P50Ns:  q(0.50),
		P95Ns:  q(0.95),
		P99Ns:  q(0.99),
		MaxNs:  sorted[len(sorted)-1].Nanoseconds(),
	}
}

// CacheTraffic is the build cache traffic of a load run.
type CacheTraffic struct {
	TokenHits   uint64 `json:"token_hits"`
	TokenMisses uint64 `json:"token_misses"`
	TUHits      uint64 `json:"tu_hits"`
	TUMisses    uint64 `json:"tu_misses"`
	Evictions   uint64 `json:"evictions"`
}

// LoadReport is the results/bench_daemon.json payload: concurrent warm
// daemon iterations versus the cold one-shot CLI equivalent, plus the
// byte-identity verdict.
type LoadReport struct {
	Clients  int      `json:"clients"`
	Iters    int      `json:"iters"`
	Workers  int      `json:"workers"`
	Mode     string   `json:"mode"`
	Subjects []string `json:"subjects"`

	TotalRequests int     `json:"total_requests"`
	WallNs        int64   `json:"wall_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// WarmIter is the steady-state daemon iteration (edit + cycle on a
	// prepared session, shared warm cache).
	WarmIter LatencyStats `json:"warm_iter"`
	// FirstIter is each client's first iteration, which pays the
	// session's prepare (tool run, wrappers, first compile).
	FirstIter LatencyStats `json:"first_iter"`
	// ColdCLI is the one-shot equivalent: a fresh Prepare + Cycle with
	// no shared state, what every iteration costs without the daemon.
	ColdCLI LatencyStats `json:"cold_cli"`

	// WarmSpeedup is ColdCLI.MeanNs / WarmIter.MeanNs — how much a warm
	// daemon iteration beats re-running the tool cold.
	WarmSpeedup float64 `json:"warm_speedup"`
	// Identical reports that the daemon's substitution output was
	// byte-identical to the one-shot path for every subject driven.
	Identical bool `json:"identical"`

	Cache CacheTraffic `json:"cache"`
}

// JSON renders the report indented for results/bench_daemon.json.
func (r *LoadReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// defaultLoadSubjects spans all four libraries.
func defaultLoadSubjects() []string {
	return []string{"02", "team_policy", "archiver", "drawing", "chat_server"}
}

// Loadgen drives a daemon with concurrent edit→rebuild loops and
// measures warm daemon iterations against the cold one-shot baseline.
// Unless cfg.Addr points at a running daemon, an in-process server is
// started on a loopback listener and shut down (gracefully) at the end;
// either way the clients go through real HTTP.
func Loadgen(cfg LoadgenConfig) (*LoadReport, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 20
	}
	if cfg.ColdIters <= 0 {
		cfg.ColdIters = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = cfg.Clients
	}
	subjects := cfg.Subjects
	if subjects == nil {
		subjects = defaultLoadSubjects()
	}
	mode, err := ParseMode(cfg.Mode)
	if err != nil {
		return nil, err
	}
	for _, name := range subjects {
		if corpus.ByName(name) == nil {
			return nil, fmt.Errorf("loadgen: unknown subject %q", name)
		}
	}

	base := cfg.Addr
	var srv *Server
	if base == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("loadgen: listen: %v", err)
		}
		// A benchmark run must not shed load: every client's first
		// iteration queues behind cold prepares, so the production
		// queue/request timeouts would reject what we want to measure.
		srv = New(Config{
			Workers:        cfg.Workers,
			QueueTimeout:   10 * time.Minute,
			RequestTimeout: 10 * time.Minute,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ctx, ln) }()
		defer func() {
			cancel() // graceful drain
			<-done
		}()
		base = "http://" + ln.Addr().String()
	}

	// Concurrent edit→rebuild loops: one session per client, subjects
	// round-robin. The first iteration per client pays the prepare; the
	// rest are the warm path the daemon exists for.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firsts   []time.Duration
		warms    []time.Duration
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	t0 := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(base)
			subj := corpus.ByName(subjects[i%len(subjects)])
			sessName := fmt.Sprintf("client-%d", i)
			if _, err := c.CreateSession(sessName, subj.Name, cfg.Mode); err != nil {
				fail(fmt.Errorf("loadgen client %d: %v", i, err))
				return
			}
			main, err := c.ReadFile(sessName, subj.MainFile)
			if err != nil {
				fail(fmt.Errorf("loadgen client %d: %v", i, err))
				return
			}
			var localFirst, localWarm []time.Duration
			for iter := 0; iter < cfg.Iters; iter++ {
				// The edit: append a distinct marker comment — content
				// hash changes (the main TU rebuilds), semantics don't.
				edited := fmt.Sprintf("%s\n// loadgen edit c%d i%d\n", main, i, iter)
				if _, err := c.Edit(sessName, subj.MainFile, edited); err != nil {
					fail(fmt.Errorf("loadgen client %d iter %d: %v", i, iter, err))
					return
				}
				start := time.Now()
				if _, err := c.Cycle(sessName, ""); err != nil {
					fail(fmt.Errorf("loadgen client %d iter %d: %v", i, iter, err))
					return
				}
				d := time.Since(start)
				if iter == 0 {
					localFirst = append(localFirst, d)
				} else {
					localWarm = append(localWarm, d)
				}
			}
			mu.Lock()
			firsts = append(firsts, localFirst...)
			warms = append(warms, localWarm...)
			mu.Unlock()
			if cfg.Progress != nil {
				cfg.Progress(i)
			}
		}(i)
	}
	wg.Wait()
	wallNs := time.Since(t0).Nanoseconds()
	if firstErr != nil {
		return nil, firstErr
	}

	// Cold one-shot baseline: what each iteration costs without the
	// daemon — a fresh tool run + wrappers compile + compile-link-run,
	// no shared cache, exactly the one-shot CLI's work.
	var colds []time.Duration
	for k := 0; k < cfg.ColdIters; k++ {
		subj := corpus.ByName(subjects[k%len(subjects)])
		start := time.Now()
		st, err := devcycle.Prepare(subj, mode)
		if err != nil {
			return nil, fmt.Errorf("loadgen cold baseline: %v", err)
		}
		if _, err := st.Cycle(); err != nil {
			return nil, fmt.Errorf("loadgen cold baseline: %v", err)
		}
		colds = append(colds, time.Since(start))
	}

	// Byte-identity: the daemon's substitution output must match the
	// one-shot path for every driven subject.
	identical := true
	c := NewClient(base)
	for i, name := range subjects {
		ok, err := substitutionIdentical(c, fmt.Sprintf("verify-%d", i), name, cfg.Mode)
		if err != nil {
			return nil, fmt.Errorf("loadgen identity check %s: %v", name, err)
		}
		if !ok {
			identical = false
		}
	}

	rep := &LoadReport{
		Clients:       cfg.Clients,
		Iters:         cfg.Iters,
		Workers:       cfg.Workers,
		Mode:          mode.String(),
		Subjects:      subjects,
		TotalRequests: cfg.Clients * cfg.Iters * 2, // edit + cycle per iteration
		WallNs:        wallNs,
		WarmIter:      summarize(warms),
		FirstIter:     summarize(firsts),
		ColdCLI:       summarize(colds),
		Identical:     identical,
	}
	if wallNs > 0 {
		rep.ThroughputRPS = float64(rep.TotalRequests) / (float64(wallNs) / 1e9)
	}
	if rep.WarmIter.MeanNs > 0 {
		rep.WarmSpeedup = float64(rep.ColdCLI.MeanNs) / float64(rep.WarmIter.MeanNs)
	}
	if srv != nil {
		st := srv.Cache().Stats()
		rep.Cache = CacheTraffic{
			TokenHits: st.TokenHits, TokenMisses: st.TokenMisses,
			TUHits: st.TUHits, TUMisses: st.TUMisses, Evictions: st.Evictions,
		}
	}
	return rep, nil
}

// substitutionIdentical creates a fresh (unedited) session for the
// subject, fetches the daemon's generated files, and compares them
// byte-for-byte against a direct one-shot core.Substitute run — the
// same options cmd/yalla uses.
func substitutionIdentical(c *Client, sessName, subjectName, mode string) (bool, error) {
	subj := corpus.ByName(subjectName)
	if subj == nil {
		return false, fmt.Errorf("unknown subject %q", subjectName)
	}
	if _, err := c.CreateSession(sessName, subjectName, mode); err != nil {
		return false, err
	}
	defer c.CloseSession(sessName)
	got, err := c.Substitute(sessName, true)
	if err != nil {
		return false, err
	}

	fs := subj.FS.Clone()
	opts := core.Options{
		FS:          fs,
		SearchPaths: subj.SearchPaths,
		Sources:     subj.Sources,
		Header:      subj.Header,
		OutDir:      subj.OutDir(),
		Cache:       buildcache.New(),
	}
	want, err := core.Substitute(opts)
	if err != nil {
		return false, err
	}
	paths := []string{want.LightweightPath, want.WrappersPath}
	for _, p := range want.ModifiedSources {
		paths = append(paths, p)
	}
	if len(got.Files) != len(paths) {
		return false, nil
	}
	for _, p := range paths {
		wantContent, err := fs.Read(p)
		if err != nil {
			return false, err
		}
		if got.Files[p] != wantContent {
			return false, nil
		}
	}
	return true, nil
}
