package farm

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/daemon"
)

// LoadgenConfig configures a farm load run.
type LoadgenConfig struct {
	// Nodes is the fleet size; <= 0 means 3.
	Nodes int
	// Clients is the number of concurrent clients; <= 0 means 100.
	Clients int
	// Iters is the warm edit→rebuild iterations per client; <= 0 means 5.
	Iters int
	// Workers sizes each node's pool; <= 0 means 8.
	Workers int
	// Subjects are driven round-robin in the warm phase; nil picks the
	// daemon loadgen's defaults. The cold fan-in phase drives only the
	// first subject — every client hits the same cold keys, which is
	// exactly the fleet-wide duplicate-compile hazard the lease must
	// collapse to one build.
	Subjects []string
	// Mode is the build configuration; empty means yalla.
	Mode string
	// Progress, when set, is called as phases complete.
	Progress func(phase string)
}

// NodeTraffic is one node's build-cache traffic after the run.
type NodeTraffic struct {
	ID              string `json:"id"`
	TUHits          uint64 `json:"tu_hits"`
	TUMisses        uint64 `json:"tu_misses"`
	RemoteTUHits    uint64 `json:"remote_tu_hits"`
	RemoteTokenHits uint64 `json:"remote_token_hits"`
	RemoteErrors    uint64 `json:"remote_errors"`
	LeaseGrants     uint64 `json:"lease_grants"`
	LeaseWaits      uint64 `json:"lease_waits"`
}

// TierLatency aggregates one tier's latency histogram across the fleet.
type TierLatency struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P95Ms  float64 `json:"p95_ms"` // worst node's p95
}

// Report is the farm section of results/bench_daemon.json.
type Report struct {
	Nodes    int      `json:"nodes"`
	Clients  int      `json:"clients"`
	Iters    int      `json:"iters"`
	Workers  int      `json:"workers"`
	Mode     string   `json:"mode"`
	Subjects []string `json:"subjects"`

	WallNs        int64   `json:"wall_ns"`
	TotalRequests int     `json:"total_requests"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// ColdFanIn is the latency of the cold phase: every client creating
	// a session of the same subject and cycling it, fleet-wide cold.
	ColdFanIn daemon.LatencyStats `json:"cold_fan_in"`
	// WarmIter is the steady-state SLO sample: edit + cycle on prepared
	// sessions across the fleet (p50/p95/p99 are the farm's SLOs).
	WarmIter daemon.LatencyStats `json:"warm_iter"`

	// BaselineCompiles is how many TU frontends one solo node compiles
	// for the cold workload; FleetCompiles is how many the whole fleet
	// compiled for the same workload under concurrent fan-in. The lease
	// protocol's contract is FleetCompiles == BaselineCompiles — a
	// fleet-wide cold miss compiles exactly once.
	BaselineCompiles uint64 `json:"baseline_compiles"`
	FleetCompiles    uint64 `json:"fleet_compiles"`
	ExactlyOnce      bool   `json:"exactly_once"`

	// ColdLeaseGrants/ColdLeaseWaits are snapshotted at the end of the
	// cold phase: grants is how many builds the fleet arbitrated (one
	// per unique TU when the lease wins every race), waits is how many
	// flights blocked on another node's build instead of duplicating it.
	ColdLeaseGrants uint64 `json:"cold_lease_grants"`
	ColdLeaseWaits  uint64 `json:"cold_lease_waits"`

	// Whole-run remote/lease traffic (includes the warm phase).
	RemoteTUHits uint64 `json:"remote_tu_hits"`
	LeaseGrants  uint64 `json:"lease_grants"`
	LeaseWaits   uint64 `json:"lease_waits"`

	// TierL2 vs TierCompile is the economics of the shared cache: what
	// adopting a remote TU costs against building it.
	TierL2      TierLatency `json:"tier_l2"`
	TierCompile TierLatency `json:"tier_compile"`
	// L2Speedup is TierCompile.MeanMs / TierL2.MeanMs.
	L2Speedup float64 `json:"l2_speedup"`

	// Identical reports that every node's substitution output was
	// byte-identical to the direct one-shot path for every subject.
	Identical bool `json:"identical"`

	PerNode     []NodeTraffic    `json:"per_node"`
	CacheServer CacheServerStats `json:"cache_server"`
}

// JSON renders the report indented.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// loadgenClient builds a client whose timeout never fires before the
// server's own request deadline: the load generator measures server-side
// latency distributions, so client-side timeouts must not censor them.
func loadgenClient(base string) *daemon.Client {
	return daemon.NewClientWith(base, daemon.ClientOptions{Timeout: 15 * time.Minute})
}

func defaultFarmSubjects() []string {
	return []string{"02", "team_policy", "archiver", "drawing", "chat_server"}
}

// coldWorkload runs the cold fan-in against base: each client creates
// its own session of subject and cycles it once. Returns per-client
// latencies.
func coldWorkload(base string, clients int, subject, mode, prefix string) ([]time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := loadgenClient(base)
			sess := fmt.Sprintf("%s-%d", prefix, i)
			start := time.Now()
			if _, err := c.CreateSession(sess, subject, mode); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d: %v", i, err)
				}
				mu.Unlock()
				return
			}
			if _, err := c.Cycle(sess, ""); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("client %d: %v", i, err)
				}
				mu.Unlock()
				return
			}
			d := time.Since(start)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return lats, firstErr
}

// fleetCompiles sums TUMisses across nodes — with the lease protocol,
// the fleet-wide count of TU frontends actually built (remote
// adoptions are counted separately as RemoteTUHits).
func fleetCompiles(f *Farm) uint64 {
	var n uint64
	for _, node := range f.Nodes {
		n += node.Server.Cache().Stats().TUMisses
	}
	return n
}

// Loadgen measures the farm: exactly-once cold compilation under
// concurrent fan-in, steady-state SLOs, per-tier economics, and
// byte-identity of every node's output against the one-shot path.
func Loadgen(cfg LoadgenConfig) (*Report, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 100
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	subjects := cfg.Subjects
	if subjects == nil {
		subjects = defaultFarmSubjects()
	}
	if cfg.Mode == "" {
		cfg.Mode = "yalla"
	}
	for _, name := range subjects {
		if corpus.ByName(name) == nil {
			return nil, fmt.Errorf("farm loadgen: unknown subject %q", name)
		}
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}

	// Phase 0 — baseline: a solo node (own cache server, nothing shared)
	// runs the cold workload once; its TUMisses is the compile count the
	// whole fleet must not exceed.
	solo, err := StartLocal(LocalConfig{Nodes: 1, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	if _, err := coldWorkload(solo.RouterURL, 1, subjects[0], cfg.Mode, "baseline"); err != nil {
		solo.Stop()
		return nil, fmt.Errorf("farm loadgen baseline: %v", err)
	}
	baseline := fleetCompiles(solo)
	solo.Stop()
	progress(fmt.Sprintf("baseline: %d compiles solo", baseline))

	f, err := StartLocal(LocalConfig{Nodes: cfg.Nodes, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	defer f.Stop()

	// Phase 1 — economics probe: one sequential client on an otherwise
	// idle fleet, so the tier histograms sample what an L2 adoption and a
	// compile actually cost, not what they cost while 100 clients fight
	// for the scheduler. Needs a subject the cold fan-in won't use.
	var probeL2, probeCompile TierLatency
	probeRan := false
	if len(subjects) > 1 {
		if err := runEconomicsProbe(f, subjects[len(subjects)-1], cfg.Mode); err != nil {
			return nil, fmt.Errorf("farm loadgen probe: %v", err)
		}
		probeL2, probeCompile = tierSnapshot(f)
		probeRan = true
		progress(fmt.Sprintf("economics probe: compile mean %.2fms, L2 adoption mean %.2fms",
			probeCompile.MeanMs, probeL2.MeanMs))
	}
	preGrants, preWaits, preCompiles := leaseTotals(f)

	// Phase 2 — fleet cold fan-in: every client hits the same cold keys
	// concurrently through the router.
	t0 := time.Now()
	coldLats, err := coldWorkload(f.RouterURL, cfg.Clients, subjects[0], cfg.Mode, "cold")
	if err != nil {
		return nil, fmt.Errorf("farm loadgen cold phase: %v", err)
	}
	postGrants, postWaits, postCompiles := leaseTotals(f)
	fleet := postCompiles - preCompiles
	coldGrants, coldWaits := postGrants-preGrants, postWaits-preWaits
	progress(fmt.Sprintf("cold fan-in: %d clients, %d compiles fleet-wide (baseline %d), %d lease grants",
		cfg.Clients, fleet, baseline, coldGrants))

	// Phase 3 — warm steady state: every client edits its own session's
	// main file and cycles, iters times; these latencies are the SLOs.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		warms    []time.Duration
		firstErr error
	)
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := loadgenClient(f.RouterURL)
			subj := corpus.ByName(subjects[i%len(subjects)])
			sess := fmt.Sprintf("cold-%d", i)
			if i%len(subjects) != 0 {
				// Not the cold-phase subject: session doesn't exist yet.
				sess = fmt.Sprintf("warm-%d", i)
				if _, err := c.CreateSession(sess, subj.Name, cfg.Mode); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm client %d: %v", i, err)
					}
					mu.Unlock()
					return
				}
			}
			main, err := c.ReadFile(sess, subj.MainFile)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("warm client %d: %v", i, err)
				}
				mu.Unlock()
				return
			}
			var local []time.Duration
			for iter := 0; iter < cfg.Iters; iter++ {
				edited := fmt.Sprintf("%s\n// farm edit c%d i%d\n", main, i, iter)
				if _, err := c.Edit(sess, subj.MainFile, edited); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm client %d iter %d: %v", i, iter, err)
					}
					mu.Unlock()
					return
				}
				start := time.Now()
				if _, err := c.Cycle(sess, ""); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm client %d iter %d: %v", i, iter, err)
					}
					mu.Unlock()
					return
				}
				if iter > 0 {
					// Iter 0 pays the session's prepare for warm-created
					// sessions; steady state starts at iter 1.
					local = append(local, time.Since(start))
				}
			}
			mu.Lock()
			warms = append(warms, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wallNs := time.Since(t0).Nanoseconds()
	progress(fmt.Sprintf("warm phase: %d samples", len(warms)))

	// Phase 4 — byte-identity: every node must produce substitution
	// output byte-identical to the direct one-shot path, per subject.
	identical := true
	for _, name := range subjects {
		want, paths, err := oneShotFiles(name)
		if err != nil {
			return nil, fmt.Errorf("farm identity %s: %v", name, err)
		}
		for _, n := range f.Nodes {
			ok, err := nodeMatchesOneShot(n.URL, name, cfg.Mode, want, paths)
			if err != nil {
				return nil, fmt.Errorf("farm identity %s on %s: %v", name, n.ID, err)
			}
			if !ok {
				identical = false
			}
		}
	}
	progress("byte-identity verified")

	rep := &Report{
		Nodes:            cfg.Nodes,
		Clients:          cfg.Clients,
		Iters:            cfg.Iters,
		Workers:          cfg.Workers,
		Mode:             cfg.Mode,
		Subjects:         subjects,
		WallNs:           wallNs,
		TotalRequests:    cfg.Clients * (2 + 2*cfg.Iters), // create+cycle cold, edit+cycle warm
		ColdFanIn:        daemon.Summarize(coldLats),
		WarmIter:         daemon.Summarize(warms),
		BaselineCompiles: baseline,
		FleetCompiles:    fleet,
		ExactlyOnce:      fleet == baseline,
		ColdLeaseGrants:  coldGrants,
		ColdLeaseWaits:   coldWaits,
		Identical:        identical,
		CacheServer:      f.Cache.Stats(),
	}
	if wallNs > 0 {
		rep.ThroughputRPS = float64(rep.TotalRequests) / (float64(wallNs) / 1e9)
	}
	for _, n := range f.Nodes {
		st := n.Server.Cache().Stats()
		rep.RemoteTUHits += st.RemoteTUHits
		rep.LeaseGrants += st.LeaseGrants
		rep.LeaseWaits += st.LeaseWaits
		rep.PerNode = append(rep.PerNode, NodeTraffic{
			ID:     n.ID,
			TUHits: st.TUHits, TUMisses: st.TUMisses,
			RemoteTUHits: st.RemoteTUHits, RemoteTokenHits: st.RemoteTokenHits,
			RemoteErrors: st.RemoteErrors,
			LeaseGrants:  st.LeaseGrants, LeaseWaits: st.LeaseWaits,
		})
	}
	if probeRan {
		rep.TierL2, rep.TierCompile = probeL2, probeCompile
	} else {
		// No probe subject available: fall back to the whole-run
		// histograms (contended, so read them as relative, not absolute).
		rep.TierL2, rep.TierCompile = tierSnapshot(f)
	}
	if rep.TierL2.MeanMs > 0 {
		rep.L2Speedup = rep.TierCompile.MeanMs / rep.TierL2.MeanMs
	}
	return rep, nil
}

// leaseTotals sums lease and compile counters across the fleet, so
// phases can be measured as deltas.
func leaseTotals(f *Farm) (grants, waits, compiles uint64) {
	for _, n := range f.Nodes {
		st := n.Server.Cache().Stats()
		grants += st.LeaseGrants
		waits += st.LeaseWaits
		compiles += st.TUMisses
	}
	return grants, waits, compiles
}

// tierSnapshot aggregates the fleet's per-tier latency histograms.
func tierSnapshot(f *Farm) (l2, compile TierLatency) {
	aggs := map[string]*TierLatency{
		"buildcache.tier.l2_ms":      &l2,
		"buildcache.tier.compile_ms": &compile,
	}
	for _, n := range f.Nodes {
		snap := n.Registry.Snapshot()
		for name, agg := range aggs {
			if h, ok := snap.Histograms[name]; ok {
				agg.Count += h.Count
				agg.MeanMs += h.Sum // running sum; divided below
				if h.P95 > agg.P95Ms {
					agg.P95Ms = h.P95
				}
			}
		}
	}
	for _, agg := range aggs {
		if agg.Count > 0 {
			agg.MeanMs /= float64(agg.Count)
		}
	}
	return l2, compile
}

// runEconomicsProbe compiles a subject on one node (compile-tier
// samples), then opens a session of the same subject on a different
// node, which must adopt every TU from the shared cache (L2-tier
// samples). Sequential, on an idle fleet — the two histograms then
// compare what a build costs against what a remote hit costs.
func runEconomicsProbe(f *Farm, subjectName, mode string) error {
	c := loadgenClient(f.RouterURL)
	buildSess := "probe-build"
	if _, err := c.CreateSession(buildSess, subjectName, mode); err != nil {
		return err
	}
	if _, err := c.Cycle(buildSess, ""); err != nil {
		return err
	}
	builder := f.Router.Owner(buildSess)
	for i := 0; i < 4096; i++ {
		sess := fmt.Sprintf("probe-adopt-%d", i)
		if f.Router.Owner(sess) == builder {
			continue
		}
		if _, err := c.CreateSession(sess, subjectName, mode); err != nil {
			return err
		}
		_, err := c.Cycle(sess, "")
		return err
	}
	return fmt.Errorf("no session name hashed off node %s", builder)
}

// oneShotFiles runs the direct (daemon-less) substitution for a subject
// and returns its output files — the ground truth every farm node must
// reproduce byte-for-byte.
func oneShotFiles(subjectName string) (map[string]string, []string, error) {
	subj := corpus.ByName(subjectName)
	if subj == nil {
		return nil, nil, fmt.Errorf("unknown subject %q", subjectName)
	}
	fs := subj.FS.Clone()
	res, err := core.Substitute(core.Options{
		FS:          fs,
		SearchPaths: subj.SearchPaths,
		Sources:     subj.Sources,
		Header:      subj.Header,
		OutDir:      subj.OutDir(),
		Cache:       buildcache.New(),
	})
	if err != nil {
		return nil, nil, err
	}
	paths := []string{res.LightweightPath, res.WrappersPath}
	for _, p := range res.ModifiedSources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	want := make(map[string]string, len(paths))
	for _, p := range paths {
		content, err := fs.Read(p)
		if err != nil {
			return nil, nil, err
		}
		want[p] = content
	}
	return want, paths, nil
}

// nodeMatchesOneShot creates a fresh session directly on one node and
// compares its substitution output to the one-shot files.
func nodeMatchesOneShot(nodeURL, subjectName, mode string, want map[string]string, paths []string) (bool, error) {
	c := daemon.NewClient(nodeURL)
	sess := fmt.Sprintf("verify-%s", subjectName)
	if _, err := c.CreateSession(sess, subjectName, mode); err != nil {
		return false, err
	}
	defer c.CloseSession(sess)
	got, err := c.Substitute(sess, true)
	if err != nil {
		return false, err
	}
	if len(got.Files) != len(paths) {
		return false, nil
	}
	for _, p := range paths {
		if got.Files[p] != want[p] {
			return false, nil
		}
	}
	return true, nil
}
