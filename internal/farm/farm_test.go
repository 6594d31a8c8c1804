package farm

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/daemon"
)

// TestFarmSmoke is the end-to-end fleet test (CI runs it under -race):
// a 3-node farm takes a 100-client cold fan-in plus concurrent warm edit
// cycles, a fleet-wide cold miss compiles exactly once, and every node's
// substitution output is byte-identical to the one-shot path.
func TestFarmSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("farm smoke is a multi-node load test")
	}
	const (
		workers     = 4
		coldClients = 100
		warmClients = 24
		warmIters   = 2
		mode        = "yalla"
	)
	// The cold fan-in drives only the first subject: every client hits
	// the same cold keys, the fleet-wide duplicate-compile hazard the
	// lease must collapse to one build.
	subjects := []string{"02", "team_policy"}
	cold := func(base string, clients int) error {
		return fanOut(clients, func(i int) error {
			c := testClient(base)
			sess := fmt.Sprintf("cold-%d", i)
			if _, err := c.CreateSession(sess, subjects[0], mode); err != nil {
				return fmt.Errorf("cold client %d: %v", i, err)
			}
			if _, err := c.Cycle(sess, ""); err != nil {
				return fmt.Errorf("cold client %d: %v", i, err)
			}
			return nil
		})
	}

	// A solo node (own cache server, nothing shared) runs the cold
	// workload once; its compile count is what the whole fleet must not
	// exceed.
	solo, err := StartLocal(LocalConfig{Nodes: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	err = cold(solo.RouterURL, 1)
	baseline := fleetStats(solo).TUMisses
	solo.Stop()
	if err != nil {
		t.Fatalf("solo baseline: %v", err)
	}

	f, err := StartLocal(LocalConfig{Nodes: 3, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if err := cold(f.RouterURL, coldClients); err != nil {
		t.Fatalf("cold fan-in: %v", err)
	}
	// Summing TUMisses across the fleet counts the TU frontends actually
	// built (remote adoptions are counted apart, as RemoteTUHits), and
	// the lease arbitrated at most one grant per build.
	st := fleetStats(f)
	t.Logf("cold fan-in: %d clients, %d compiles fleet-wide (solo %d), %d lease grants, %d waits",
		coldClients, st.TUMisses, baseline, st.LeaseGrants, st.LeaseWaits)
	if st.TUMisses != baseline {
		t.Errorf("fleet compiled %d TUs for a workload a solo node compiles in %d — duplicate work leaked past the lease",
			st.TUMisses, baseline)
	}
	if st.LeaseGrants == 0 || st.LeaseGrants > st.TUMisses {
		t.Errorf("cold lease grants = %d, want in [1, %d]", st.LeaseGrants, st.TUMisses)
	}

	// Warm edit loop: each client edits its session's main file and
	// cycles; clients on the second subject open their session first.
	err = fanOut(warmClients, func(i int) error {
		c := testClient(f.RouterURL)
		subj := corpus.ByName(subjects[i%len(subjects)])
		sess := fmt.Sprintf("cold-%d", i)
		if subj.Name != subjects[0] {
			sess = fmt.Sprintf("warm-%d", i)
			if _, err := c.CreateSession(sess, subj.Name, mode); err != nil {
				return fmt.Errorf("warm client %d: %v", i, err)
			}
		}
		main, err := c.ReadFile(sess, subj.MainFile)
		if err != nil {
			return fmt.Errorf("warm client %d: %v", i, err)
		}
		for iter := 0; iter < warmIters; iter++ {
			edited := fmt.Sprintf("%s\n// farm edit c%d i%d\n", main, i, iter)
			if _, err := c.Edit(sess, subj.MainFile, edited); err != nil {
				return fmt.Errorf("warm client %d iter %d: %v", i, iter, err)
			}
			if _, err := c.Cycle(sess, ""); err != nil {
				return fmt.Errorf("warm client %d iter %d: %v", i, iter, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("warm loop: %v", err)
	}

	// Every node must reproduce the one-shot substitution byte for byte.
	for _, name := range subjects {
		want, paths := oneShotFiles(t, name)
		for _, n := range f.Nodes {
			ok, err := nodeMatchesOneShot(n.URL, name, mode, want, paths)
			if err != nil {
				t.Fatalf("identity %s on %s: %v", name, n.ID, err)
			}
			if !ok {
				t.Errorf("%s: node %s diverged from the one-shot path", name, n.ID)
			}
		}
	}

	var remoteTUHits, compileSamples uint64
	for _, n := range f.Nodes {
		st := n.Server.Cache().Stats()
		remoteTUHits += st.RemoteTUHits
		if st.RemoteErrors != 0 {
			t.Errorf("node %s hit %d remote errors", n.ID, st.RemoteErrors)
		}
		compileSamples += n.Registry.Snapshot().Histograms["buildcache.tier.compile_ms"].Count
	}
	if remoteTUHits == 0 {
		t.Error("no node ever adopted a remote TU; the shared cache did nothing")
	}
	if f.Cache.Stats().Entries == 0 {
		t.Error("cache server holds no entries after the run")
	}
	if compileSamples == 0 {
		t.Error("no compile-tier latency samples recorded")
	}
}

// testClient builds a client whose timeout never fires before the
// server's own request deadline: under -race a hundred clients queue
// behind cold prepares for minutes, and a client-side timeout would
// fail the run for a wait the server allows.
func testClient(base string) *daemon.Client {
	return daemon.NewClientWith(base, daemon.ClientOptions{Timeout: 15 * time.Minute})
}

// fanOut runs fn for clients 0..n-1 concurrently, waits for all of
// them, and returns one of their errors.
func fanOut(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fn(i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// fleetStats sums the build-cache counters of every node.
func fleetStats(f *Farm) buildcache.Stats {
	var sum buildcache.Stats
	for _, n := range f.Nodes {
		st := n.Server.Cache().Stats()
		sum.TUMisses += st.TUMisses
		sum.LeaseGrants += st.LeaseGrants
		sum.LeaseWaits += st.LeaseWaits
	}
	return sum
}

// oneShotFiles runs the direct (daemon-less) substitution for a subject
// and returns its output files — the ground truth every farm node must
// reproduce byte-for-byte.
func oneShotFiles(t *testing.T, subjectName string) (map[string]string, []string) {
	t.Helper()
	subj := corpus.ByName(subjectName)
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
		t.Fatalf("one-shot %s: %v", subjectName, err)
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
			t.Fatalf("one-shot %s: %v", subjectName, err)
		}
		want[p] = content
	}
	return want, paths
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

// TestFarmSessionRoutingAndHealth checks the fleet wiring without load:
// sessions land on their ring owner, /healthz aggregates node identity
// and remote-cache reachability, and Stop drains cleanly.
func TestFarmSessionRoutingAndHealth(t *testing.T) {
	f, err := StartLocal(LocalConfig{Nodes: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	c := daemon.NewClient(f.RouterURL)
	if _, err := c.CreateSession("routed", "02", "yalla"); err != nil {
		t.Fatalf("create through router: %v", err)
	}
	owner := f.Node("routed")
	if owner == nil {
		t.Fatal("no owner for session")
	}
	// The session must live on its owner, reachable directly.
	direct := daemon.NewClient(owner.URL)
	if _, err := direct.Substitute("routed", false); err != nil {
		t.Fatalf("session not on owning node %s: %v", owner.ID, err)
	}

	// Node healthz reports farm identity and L2 reachability.
	h, err := direct.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h["node"] != owner.ID {
		t.Errorf("healthz node = %v, want %s", h["node"], owner.ID)
	}
	if h["remote_cache"] != "ok" {
		t.Errorf("healthz remote_cache = %v", h["remote_cache"])
	}
}
