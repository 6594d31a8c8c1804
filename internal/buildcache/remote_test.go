package buildcache

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
	"repro/internal/obs"
)

// fakeBackend is an in-memory Backend with real lease semantics: the
// first Lease on a missing key is granted, later ones block until the
// holder Puts or Unleases, then report LeaseReleased.
type fakeBackend struct {
	mu      sync.Mutex
	data    map[string][]byte
	leases  map[string]chan struct{}
	getErr  error
	putErr  error
	gets    atomic.Int64
	puts    atomic.Int64
	leased  atomic.Int64
	corrupt bool // serve garbage payloads
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{data: map[string][]byte{}, leases: map[string]chan struct{}{}}
}

func (b *fakeBackend) Get(ns, key string) ([]byte, bool, error) {
	b.gets.Add(1)
	if b.getErr != nil {
		return nil, false, b.getErr
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.data[ns+"/"+key]
	if ok && b.corrupt {
		return []byte("garbage"), true, nil
	}
	return p, ok, nil
}

func (b *fakeBackend) Put(ns, key string, payload []byte) error {
	b.puts.Add(1)
	if b.putErr != nil {
		return b.putErr
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data[ns+"/"+key] = payload
	if ch, ok := b.leases[ns+"/"+key]; ok {
		close(ch)
		delete(b.leases, ns+"/"+key)
	}
	return nil
}

func (b *fakeBackend) Lease(ns, key string) (LeaseState, error) {
	b.leased.Add(1)
	b.mu.Lock()
	if _, ok := b.data[ns+"/"+key]; ok {
		b.mu.Unlock()
		return LeaseReleased, nil
	}
	if ch, ok := b.leases[ns+"/"+key]; ok {
		b.mu.Unlock()
		select {
		case <-ch:
			return LeaseReleased, nil
		case <-time.After(10 * time.Second):
			return LeaseUnavailable, nil
		}
	}
	b.leases[ns+"/"+key] = make(chan struct{})
	b.mu.Unlock()
	return LeaseGranted, nil
}

func (b *fakeBackend) Unlease(ns, key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ch, ok := b.leases[ns+"/"+key]; ok {
		close(ch)
		delete(b.leases, ns+"/"+key)
	}
	return nil
}

func TestRemoteTokensSharedAcrossCaches(t *testing.T) {
	be := newFakeBackend()
	a, b := New(), New()
	a.Remote, b.Remote = be, be

	const src = "int x = 40 + 2;\n"
	lex := func() ([]token.Token, error) { return lexer.Tokenize("a.cpp", src) }
	fresh, err := a.Tokens("a.cpp", src, lex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Tokens("a.cpp", src, func() ([]token.Token, error) {
		t.Fatal("node B lexed despite a remote hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Fatal("remote token hit differs from the fresh lex")
	}
	if st := a.Stats(); st.RemotePuts != 1 || st.RemoteMisses != 1 || st.RemoteTokenHits != 0 {
		t.Fatalf("node A stats = %+v, want 1 put / 1 remote miss", st)
	}
	if st := b.Stats(); st.RemoteTokenHits != 1 || st.TokenMisses != 1 {
		t.Fatalf("node B stats = %+v, want 1 remote token hit", st)
	}
}

func TestRemoteTUAdoptedAcrossCaches(t *testing.T) {
	be := newFakeBackend()
	a, b := New(), New()
	a.Remote, b.Remote = be, be
	tu, deps := realTU(t)
	always := func(Dep) bool { return true }
	key := ConfigKey("k")

	val, cached, err := a.TranslationUnit(key, always, func() (*TU, []Dep, error) {
		return tu, deps, nil
	})
	if err != nil || cached {
		t.Fatalf("node A: cached=%v err=%v, want a local build", cached, err)
	}
	got, cached, err := b.TranslationUnit(key, always, func() (*TU, []Dep, error) {
		t.Fatal("node B built despite a remote hit")
		return nil, nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("node B: cached=%v err=%v, want a remote hit", cached, err)
	}
	if !reflect.DeepEqual(val.Result, got.Result) {
		t.Fatal("adopted TU differs from the built one")
	}
	if got.tree.Load() != nil {
		t.Fatal("adoption parsed eagerly; the AST must stay lazy")
	}
	if got.Unit(nil) == nil {
		t.Fatal("adopted TU cannot reconstruct its AST")
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.TUMisses != 1 || sa.LeaseGrants != 1 || sa.RemotePuts != 1 {
		t.Fatalf("node A stats = %+v, want 1 miss / 1 lease grant / 1 put", sa)
	}
	if sb.TUMisses != 0 || sb.RemoteTUHits != 1 {
		t.Fatalf("node B stats = %+v, want 0 misses / 1 remote TU hit", sb)
	}
	// Exactly-once accounting: fleet-wide compiles = sum of TUMisses.
	if sa.TUMisses+sb.TUMisses != 1 {
		t.Fatalf("fleet compiled %d times, want exactly once", sa.TUMisses+sb.TUMisses)
	}

	// Node B's local tier now holds the adopted entry: a second request
	// is an L1 hit, no remote traffic.
	gets := be.gets.Load()
	if _, cached, _ := b.TranslationUnit(key, always, nil); !cached {
		t.Fatal("adopted entry did not populate L1")
	}
	if be.gets.Load() != gets {
		t.Fatal("L1 hit still consulted the remote tier")
	}
}

func TestRemoteLeaseExactlyOnceAcrossFleet(t *testing.T) {
	be := newFakeBackend()
	const nodes = 4
	const clientsPerNode = 8
	caches := make([]*Cache, nodes)
	for i := range caches {
		caches[i] = New()
		caches[i].Remote = be
	}
	tu, deps := realTU(t)
	always := func(Dep) bool { return true }
	key := ConfigKey("k")

	var builds atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range caches {
		for j := 0; j < clientsPerNode; j++ {
			wg.Add(1)
			go func(c *Cache) {
				defer wg.Done()
				<-start
				_, _, err := c.TranslationUnit(key, always, func() (*TU, []Dep, error) {
					builds.Add(1)
					time.Sleep(10 * time.Millisecond) // widen the race window
					return tu, deps, nil
				})
				if err != nil {
					t.Error(err)
				}
			}(c)
		}
	}
	close(start)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("fleet-wide cold miss built %d times, want exactly 1", n)
	}
	var misses, remoteHits, grants uint64
	for _, c := range caches {
		st := c.Stats()
		misses += st.TUMisses
		remoteHits += st.RemoteTUHits
		grants += st.LeaseGrants
	}
	if misses != 1 || grants != 1 {
		t.Fatalf("fleet stats: %d misses / %d lease grants, want 1 / 1", misses, grants)
	}
	if remoteHits != nodes-1 {
		t.Fatalf("remote TU hits = %d, want %d (one adoption per losing node)", remoteHits, nodes-1)
	}
}

func TestRemoteErrorsDegradeToLocal(t *testing.T) {
	be := newFakeBackend()
	be.getErr = errors.New("remote down")
	be.putErr = errors.New("remote down")
	c := New()
	c.Remote = be
	tu, deps := realTU(t)
	always := func(Dep) bool { return true }

	toks, err := c.Tokens("a.cpp", "int x;", func() ([]token.Token, error) {
		return lexer.Tokenize("a.cpp", "int x;")
	})
	if err != nil || len(toks) == 0 {
		t.Fatalf("token path failed with remote down: %v", err)
	}
	val, cached, err := c.TranslationUnit(ConfigKey("k"), always, func() (*TU, []Dep, error) {
		return tu, deps, nil
	})
	if err != nil || cached || val == nil {
		t.Fatalf("TU path failed with remote down: cached=%v err=%v", cached, err)
	}
	if st := c.Stats(); st.RemoteErrors == 0 {
		t.Fatalf("stats = %+v, want remote errors counted", st)
	}
	// The dead backend also failed the lease; the entry must still be
	// served from L1 afterwards.
	if _, cached, _ := c.TranslationUnit(ConfigKey("k"), always, nil); !cached {
		t.Fatal("local tier lost the entry built under a dead remote")
	}
}

func TestRemoteCorruptPayloadFallsBackToBuild(t *testing.T) {
	be := newFakeBackend()
	a, b := New(), New()
	a.Remote, b.Remote = be, be
	tu, deps := realTU(t)
	always := func(Dep) bool { return true }
	key := ConfigKey("k")
	if _, _, err := a.TranslationUnit(key, always, func() (*TU, []Dep, error) {
		return tu, deps, nil
	}); err != nil {
		t.Fatal(err)
	}
	be.corrupt = true
	builds := 0
	val, cached, err := b.TranslationUnit(key, always, func() (*TU, []Dep, error) {
		builds++
		return tu, deps, nil
	})
	if err != nil || val == nil {
		t.Fatalf("corrupt remote payload broke the build: %v", err)
	}
	if cached || builds != 1 {
		t.Fatalf("cached=%v builds=%d, want a local rebuild on corruption", cached, builds)
	}
	if st := b.Stats(); st.RemoteErrors == 0 {
		t.Fatalf("stats = %+v, want the corrupt payload counted as a remote error", st)
	}
}

func TestRemoteStaleManifestIsMiss(t *testing.T) {
	be := newFakeBackend()
	a, b := New(), New()
	a.Remote, b.Remote = be, be
	tu, deps := realTU(t)
	key := ConfigKey("k")
	always := func(Dep) bool { return true }
	never := func(Dep) bool { return false }
	if _, _, err := a.TranslationUnit(key, always, func() (*TU, []Dep, error) {
		return tu, deps, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Node B's tree differs (validator rejects the manifest): the remote
	// entry must not be served; B builds and publishes its own variant.
	builds := 0
	if _, cached, err := b.TranslationUnit(key, never, func() (*TU, []Dep, error) {
		builds++
		return tu, nil, nil
	}); err != nil || cached || builds != 1 {
		t.Fatalf("cached=%v builds=%d err=%v, want a local build on manifest mismatch", cached, builds, err)
	}
	if st := b.Stats(); st.RemoteTUHits != 0 {
		t.Fatalf("stats = %+v, want no remote hit for a stale manifest", st)
	}
}

func TestRemoteMetricsRegisteredOnlyWithBackend(t *testing.T) {
	plain := obs.NewRegistry()
	c := New()
	c.AttachMetrics(obs.New(nil, plain))
	for name := range plain.Snapshot().Counters {
		if strings.HasPrefix(name, "buildcache.remote") || strings.HasPrefix(name, "buildcache.lease") {
			t.Fatalf("remote instrument %q registered without a Backend", name)
		}
	}
	for name := range plain.Snapshot().Histograms {
		if strings.HasPrefix(name, "buildcache.tier") {
			t.Fatalf("tier histogram %q registered without a Backend", name)
		}
	}

	farm := obs.NewRegistry()
	r := New()
	r.Remote = newFakeBackend()
	r.AttachMetrics(obs.New(nil, farm))
	snap := farm.Snapshot()
	for _, want := range []string{
		"buildcache.remote.token_hits", "buildcache.remote.tu_hits",
		"buildcache.remote.misses", "buildcache.remote.puts",
		"buildcache.remote.errors", "buildcache.lease.grants", "buildcache.lease.waits",
	} {
		if _, ok := snap.Counters[want]; !ok {
			t.Fatalf("counter %q missing with a Backend attached", want)
		}
	}
	for _, want := range []string{"buildcache.tier.l1_ms", "buildcache.tier.l2_ms", "buildcache.tier.compile_ms"} {
		if _, ok := snap.Histograms[want]; !ok {
			t.Fatalf("histogram %q missing with a Backend attached", want)
		}
	}
}
