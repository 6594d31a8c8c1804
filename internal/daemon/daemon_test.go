package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/buildcache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// startServer runs an in-process daemon on a loopback listener and
// returns its base URL plus a shutdown func that drains it.
func startServer(t *testing.T, cfg Config) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	shutdown := func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}
	return "http://" + ln.Addr().String(), srv, shutdown
}

func TestSessionLifecycleAndErrors(t *testing.T) {
	base, _, shutdown := startServer(t, Config{})
	defer shutdown()
	c := NewClient(base)

	info, err := c.CreateSession("dev", "02", "yalla")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if info.Subject != "02" || info.Mode != "Yalla" || info.Prepared {
		t.Fatalf("unexpected info: %+v", info)
	}

	if _, err := c.CreateSession("dev", "02", "yalla"); err == nil ||
		!strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate create: want 409, got %v", err)
	}
	if _, err := c.CreateSession("x", "no-such-subject", ""); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("unknown subject: want 400, got %v", err)
	}
	if _, err := c.CreateSession("x", "02", "turbo"); err == nil ||
		!strings.Contains(err.Error(), "unknown mode") {
		t.Fatalf("unknown mode: want error, got %v", err)
	}
	if _, err := c.Cycle("ghost", ""); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatalf("cycle on missing session: want 404, got %v", err)
	}

	if err := c.CloseSession("dev"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := c.CloseSession("dev"); err == nil {
		t.Fatal("double close: want error")
	}
}

// TestConcurrentClientsEditRebuild is the acceptance test: at least 8
// concurrent clients editing and rebuilding in the same session pool,
// over real HTTP, under -race.
func TestConcurrentClientsEditRebuild(t *testing.T) {
	// Cold prepares are CPU-heavy under -race; the queue timeout must
	// comfortably cover clients waiting behind them.
	base, srv, shutdown := startServer(t, Config{
		Workers:        4,
		QueueTimeout:   5 * time.Minute,
		RequestTimeout: 5 * time.Minute,
		Registry:       obs.NewRegistry(),
	})
	defer shutdown()

	const clients = 10
	const iters = 4
	subjects := []string{"02", "team_policy", "archiver", "drawing", "chat_server"}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(base)
			name := fmt.Sprintf("c%d", i)
			subjName := subjects[i%len(subjects)]
			if _, err := c.CreateSession(name, subjName, ""); err != nil {
				errs <- fmt.Errorf("client %d create: %v", i, err)
				return
			}
			sess := srv.Session(name)
			main := sess.subject.MainFile
			content, err := c.ReadFile(name, main)
			if err != nil {
				errs <- fmt.Errorf("client %d read: %v", i, err)
				return
			}
			for k := 0; k < iters; k++ {
				edited := fmt.Sprintf("%s\n// edit %d/%d\n", content, i, k)
				ed, err := c.Edit(name, main, edited)
				if err != nil {
					errs <- fmt.Errorf("client %d edit %d: %v", i, k, err)
					return
				}
				if !ed.Changed || ed.Structural {
					errs <- fmt.Errorf("client %d edit %d: unexpected result %+v", i, k, ed)
					return
				}
				res, err := c.Cycle(name, "")
				if err != nil {
					errs <- fmt.Errorf("client %d cycle %d: %v", i, k, err)
					return
				}
				// Only the first iteration pays a prepare; source edits
				// must stay on the warm path.
				if (k == 0) != res.Prepared {
					errs <- fmt.Errorf("client %d cycle %d: prepared=%v", i, k, res.Prepared)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	for i := 0; i < clients; i++ {
		info := srv.Session(fmt.Sprintf("c%d", i)).Info()
		if info.Cycles != iters || info.Edits != iters || info.Prepares != 1 {
			t.Errorf("client %d: cycles=%d edits=%d prepares=%d, want %d/%d/1",
				i, info.Cycles, info.Edits, info.Prepares, iters, iters)
		}
	}
}

// TestSubstituteByteIdenticalToOneShot checks the acceptance criterion
// that the daemon's substitution output matches the one-shot cmd/yalla
// path byte for byte.
func TestSubstituteByteIdenticalToOneShot(t *testing.T) {
	base, _, shutdown := startServer(t, Config{})
	defer shutdown()
	c := NewClient(base)
	for i, subj := range []string{"02", "team_policy", "archiver", "drawing", "chat_server"} {
		ok, err := substitutionIdentical(c, fmt.Sprintf("id%d", i), subj, "")
		if err != nil {
			t.Fatalf("%s: %v", subj, err)
		}
		if !ok {
			t.Errorf("%s: daemon substitution differs from one-shot output", subj)
		}
	}
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

func TestSubstituteMemoAndEditInvalidation(t *testing.T) {
	base, srv, shutdown := startServer(t, Config{})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("s", "archiver", ""); err != nil {
		t.Fatal(err)
	}
	first, err := c.Substitute("s", false)
	if err != nil {
		t.Fatal(err)
	}
	if first.Memoized {
		t.Error("first substitute claims memoized")
	}
	if len(first.Files) != 0 {
		t.Error("contents returned without include_content")
	}
	second, err := c.Substitute("s", false)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Memoized {
		t.Error("second substitute not memoized")
	}

	// An edit changes the state key; the memo must not be served.
	sess := srv.Session("s")
	main := sess.subject.MainFile
	content, err := c.ReadFile("s", main)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edit("s", main, content+"\n// changed\n"); err != nil {
		t.Fatal(err)
	}
	third, err := c.Substitute("s", false)
	if err != nil {
		t.Fatal(err)
	}
	if third.Memoized {
		t.Error("substitute after edit served stale memo")
	}

	// A no-op save (identical content hash) keeps the memo valid.
	cur, err := c.ReadFile("s", main)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := c.Edit("s", main, cur)
	if err != nil {
		t.Fatal(err)
	}
	if ed.Changed {
		t.Error("no-op save reported as a change")
	}
	fourth, err := c.Substitute("s", false)
	if err != nil {
		t.Fatal(err)
	}
	if !fourth.Memoized {
		t.Error("no-op save invalidated the memo")
	}
}

func TestStructuralEditForcesReprepare(t *testing.T) {
	base, srv, shutdown := startServer(t, Config{})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("s", "drawing", ""); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Cycle("s", ""); err != nil || !res.Prepared {
		t.Fatalf("first cycle: res=%+v err=%v", res, err)
	}

	// Source edit: warm path, no re-prepare.
	sess := srv.Session("s")
	main := sess.subject.MainFile
	content, _ := c.ReadFile("s", main)
	if _, err := c.Edit("s", main, content+"\n// tweak\n"); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Cycle("s", ""); err != nil || res.Prepared {
		t.Fatalf("cycle after source edit: res=%+v err=%v", res, err)
	}

	// Comment-only header edit: structural, but the decl-level diff
	// proves it benign — the setup stays live (early cutoff).
	header := sess.subject.Header
	hContent, err := c.ReadFile("s", header)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := c.Edit("s", header, hContent+"\n// header touched\n")
	if err != nil {
		t.Fatal(err)
	}
	if !ed.Structural || ed.Invalidated || !ed.EarlyCutoff {
		t.Fatalf("comment header edit: want structural early-cutoff, got %+v", ed)
	}
	if res, err := c.Cycle("s", ""); err != nil || res.Prepared {
		t.Fatalf("cycle after benign header edit: res=%+v err=%v", res, err)
	}

	// Macro header edit: interface-level, invalidates the prepared setup.
	hContent, _ = c.ReadFile("s", header)
	ed, err = c.Edit("s", header, hContent+"\n#define DAEMON_TEST_IFACE 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if !ed.Structural || !ed.Invalidated {
		t.Fatalf("macro header edit: want structural+invalidated, got %+v", ed)
	}
	if res, err := c.Cycle("s", ""); err != nil || !res.Prepared {
		t.Fatalf("cycle after header edit: res=%+v err=%v", res, err)
	}
	if info := sess.Info(); info.Invalidations != 1 || info.Prepares != 2 || info.EarlyCutoffHits != 1 {
		t.Errorf("info: %+v, want 1 invalidation, 2 prepares, 1 early cutoff", info)
	}
}

// TestConcurrentSubstituteIdenticalState drives many concurrent
// substitution requests across sessions in an identical state; all must
// return the same result and every session tree must hold the files.
func TestConcurrentSubstituteIdenticalState(t *testing.T) {
	base, srv, shutdown := startServer(t, Config{Workers: 8, Registry: obs.NewRegistry()})
	defer shutdown()
	const n = 8
	var wg sync.WaitGroup
	results := make([]*SubstituteResult, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(base)
			name := fmt.Sprintf("twin%d", i)
			if _, err := c.CreateSession(name, "capitalize", ""); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = c.Substitute(name, true)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("twin %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i].Files, results[0].Files) {
			t.Errorf("twin %d files differ from twin 0", i)
		}
	}
	// Whether a given request computed, memo-hit, or waited on the
	// flight, its session tree must contain the generated files.
	for i := 0; i < n; i++ {
		sess := srv.Session(fmt.Sprintf("twin%d", i))
		for p, want := range results[0].Files {
			got, err := sess.ReadFile(p)
			if err != nil || got != want {
				t.Errorf("twin %d: generated file %s missing or differs (%v)", i, p, err)
			}
		}
	}
}

func TestWorkerPoolQueueTimeout(t *testing.T) {
	base, srv, shutdown := startServer(t, Config{
		Workers:      1,
		QueueTimeout: 50 * time.Millisecond,
		Registry:     obs.NewRegistry(),
	})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("s", "02", ""); err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot so the next compute request queues
	// until the timeout rejects it.
	srv.slots <- struct{}{}
	defer func() { <-srv.slots }()
	_, err := c.Cycle("s", "")
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("want 503 from saturated pool, got %v", err)
	}
}

func TestRequestTimeout(t *testing.T) {
	base, _, shutdown := startServer(t, Config{RequestTimeout: time.Nanosecond})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("s", "02", ""); err != nil {
		t.Fatal(err)
	}
	_, err := c.Cycle("s", "")
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("want 504 from expired deadline, got %v", err)
	}
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	base, _, shutdown := startServer(t, Config{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(nil),
	})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("s", "condense", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cycle("s", ""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()
	if snap.Counters["daemon.requests"] == 0 {
		t.Error("daemon.requests counter not reported")
	}
	if snap.Counters["daemon.cycles.cold"] == 0 {
		t.Error("daemon.cycles.cold counter not reported")
	}

	// /trace must export completed (sealed) request lanes as valid
	// Chrome trace JSON while the server is still live.
	resp, err = http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	resp.Body.Close()
	found := false
	for _, ev := range trace.TraceEvents {
		if ev["name"] == "request" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no request span in /trace export")
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// TestGracefulDrain cancels the run context while a request is queued:
// shutdown must let it finish successfully instead of aborting it.
func TestGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueTimeout: time.Minute, DrainTimeout: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	c := NewClient(base)
	if h, err := c.Health(); err != nil || h["draining"] != false || h["status"] != "ok" {
		t.Errorf("pre-drain health = %v, %v; want status ok, draining false", h, err)
	}
	if _, err := c.CreateSession("s", "02", ""); err != nil {
		t.Fatal(err)
	}
	// Hold the only worker slot so the cycle request is in flight (in
	// the queue) when shutdown starts.
	srv.slots <- struct{}{}
	cycleErr := make(chan error, 1)
	go func() {
		_, err := c.Cycle("s", "")
		cycleErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the queue
	cancel()                           // begin graceful shutdown
	time.Sleep(50 * time.Millisecond)
	// Mid-drain the health endpoint must answer 503 with the drain
	// flagged in the body. The listener is already closed, so exercise
	// the handler directly.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("mid-drain healthz status = %d, want 503", rec.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || !h.Draining || h.Status != "draining" {
		t.Errorf("mid-drain health body = %s (%v), want draining", rec.Body.String(), err)
	}
	<-srv.slots // free the worker; the queued request must now complete

	if err := <-cycleErr; err != nil {
		t.Errorf("in-flight request aborted during drain: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not shut down")
	}

	if _, err := c.Health(); err == nil {
		t.Error("server still accepting connections after drain")
	}
}

// TestCheckEndpoint drives the safety-pass route: a pristine subject is
// safe, an unsafe edit produces located findings, and the RED metrics
// for the route are reported.
func TestCheckEndpoint(t *testing.T) {
	base, _, shutdown := startServer(t, Config{Registry: obs.NewRegistry()})
	defer shutdown()
	c := NewClient(base)
	if _, err := c.CreateSession("chk", "condense", ""); err != nil {
		t.Fatal(err)
	}

	res, err := c.Check("chk", nil)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(res.Diagnostics) != 0 || res.Verdict != check.Safe {
		t.Fatalf("pristine subject not safe: %+v", res)
	}

	// An edit that subclasses a library type must flip the verdict.
	src, err := c.ReadFile("chk", "src/condense.cpp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Edit("chk", "src/condense.cpp",
		src+"\nclass MyDoc : public rapidjson::Document {};\n"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Check("chk", nil)
	if err != nil {
		t.Fatalf("check after edit: %v", err)
	}
	if res.Verdict != check.Unsafe {
		t.Fatalf("verdict = %v, want unsafe", res.Verdict)
	}
	found := false
	for _, d := range res.Diagnostics {
		if d.Pass == "inherits-library-type" && d.File == "src/condense.cpp" && d.Line > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no located inherits-library-type finding: %+v", res.Diagnostics)
	}

	// Restricting passes must skip the inheritance check.
	res, err = c.Check("chk", []string{"odr-macro-leak"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Fatalf("pass filter ignored: %+v", res.Diagnostics)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["daemon.checks"] != 3 {
		t.Errorf("daemon.checks = %d, want 3", snap.Counters["daemon.checks"])
	}
	if snap.Counters["daemon.requests.check"] != 3 {
		t.Errorf("daemon.requests.check = %d, want 3", snap.Counters["daemon.requests.check"])
	}
	if snap.Counters["daemon.check.findings"] == 0 {
		t.Error("daemon.check.findings not incremented")
	}
}
