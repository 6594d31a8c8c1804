package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// These tests exercise the daemon's error paths at the unit level — no
// HTTP server, no client — complementing the end-to-end tests in
// daemon_test.go.

func TestCreateSessionForValidation(t *testing.T) {
	srv := New(Config{})
	subj := corpus.All()[0]
	if _, err := srv.CreateSessionFor("", subj, "yalla"); err == nil {
		t.Error("empty session name accepted")
	}
	if _, err := srv.CreateSessionFor("s", nil, "yalla"); err == nil {
		t.Error("nil subject accepted")
	}
	if _, err := srv.CreateSessionFor("s", subj, "no-such-mode"); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := srv.CreateSessionFor("s", subj, "yalla"); err != nil {
		t.Fatalf("valid create failed: %v", err)
	}
	if _, err := srv.CreateSessionFor("s", subj, "yalla"); err == nil {
		t.Error("duplicate session name accepted")
	}
}

// TestCreateSessionForGeneratedSubject drives a full session lifecycle
// over a fuzz-generated subject, the way the differential harness's
// paths oracle does.
func TestCreateSessionForGeneratedSubject(t *testing.T) {
	srv := New(Config{})
	p := fuzzgen.Generate(fuzzgen.Config{Seed: 4})
	sess, err := srv.CreateSessionFor("gen", difftestSubject(p), "yalla")
	if err != nil {
		t.Fatalf("CreateSessionFor: %v", err)
	}
	res, err := sess.Substitute(context.Background(), nil)
	if err != nil {
		t.Fatalf("Substitute: %v", err)
	}
	if len(res.Files) == 0 {
		t.Fatal("substitution produced no files")
	}
}

// difftestSubject mirrors difftest.SubjectFor without importing the
// package (difftest imports daemon; the dependency cannot go both
// ways).
func difftestSubject(p *fuzzgen.Program) *corpus.Subject {
	fs := vfs.New()
	paths := make([]string, 0, len(p.Files))
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fs.Write(path, p.Files[path])
	}
	return &corpus.Subject{
		Name:                "gen-" + p.Name,
		Library:             "Fuzz",
		FS:                  fs,
		MainFile:            p.MainFile,
		Sources:             []string{p.MainFile},
		Header:              p.Header,
		SearchPaths:         p.SearchPaths,
		KernelIters:         4,
		WrapperCallsPerIter: 2,
	}
}

// TestHeaderEditInvalidatesPreparedSetup is the staleness state
// machine, unit level: source edits keep the prepared setup; header
// (structural) edits mark it stale and force a re-prepare on the next
// cycle.
func TestHeaderEditInvalidatesPreparedSetup(t *testing.T) {
	srv := New(Config{})
	sess, err := srv.CreateSessionFor("stale", corpus.All()[0], "yalla")
	if err != nil {
		t.Fatalf("CreateSessionFor: %v", err)
	}
	ctx := context.Background()

	cr, err := sess.Cycle(ctx, nil, "")
	if err != nil {
		t.Fatalf("first cycle: %v", err)
	}
	if !cr.Prepared {
		t.Fatal("first cycle did not prepare")
	}

	// Non-structural: editing a source file must not invalidate.
	src := sess.subject.Sources[0]
	content, err := sess.ReadFile(src)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", src, err)
	}
	er := sess.Edit(src, content+"\n// touched\n")
	if !er.Changed || er.Structural || er.Invalidated {
		t.Fatalf("source edit classified %+v, want changed non-structural", er)
	}
	if cr, err = sess.Cycle(ctx, nil, ""); err != nil || cr.Prepared {
		t.Fatalf("cycle after source edit: prepared=%v err=%v (want no re-prepare)", cr.Prepared, err)
	}

	// No-op save: identical content changes nothing.
	content, _ = sess.ReadFile(src)
	if er = sess.Edit(src, content); er.Changed {
		t.Fatalf("no-op save classified %+v, want unchanged", er)
	}

	// Structural but benign: a comment-only header edit is proven
	// interface-neutral by the decl-level diff (early cutoff) and keeps
	// the prepared setup live.
	hdrPath := headerPathOf(sess)
	hc, err := sess.ReadFile(hdrPath)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", hdrPath, err)
	}
	er = sess.Edit(hdrPath, hc+"\n// structural comment\n")
	if !er.Changed || !er.Structural || er.Invalidated || !er.EarlyCutoff {
		t.Fatalf("comment header edit classified %+v, want structural early-cutoff", er)
	}
	if sess.Info().Stale {
		t.Fatal("session stale after a benign header edit")
	}
	if cr, err = sess.Cycle(ctx, nil, ""); err != nil || cr.Prepared {
		t.Fatalf("cycle after benign header edit: prepared=%v err=%v (want no re-prepare)", cr.Prepared, err)
	}

	// Structural and interface-changing: a macro definition lands in
	// the conservative bucket and invalidates the setup.
	hc, _ = sess.ReadFile(hdrPath)
	er = sess.Edit(hdrPath, hc+"\n#define DAEMON_TEST_STRUCTURAL 1\n")
	if !er.Changed || !er.Structural || !er.Invalidated {
		t.Fatalf("macro header edit classified %+v, want structural+invalidated", er)
	}
	if !sess.Info().Stale {
		t.Fatal("session not stale after structural edit")
	}
	if cr, err = sess.Cycle(ctx, nil, ""); err != nil || !cr.Prepared {
		t.Fatalf("cycle after header edit: prepared=%v err=%v (want re-prepare)", cr.Prepared, err)
	}

	info := sess.Info()
	if info.Invalidations != 1 || info.Prepares != 2 {
		t.Fatalf("info = %+v, want 1 invalidation and 2 prepares", info)
	}
}

// headerPathOf finds the subject's substituted header in the session
// tree (subjects store the header basename; the file lives under a
// search path).
func headerPathOf(s *Session) string {
	for _, dir := range s.subject.SearchPaths {
		p := dir + "/" + s.subject.Header
		if _, err := s.ReadFile(p); err == nil {
			return p
		}
	}
	return s.subject.Header
}

func TestAcquireSlotQueueTimeout(t *testing.T) {
	srv := New(Config{Workers: 1, QueueTimeout: 20 * time.Millisecond})
	srv.slots <- struct{}{} // saturate the pool
	start := time.Now()
	err := srv.acquireSlot(context.Background())
	if err != errQueueTimeout {
		t.Fatalf("acquireSlot = %v, want errQueueTimeout", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("rejected after %v, before the queue timeout", d)
	}
	// Free the slot: acquisition succeeds immediately again.
	srv.releaseSlot()
	if err := srv.acquireSlot(context.Background()); err != nil {
		t.Fatalf("acquireSlot after release: %v", err)
	}
	srv.releaseSlot()
}

func TestAcquireSlotContextCanceled(t *testing.T) {
	srv := New(Config{Workers: 1, QueueTimeout: time.Minute})
	srv.slots <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.acquireSlot(ctx); err != context.Canceled {
		t.Fatalf("acquireSlot = %v, want context.Canceled", err)
	}
}

// TestPooledMapsQueueTimeoutTo503 checks the HTTP status mapping of the
// worker-pool guard without a network server: a saturated pool rejects
// with 503, a canceled request maps to 504, and the wrapped handler
// never runs in either case.
func TestPooledMapsQueueTimeoutTo503(t *testing.T) {
	srv := New(Config{Workers: 1, QueueTimeout: 10 * time.Millisecond})
	srv.slots <- struct{}{}
	ran := false
	h := srv.pooled(func(w http.ResponseWriter, r *http.Request, o *obs.Obs) int {
		ran = true
		return http.StatusOK
	})

	w := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sessions/x/cycle", nil)
	if st := h(w, req, nil); st != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d, want 503", st)
	}
	if !strings.Contains(w.Body.String(), "worker pool saturated") {
		t.Fatalf("503 body = %q", w.Body.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w = httptest.NewRecorder()
	if st := h(w, req.WithContext(ctx), nil); st != http.StatusGatewayTimeout {
		t.Fatalf("canceled request: status %d, want 504", st)
	}
	if ran {
		t.Fatal("handler ran despite rejection")
	}

	srv.releaseSlot()
	w = httptest.NewRecorder()
	if st := h(w, req, nil); st != http.StatusOK || !ran {
		t.Fatalf("free pool: status %d ran=%v", st, ran)
	}
}

// TestComputeErrorStatusMapping checks deadline/cancel → 504 and other
// failures → 500.
func TestComputeErrorStatusMapping(t *testing.T) {
	srv := New(Config{})
	req := httptest.NewRequest("POST", "/v1/sessions/x/cycle", nil)

	w := httptest.NewRecorder()
	if st := srv.computeError(w, req, context.DeadlineExceeded); st != 504 || w.Code != 504 {
		t.Fatalf("deadline: status %d body %q", w.Code, w.Body.String())
	}
	w = httptest.NewRecorder()
	if st := srv.computeError(w, req, context.Canceled); st != 504 {
		t.Fatalf("canceled: status %d", st)
	}
	w = httptest.NewRecorder()
	if st := srv.computeError(w, req, errQueueTimeout); st != 500 {
		t.Fatalf("other error: status %d", st)
	}
	if !strings.Contains(w.Body.String(), "worker pool saturated") {
		t.Fatalf("error body lost: %q", w.Body.String())
	}
}

// TestCycleRespectsExpiredDeadline: a request whose deadline already
// passed must fail with the deadline error before doing any work.
func TestCycleRespectsExpiredDeadline(t *testing.T) {
	srv := New(Config{})
	sess, err := srv.CreateSessionFor("deadline", corpus.All()[0], "yalla")
	if err != nil {
		t.Fatalf("CreateSessionFor: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := sess.Cycle(ctx, nil, ""); err != context.DeadlineExceeded {
		t.Fatalf("Cycle = %v, want context.DeadlineExceeded", err)
	}
}
