package daemon

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
)

// These tests pin the concurrency and no-op contracts of the decl-level
// invalidation (early cutoff) machinery: a byte-identical header save
// is free, and concurrent edits and rebuilds never corrupt the shared
// decl graph or leave stale artifacts behind.

// TestTouchOnlyHeaderSaveRebuildsNothing: saving a header with
// byte-identical content must not diff a single declaration, must not
// invalidate, and the next cycle must neither re-prepare nor recompile
// wrappers — the warm no-op the editor's save-on-focus-loss habit
// depends on.
func TestTouchOnlyHeaderSaveRebuildsNothing(t *testing.T) {
	srv := New(Config{})
	sess, err := srv.CreateSessionFor("touch", corpus.All()[0], "yalla")
	if err != nil {
		t.Fatalf("CreateSessionFor: %v", err)
	}
	ctx := context.Background()
	if cr, err := sess.Cycle(ctx, nil, ""); err != nil || !cr.Prepared {
		t.Fatalf("first cycle: prepared=%v err=%v", cr != nil && cr.Prepared, err)
	}

	hdr := headerPathOf(sess)
	hc, err := sess.ReadFile(hdr)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", hdr, err)
	}
	er := sess.Edit(hdr, hc)
	if er.Changed || er.Structural || er.Invalidated || er.EarlyCutoff || er.DeclsDiffed != 0 {
		t.Fatalf("touch-only header save classified %+v, want all-zero", er)
	}
	info := sess.Info()
	if info.Edits != 0 || info.Invalidations != 0 || info.EarlyCutoffHits != 0 || info.DeclsDiffed != 0 {
		t.Fatalf("touch-only save moved counters: %+v", info)
	}
	cr, err := sess.Cycle(ctx, nil, "")
	if err != nil || cr.Prepared || cr.WrappersMs != 0 {
		t.Fatalf("cycle after touch-only save: %+v err=%v (want warm no-op)", cr, err)
	}
	if info := sess.Info(); info.Prepares != 1 || info.WrapperRecompiles != 0 {
		t.Fatalf("touch-only save rebuilt something: %+v", info)
	}
}

// TestConcurrentEditsAndCyclesRace hammers one session's shared decl
// graph from many goroutines — benign comment edits, interface (macro)
// edits, full cycles, info/state readers — under the race detector,
// including edits landing mid-rebuild. Afterwards the session settles
// on a final tree and its surviving generated artifacts must be
// byte-identical to a cold one-shot build of that tree: whatever
// interleaving happened, nothing stale may have been kept.
func TestConcurrentEditsAndCyclesRace(t *testing.T) {
	srv := New(Config{Workers: 4})
	subj := corpus.All()[0]
	sess, err := srv.CreateSessionFor("race", subj, "yalla")
	if err != nil {
		t.Fatalf("CreateSessionFor: %v", err)
	}
	ctx := context.Background()
	if _, err := sess.Cycle(ctx, nil, ""); err != nil {
		t.Fatalf("first cycle: %v", err)
	}
	hdr := headerPathOf(sess)
	base, err := sess.ReadFile(hdr)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", hdr, err)
	}

	const iters = 6
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // benign header edits, racing the rebuilds below
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sess.Edit(hdr, fmt.Sprintf("%s\n// race comment %d\n", base, i))
		}
	}()
	go func() { // interface edits followed by the re-prepare they force
		defer wg.Done()
		for i := 0; i < 3; i++ { // each forces a full re-prepare; keep it cheap
			sess.Edit(hdr, fmt.Sprintf("%s\n#define YALLA_RACE_%d 1\n", base, i))
			if _, err := sess.Cycle(ctx, nil, ""); err != nil {
				t.Errorf("macro cycle %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // plain rebuilds, so edits land mid-cycle
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := sess.Cycle(ctx, nil, ""); err != nil {
				t.Errorf("cycle %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // readers of the same shared state
		defer wg.Done()
		for i := 0; i < iters; i++ {
			sess.Info()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Settle on a known final tree (a benign edit over the pristine
	// header) and run one more cycle; early cutoff may keep artifacts
	// from any of the interleaved prepares above.
	final := base + "\n// race final\n"
	sess.Edit(hdr, final)
	if _, err := sess.Cycle(ctx, nil, ""); err != nil {
		t.Fatalf("final cycle: %v", err)
	}

	// Cold one-shot build of the same final tree, via the exact options
	// the session path uses.
	fs := subj.FS.Overlay()
	fs.Write(hdr, final)
	sub, err := core.Substitute(core.Options{
		FS:          fs,
		SearchPaths: subj.SearchPaths,
		Sources:     subj.Sources,
		Header:      subj.Header,
		OutDir:      subj.OutDir(),
	})
	if err != nil {
		t.Fatalf("cold substitute: %v", err)
	}
	paths := []string{sub.LightweightPath, sub.WrappersPath}
	for _, p := range sub.ModifiedSources {
		paths = append(paths, p)
	}
	for _, p := range paths {
		want, err := fs.Read(p)
		if err != nil {
			t.Fatalf("cold build missing %q: %v", p, err)
		}
		got, err := sess.ReadFile(p)
		if err != nil {
			t.Fatalf("session missing generated %q: %v", p, err)
		}
		if got != want {
			t.Errorf("generated %q diverged from the cold one-shot build after concurrent edits", p)
		}
	}
}
