package experiments

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"repro/internal/buildcache"
)

// TestFrontendSpeedPassByteIdentical pins the frontend speed pass
// (interned identifiers, arena ASTs, zero-copy cached token streams,
// lazy positions, parallel per-file lexing) to the committed paper
// artifacts: a full-matrix run must reproduce every results/*.csv file
// byte for byte, with the build cache off and on. The goldens were
// produced by the pre-pass frontend, so any optimization that shifts a
// single virtual time, LOC count, or header count fails here.
func TestFrontendSpeedPassByteIdentical(t *testing.T) {
	// The cache-on pass holds about 4 GB when the collector starts its
	// last cycle here, which sets the next heap goal near 8 GB: the tests
	// after this one would grow the heap that far before collecting.
	// Free the pass's memory before they run.
	t.Cleanup(debug.FreeOSMemory)
	goldenDir := filepath.Join("..", "..", "results")

	check := func(label string, bc *buildcache.Cache) {
		t.Helper()
		results, err := RunAllWith(RunConfig{Jobs: 4, Cache: bc})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for name, got := range CSVs(results) {
			want, err := os.ReadFile(filepath.Join(goldenDir, name))
			if err != nil {
				t.Fatalf("%s: reading golden %s: %v", label, name, err)
			}
			if got != string(want) {
				t.Errorf("%s: %s is not byte-identical to the committed golden", label, name)
			}
		}
		for name, got := range Traces(results) {
			want, err := os.ReadFile(filepath.Join(goldenDir, "traces", name))
			if err != nil {
				t.Fatalf("%s: reading golden trace %s: %v", label, name, err)
			}
			if got != string(want) {
				t.Errorf("%s: trace %s is not byte-identical to the committed golden", label, name)
			}
		}
	}

	check("cache off", nil)
	if t.Failed() {
		return
	}
	check("cache on", buildcache.New())
}
