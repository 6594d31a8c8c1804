package experiments

import (
	"os"
	"path/filepath"
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
