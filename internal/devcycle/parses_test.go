package devcycle

import (
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// TestYallaPrepareParseCounts is the deterministic guard on the warm
// path: it counts parser runs (the parser.units counter) around Yalla
// Prepares that share one build cache. A cold Prepare parses each tool
// source once (the probe compile of the main file reuses the tool's
// unit), the wrappers TU and the substituted main file; a warm Prepare
// parses nothing. A change that re-parses on the warm path fails here
// without any wall-clock timing.
func TestYallaPrepareParseCounts(t *testing.T) {
	for _, tc := range []struct {
		subject    string
		cold, warm uint64
	}{
		{"archiver", 3, 0},
		{"02", 4, 0},
	} {
		s := corpus.ByName(tc.subject)
		reg := obs.NewRegistry()
		cfg := Config{Cache: buildcache.New(), Obs: obs.New(nil, reg)}
		units := reg.Counter("parser.units")
		for i, want := range []uint64{tc.cold, tc.warm} {
			before := units.Value()
			if _, err := PrepareWith(s, Yalla, cfg); err != nil {
				t.Fatalf("%s Prepare %d: %v", tc.subject, i, err)
			}
			if got := units.Value() - before; got != want {
				t.Errorf("%s Prepare %d parsed %d units, want %d", tc.subject, i, got, want)
			}
		}
	}
}
