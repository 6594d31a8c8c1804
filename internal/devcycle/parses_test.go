package devcycle

import (
	"reflect"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// TestYallaPrepareParseCounts is the deterministic guard on the warm
// path: it counts parser runs (the parser.units counter) and symbol
// tables built (sema.units, one per tree a table is built over) around
// Yalla Prepares that share one build cache. A cold Prepare parses each
// tool source once (the probe compile of the main file reuses the tool's
// unit), the wrappers TU and the substituted main file, and builds the
// tool's table over its sources; a warm Prepare parses nothing and finds
// the table memoized on the cached trees. A change that re-parses or
// rebuilds a table on the warm path fails here without any wall-clock
// timing.
//
// The revert case edits archiver's header between Prepares on one
// overlay. The edit gives the tool unit and the wrappers new variants,
// which release the pristine variants' trees; restoring the header
// validates the pristine variants again, and only the tool unit, whose
// tree the tool reads, is re-parsed. The re-parsed tree gets a table of
// its own. The generated files come out byte-identical to the pristine
// Prepare's.
func TestYallaPrepareParseCounts(t *testing.T) {
	type counts struct{ parses, tables uint64 }
	for _, tc := range []struct {
		subject    string
		cold, warm counts
	}{
		{"archiver", counts{3, 1}, counts{0, 0}},
		{"02", counts{4, 2}, counts{0, 0}},
	} {
		s := corpus.ByName(tc.subject)
		reg := obs.NewRegistry()
		cfg := Config{Cache: buildcache.New(), Obs: obs.New(nil, reg)}
		units, tables := reg.Counter("parser.units"), reg.Counter("sema.units")
		for i, want := range []counts{tc.cold, tc.warm} {
			before := counts{units.Value(), tables.Value()}
			if _, err := PrepareWith(s, Yalla, cfg); err != nil {
				t.Fatalf("%s Prepare %d: %v", tc.subject, i, err)
			}
			if got := (counts{units.Value() - before.parses, tables.Value() - before.tables}); got != want {
				t.Errorf("%s Prepare %d parsed %d units and built tables over %d, want %d and %d",
					tc.subject, i, got.parses, got.tables, want.parses, want.tables)
			}
		}
	}

	s := corpus.ByName("archiver")
	reg := obs.NewRegistry()
	units, tables := reg.Counter("parser.units"), reg.Counter("sema.units")
	fs := s.FS.Overlay()
	cfg := Config{FS: fs, Cache: buildcache.New(), Obs: obs.New(nil, reg)}
	hdr, err := resolveHeader(fs, s)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := fs.Read(hdr)
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]string
	for i, step := range []struct {
		name, header string
		want         counts
	}{
		{"pristine", pristine, counts{3, 1}},
		{"header edit", pristine + "\n#define ARCHIVER_REVERT_PROBE 1\n", counts{2, 1}},
		{"header restored", pristine, counts{1, 1}},
	} {
		fs.Write(hdr, step.header)
		before := counts{units.Value(), tables.Value()}
		st, err := PrepareWith(s, Yalla, cfg)
		if err != nil {
			t.Fatalf("%s Prepare: %v", step.name, err)
		}
		if got := (counts{units.Value() - before.parses, tables.Value() - before.tables}); got != step.want {
			t.Errorf("%s Prepare parsed %d units and built tables over %d, want %d and %d",
				step.name, got.parses, got.tables, step.want.parses, step.want.tables)
		}
		generated := map[string]string{}
		for _, p := range st.FS.Glob(s.OutDir()) {
			if generated[p], err = st.FS.Read(p); err != nil {
				t.Fatal(err)
			}
		}
		switch {
		case i == 0 && len(generated) == 0:
			t.Fatalf("%s Prepare generated nothing under %s", step.name, s.OutDir())
		case i == 0:
			first = generated
		case step.header == pristine && !reflect.DeepEqual(generated, first):
			t.Errorf("%s Prepare generated files that differ from the pristine Prepare's", step.name)
		}
	}
}
