package devcycle

import (
	"reflect"
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
//
// The revert case edits archiver's header between Prepares on one
// overlay. The edit gives the tool unit and the wrappers new variants,
// which release the pristine variants' trees; restoring the header
// validates the pristine variants again, and only the tool unit, whose
// tree the tool reads, is re-parsed. The generated files come out
// byte-identical to the pristine Prepare's.
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

	s := corpus.ByName("archiver")
	reg := obs.NewRegistry()
	units := reg.Counter("parser.units")
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
		want         uint64
	}{
		{"pristine", pristine, 3},
		{"header edit", pristine + "\n#define ARCHIVER_REVERT_PROBE 1\n", 2},
		{"header restored", pristine, 1},
	} {
		fs.Write(hdr, step.header)
		before := units.Value()
		st, err := PrepareWith(s, Yalla, cfg)
		if err != nil {
			t.Fatalf("%s Prepare: %v", step.name, err)
		}
		if got := units.Value() - before; got != step.want {
			t.Errorf("%s Prepare parsed %d units, want %d", step.name, got, step.want)
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
