package corpus

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/compilesim"
	"repro/internal/core"
)

func TestAllSubjectsPresent(t *testing.T) {
	subjects := All()
	if len(subjects) != 18 {
		t.Fatalf("subjects = %d, want 18 (Table 2 rows)", len(subjects))
	}
	byLib := map[string]int{}
	for _, s := range subjects {
		byLib[s.Library]++
	}
	want := map[string]int{"PyKokkos": 11, "RapidJSON": 3, "OpenCV": 3, "Boost.Asio": 1}
	for lib, n := range want {
		if byLib[lib] != n {
			t.Errorf("%s subjects = %d, want %d", lib, byLib[lib], n)
		}
	}
}

// TestHeaderPaths pins the one header-resolution order the harness,
// the oracles and the replay share: one cleaned candidate per search
// path, "." meaning the bare header; and every subject's header
// resolves on its own tree.
func TestHeaderPaths(t *testing.T) {
	s := &Subject{Header: "lib/h.hpp", SearchPaths: []string{".", "inc", "a/../b/"}}
	want := []string{"lib/h.hpp", "inc/lib/h.hpp", "b/lib/h.hpp"}
	if got := s.HeaderPaths(); !slices.Equal(got, want) {
		t.Errorf("HeaderPaths = %q, want %q", got, want)
	}
	for _, s := range All() {
		if !slices.ContainsFunc(s.HeaderPaths(), s.FS.Exists) {
			t.Errorf("%s: header %q resolves on none of %q", s.Name, s.Header, s.HeaderPaths())
		}
	}
}

func TestDefaultCompileStats(t *testing.T) {
	// The corpora must land near Table 3's scale.
	cases := []struct {
		name           string
		minLOC, maxLOC int
		minHdr, maxHdr int
	}{
		{"02", 95000, 130000, 520, 640},
		{"archiver", 38000, 56000, 220, 320},
		{"condense", 28000, 40000, 180, 280},
		{"3calibration", 68000, 95000, 300, 420},
		{"drawing", 65000, 92000, 290, 410},
		{"laplace", 66000, 94000, 295, 435},
		{"chat_server", 140000, 200000, 1900, 2300},
	}
	for _, c := range cases {
		s := ByName(c.name)
		if s == nil {
			t.Fatalf("subject %s missing", c.name)
		}
		cc := compilesim.New(s.FS, s.SearchPaths...)
		obj, err := cc.Compile(s.MainFile)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if obj.Stats.LOC < c.minLOC || obj.Stats.LOC > c.maxLOC {
			t.Errorf("%s LOC = %d, want [%d,%d]", c.name, obj.Stats.LOC, c.minLOC, c.maxLOC)
		}
		if obj.Stats.Headers < c.minHdr || obj.Stats.Headers > c.maxHdr {
			t.Errorf("%s Headers = %d, want [%d,%d]", c.name, obj.Stats.Headers, c.minHdr, c.maxHdr)
		}
		if obj.Stats.MissingIncl != 0 {
			t.Errorf("%s has %d missing includes", c.name, obj.Stats.MissingIncl)
		}
	}
}

// TestSubstituteAllSubjects is the pipeline gate: every subject must go
// through Header Substitution and the resulting sources must compile in
// the simulator with a large LOC reduction.
func TestSubstituteAllSubjects(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			fs := s.FS.Clone()
			res, err := core.Substitute(core.Options{
				FS:          fs,
				SearchPaths: s.SearchPaths,
				Sources:     s.Sources,
				Header:      s.Header,
				OutDir:      s.OutDir(),
			})
			if err != nil {
				t.Fatalf("Substitute: %v", err)
			}
			// Compile the transformed main file: OutDir first on the
			// search path so modified headers win.
			paths := append([]string{s.OutDir()}, s.SearchPaths...)
			cc := compilesim.New(fs, paths...)
			mod := res.ModifiedSources[s.MainFile]
			if mod == "" {
				t.Fatalf("main file %s not in ModifiedSources %v", s.MainFile, res.ModifiedSources)
			}
			obj, err := cc.Compile(mod)
			if err != nil {
				t.Fatalf("compile yalla output: %v", err)
			}
			// Default compile for comparison.
			def, err := compilesim.New(s.FS, s.SearchPaths...).Compile(s.MainFile)
			if err != nil {
				t.Fatalf("compile default: %v", err)
			}
			if obj.Stats.LOC >= def.Stats.LOC {
				t.Errorf("no LOC reduction: yalla %d vs default %d", obj.Stats.LOC, def.Stats.LOC)
			}
			if obj.Stats.MissingIncl != 0 {
				t.Errorf("yalla output has %d missing includes", obj.Stats.MissingIncl)
			}
			if s.Library == "PyKokkos" && obj.Stats.LOC > 2500 {
				t.Errorf("PyKokkos yalla LOC = %d, want tiny (Table 3 ~70-200 + lightweight header)", obj.Stats.LOC)
			}
			// The expensive header must be gone from the include set.
			for _, w := range []string{res.HeaderFile} {
				src, _ := fs.Read(mod)
				if strings.Contains(src, s.Header) {
					t.Errorf("modified source still includes %s", w)
				}
			}
		})
	}
}

// TestWrappersCompile compiles each subject's generated wrappers.cpp —
// the one-time step ③ of Figure 6.
func TestWrappersCompile(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			fs := s.FS.Clone()
			res, err := core.Substitute(core.Options{
				FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
				Header: s.Header, OutDir: s.OutDir(),
			})
			if err != nil {
				t.Fatalf("Substitute: %v", err)
			}
			paths := append([]string{s.OutDir()}, s.SearchPaths...)
			cc := compilesim.New(fs, paths...)
			obj, err := cc.Compile(res.WrappersPath)
			if err != nil {
				t.Fatalf("compile wrappers: %v", err)
			}
			if obj.Stats.MissingIncl != 0 {
				t.Errorf("wrappers.cpp has %d missing includes", obj.Stats.MissingIncl)
			}
			// The wrappers TU includes the expensive header, so it is big.
			if obj.Stats.LOC < 10000 {
				t.Errorf("wrappers LOC = %d, expected to include the expensive header", obj.Stats.LOC)
			}
		})
	}
}

// TestChainedMethodCallRewrite guards the nesting-safe rewrite:
// d.Root().MemberAt(i) must become MemberAt(Root(d), i).
func TestChainedMethodCallRewrite(t *testing.T) {
	s := ByName("capitalize")
	fs := s.FS.Clone()
	res, err := core.Substitute(core.Options{
		FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
		Header: s.Header, OutDir: s.OutDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := fs.Read(res.ModifiedSources[s.MainFile])
	if !strings.Contains(src, "MemberAt(Root(d), i)") {
		t.Fatalf("chained method call not rewritten:\n%s", src)
	}
	if !strings.Contains(src, "rapidjson::Document *d = yalla_make_Document();") {
		t.Fatalf("default construction not wrapped:\n%s", src)
	}
}
