package corpus

import (
	"testing"

	"repro/internal/compilesim"
	"repro/internal/core"
	"repro/internal/pch"
	"repro/internal/vfs"
)

// TestCalibrationBands asserts the cost-model outputs stay within the
// Table 2 shape bands recorded in EXPERIMENTS.md. The simulation is
// deterministic, so drift here means the model or corpus changed.
func TestCalibrationBands(t *testing.T) {
	cases := []struct {
		name                 string
		defMin, defMax       float64 // virtual ms
		pchSpdMin, pchSpdMax float64
		yalSpdMin, yalSpdMax float64
	}{
		// Paper: 650 ms, 3.4×, 38.2×.
		{"02", 550, 850, 2.5, 4.5, 25, 60},
		// Paper: 494 ms, 1.2×, 24.7× — PCH barely helps RapidJSON.
		{"condense", 450, 800, 1.1, 1.8, 18, 45},
		// Paper: 719 ms, 3.4×, 5.6× — smallest YALLA group.
		{"drawing", 400, 900, 1.3, 3.6, 1.5, 7.0},
		// Paper: 2637 ms, 1.4×, 9.5×.
		{"chat_server", 2000, 3300, 1.2, 1.8, 6, 16},
	}
	for _, c := range cases {
		s := ByName(c.name)
		if s == nil {
			t.Fatalf("subject %s missing", c.name)
		}
		fs := s.FS.Clone()

		def, err := compilesim.New(fs, s.SearchPaths...).Compile(s.MainFile)
		if err != nil {
			t.Fatalf("%s default: %v", c.name, err)
		}
		hdr := resolveHeaderPath(t, fs, s)
		p, err := pch.Build(fs, hdr, s.SearchPaths, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s pch: %v", c.name, err)
		}
		cp := compilesim.New(fs, s.SearchPaths...)
		cp.PCH = p
		pchObj, err := cp.Compile(s.MainFile)
		if err != nil {
			t.Fatalf("%s pch compile: %v", c.name, err)
		}
		res, err := core.Substitute(core.Options{
			FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
			Header: s.Header, OutDir: s.OutDir(),
		})
		if err != nil {
			t.Fatalf("%s substitute: %v", c.name, err)
		}
		paths := append([]string{s.OutDir()}, s.SearchPaths...)
		yal, err := compilesim.New(fs, paths...).Compile(res.ModifiedSources[s.MainFile])
		if err != nil {
			t.Fatalf("%s yalla compile: %v", c.name, err)
		}

		defMs := def.Phases.Total().Seconds() * 1000
		pchSpd := float64(def.Phases.Total()) / float64(pchObj.Phases.Total())
		yalSpd := float64(def.Phases.Total()) / float64(yal.Phases.Total())

		if defMs < c.defMin || defMs > c.defMax {
			t.Errorf("%s default = %.0f vms, want [%.0f,%.0f]", c.name, defMs, c.defMin, c.defMax)
		}
		if pchSpd < c.pchSpdMin || pchSpd > c.pchSpdMax {
			t.Errorf("%s PCH speedup = %.2f×, want [%.1f,%.1f]", c.name, pchSpd, c.pchSpdMin, c.pchSpdMax)
		}
		if yalSpd < c.yalSpdMin || yalSpd > c.yalSpdMax {
			t.Errorf("%s Yalla speedup = %.2f×, want [%.1f,%.1f]", c.name, yalSpd, c.yalSpdMin, c.yalSpdMax)
		}
		// Fig. 7a invariants: PCH leaves instantiation and backend
		// untouched relative to default.
		if pchObj.Phases.Backend != def.Phases.Backend {
			t.Errorf("%s: PCH backend %v != default %v", c.name, pchObj.Phases.Backend, def.Phases.Backend)
		}
		if pchObj.Phases.Instantiate != def.Phases.Instantiate {
			t.Errorf("%s: PCH instantiate differs", c.name)
		}
	}
}

func resolveHeaderPath(t *testing.T, fs *vfs.FS, s *Subject) string {
	t.Helper()
	for _, sp := range s.SearchPaths {
		cand := sp + "/" + s.Header
		if sp == "." {
			cand = s.Header
		}
		if fs.Exists(cand) {
			return cand
		}
	}
	t.Fatalf("cannot resolve %s", s.Header)
	return ""
}
