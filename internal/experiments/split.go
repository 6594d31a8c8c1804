package experiments

// The yallasplit three-way comparison: does statically decomposing a god
// header beat substituting it, lose to it, or compose with it? Every
// subject is measured twice per mode — once on the original tree and
// once on the decomposed tree (with substitution retargeted at the
// composed part) — yielding the decompose-only, substitute-only, and
// composed compile-cost deltas behind results/split_baseline.json.

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/split"
	"repro/internal/vfs"
)

// SplitModes lists the configurations the comparison covers — all five
// build modes, so the composed numbers include the PCH/LTO extensions.
var SplitModes = []devcycle.Mode{
	devcycle.Default, devcycle.PCH, devcycle.Yalla, devcycle.YallaPCH, devcycle.YallaLTO,
}

// SplitVariant is one subject × mode × tree measurement (virtual
// milliseconds, rounded so the JSON rendering is byte-stable).
type SplitVariant struct {
	CompileMs float64 `json:"compile_ms"`
	CycleMs   float64 `json:"cycle_ms"`
}

// SplitSubjectResult is one subject's row of the comparison artifact.
type SplitSubjectResult struct {
	Name    string `json:"name"`
	Library string `json:"library"`
	// Partition shape and identity (diffed in CI like check_baseline).
	Parts     int    `json:"parts"`
	UsedParts int    `json:"used_parts"`
	Decls     int    `json:"decls"`
	Consumers int    `json:"consumers"`
	Digest    string `json:"digest"`
	Composed  string `json:"composed_target"`
	// Original measures the untouched tree (its Yalla rows are the
	// substitute-only configuration); Decomposed measures the rewritten
	// tree (its Default row is decompose-only, its Yalla rows the
	// composed configuration substituting the composed part).
	Original   map[string]SplitVariant `json:"original"`
	Decomposed map[string]SplitVariant `json:"decomposed"`
	// Headline step-④ compile-cost reductions vs Default on the
	// original tree, in percent.
	DecomposePct  float64 `json:"decompose_reduction_pct"`
	SubstitutePct float64 `json:"substitute_reduction_pct"`
	ComposedPct   float64 `json:"composed_reduction_pct"`
}

// SplitReport is the results/split_baseline.json payload.
type SplitReport struct {
	MaxParts int                   `json:"max_parts"`
	Modes    []string              `json:"modes"`
	Subjects []*SplitSubjectResult `json:"subjects"`
}

// SplitRunConfig configures RunSplitAll.
type SplitRunConfig struct {
	// Jobs is how many subjects run at once, and how many translation
	// units each subject's Decompose analyzes at once; <= 0 means
	// runtime.GOMAXPROCS(0).
	Jobs int
	// MaxParts caps each partition (0 = uncapped); the committed
	// baseline uses 4, matching the golden partitions.
	MaxParts int
	// Subjects restricts the run; nil means corpus.All().
	Subjects []*corpus.Subject
	// Cache is the build cache shared by all workers; virtual times are
	// identical with or without it.
	Cache *buildcache.Cache
	Obs   *obs.Obs
}

// RunSplitSubject decomposes one subject on a clone of its tree and
// measures every mode on both variants, attributing the work to a
// "split.subject" span with one child span per variant × mode.
func RunSplitSubject(s *corpus.Subject, cfg SplitRunConfig) (*SplitSubjectResult, error) {
	sp := cfg.Obs.Start("split.subject")
	sp.SetStr("name", s.Name)
	sp.SetStr("library", s.Library)
	defer sp.End()
	so := sp.Obs()

	decFS := s.FS.Clone()
	res, err := split.Decompose(split.Options{
		FS: decFS, SearchPaths: s.SearchPaths, Sources: s.Sources,
		Header: s.Header, MaxParts: cfg.MaxParts, Jobs: cfg.Jobs, Obs: so,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: decompose: %v", s.Name, err)
	}

	out := &SplitSubjectResult{
		Name: s.Name, Library: s.Library,
		Parts: len(res.Parts), Decls: len(res.Decls), Consumers: len(res.Consumers),
		Digest: res.Digest, Composed: res.ComposedTarget,
	}
	for _, p := range res.Parts {
		if p.Used {
			out.UsedParts++
		}
	}

	if out.Original, err = splitMeasure(so, s, s.FS, s.Header, cfg.Cache, "original"); err != nil {
		return nil, fmt.Errorf("%s: %v", s.Name, err)
	}
	if out.Decomposed, err = splitMeasure(so, s, decFS, res.ComposedTarget, cfg.Cache, "decomposed"); err != nil {
		return nil, fmt.Errorf("%s: %v", s.Name, err)
	}

	base := out.Original[devcycle.Default.String()].CompileMs
	if base > 0 {
		out.DecomposePct = pctLess(base, out.Decomposed[devcycle.Default.String()].CompileMs)
		out.SubstitutePct = pctLess(base, out.Original[devcycle.Yalla.String()].CompileMs)
		out.ComposedPct = pctLess(base, out.Decomposed[devcycle.Yalla.String()].CompileMs)
	}
	sp.SetInt("parts", int64(out.Parts))
	return out, nil
}

// splitMeasure runs every SplitMode against one tree. The Yalla modes
// substitute yallaHeader — the subject's own header on the original
// tree, the composed part target on the decomposed one.
func splitMeasure(o *obs.Obs, s *corpus.Subject, tree *vfs.FS, yallaHeader string, bc *buildcache.Cache, variant string) (map[string]SplitVariant, error) {
	out := map[string]SplitVariant{}
	for _, mode := range SplitModes {
		sub := *s
		if mode == devcycle.Yalla || mode == devcycle.YallaPCH || mode == devcycle.YallaLTO {
			sub.Header = yallaHeader
		}
		msp := o.Start("split.mode")
		msp.SetStr("variant", variant)
		msp.SetStr("mode", mode.String())
		st, err := devcycle.PrepareWith(&sub, mode, devcycle.Config{
			FS: tree.Overlay(), Cache: bc, Obs: msp.Obs(),
		})
		if err != nil {
			msp.End()
			return nil, fmt.Errorf("%s/%v: %v", variant, mode, err)
		}
		st.SetObs(msp.Obs())
		cy, err := st.Cycle()
		if err != nil {
			msp.End()
			return nil, fmt.Errorf("%s/%v: %v", variant, mode, err)
		}
		msp.SetInt("compile_us", cy.Compile.Microseconds())
		msp.End()
		out[mode.String()] = SplitVariant{
			CompileMs: round3(ms(cy.Compile)),
			CycleMs:   round3(ms(cy.Total())),
		}
	}
	return out, nil
}

// RunSplitAll measures the configured subjects on a bounded worker pool
// (par.Each), returning rows in corpus order. A failure stops further
// subjects from starting and aborts the run with the error of the first
// failing subject in corpus order.
func RunSplitAll(cfg SplitRunConfig) (*SplitReport, error) {
	subjects := cfg.Subjects
	if subjects == nil {
		subjects = corpus.All()
	}
	rep := &SplitReport{MaxParts: cfg.MaxParts}
	for _, m := range SplitModes {
		rep.Modes = append(rep.Modes, m.String())
	}
	rep.Subjects = make([]*SplitSubjectResult, len(subjects))
	err := par.Each(cfg.Obs, cfg.Jobs, len(subjects),
		func(i int) string { return "split subject " + subjects[i].Name },
		func(i int, o *obs.Obs) error {
			r, err := RunSplitSubject(subjects[i], SplitRunConfig{
				Jobs: cfg.Jobs, MaxParts: cfg.MaxParts, Cache: cfg.Cache, Obs: o,
			})
			rep.Subjects[i] = r
			return err
		})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// JSON renders the report byte-stably for results/split_baseline.json:
// fixed field order, sorted map keys, milliseconds rounded at emission.
func (r *SplitReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// SplitTable renders the human-facing three-way comparison.
func SplitTable(r *SplitReport) string {
	var b []byte
	b = append(b, fmt.Sprintf("Three-way comparison — step-④ compile [ms] and reduction vs Default (max %d parts)\n", r.MaxParts)...)
	b = append(b, fmt.Sprintf("%-24s %5s %8s %10s %10s %10s | %9s %9s %9s\n",
		"Subject", "parts", "decls", "default", "decomp", "composed", "decomp%", "subst%", "comp%")...)
	sumD, sumS, sumC := 0.0, 0.0, 0.0
	n := 0
	for _, s := range r.Subjects {
		if s == nil {
			continue
		}
		def := s.Original[devcycle.Default.String()].CompileMs
		dec := s.Decomposed[devcycle.Default.String()].CompileMs
		comp := s.Decomposed[devcycle.Yalla.String()].CompileMs
		b = append(b, fmt.Sprintf("%-24s %5d %8d %10.1f %10.1f %10.2f | %8.1f%% %8.1f%% %8.2f%%\n",
			s.Name, s.Parts, s.Decls, def, dec, comp,
			s.DecomposePct, s.SubstitutePct, s.ComposedPct)...)
		sumD += s.DecomposePct
		sumS += s.SubstitutePct
		sumC += s.ComposedPct
		n++
	}
	if n > 0 {
		b = append(b, fmt.Sprintf("%-24s %5s %8s %10s %10s %10s | %8.1f%% %8.1f%% %8.2f%%\n",
			"average", "", "", "", "", "",
			sumD/float64(n), sumS/float64(n), sumC/float64(n))...)
	}
	return string(b)
}

// pctLess is the percent reduction from base to v, rounded.
func pctLess(base, v float64) float64 { return round3((base - v) / base * 100) }

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
