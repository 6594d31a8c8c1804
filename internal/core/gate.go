package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// GateError is returned by Substitute when the safety gate finds
// constructs the substitution would break. It carries the full set of
// error-severity diagnostics so callers (CLI, daemon) can render them.
type GateError struct {
	Verdict     check.Verdict
	Diagnostics []check.Diagnostic
}

func (e *GateError) Error() string {
	msg := fmt.Sprintf("core: substitution refused by safety gate: %s", e.Diagnostics[0].String())
	if n := len(e.Diagnostics); n > 1 {
		msg += fmt.Sprintf(" (and %d more)", n-1)
	}
	if e.Verdict == check.SafeWithFixIts {
		msg += "; every finding has a machine-applicable fix: run yallacheck -fix"
	}
	return msg
}

// gate runs the safety passes over the already-built frontend artifacts
// (no second preprocess/parse; the passes walk the same user views as
// the analysis) and refuses the substitution on any error-severity
// finding.
func (e *Engine) gate(o *obs.Obs) error {
	tus := make([]*check.TU, 0, len(e.opts.Sources))
	for _, src := range e.opts.Sources {
		cs := vfs.Clean(src)
		tus = append(tus, &check.TU{
			Source:      cs,
			AST:         e.an.units[cs],
			Tables:      e.tables,
			HeaderOwned: e.headerOwned,
			Sources:     e.sourceSet,
			MacroDefs:   e.ppRes[cs].MacroDefs,
			MacroUses:   e.ppRes[cs].MacroUses,
			FS:          e.fs,
		})
	}
	res, err := check.CheckTUs(tus, nil, 0, o)
	if err != nil {
		return err
	}
	if errs := res.Errors(); len(errs) > 0 {
		e.opts.Obs.Counter("substitute.gate_refusals").Add(1)
		return &GateError{Verdict: res.Verdict, Diagnostics: errs}
	}
	return nil
}
