package preprocessor

import (
	"maps"
	"slices"
	"strings"

	"repro/internal/cpp/token"
)

// State is the preprocessor's state at the end of a main file's
// preamble: its leading run of directive lines, cut after the last one
// at conditional depth 0. A file whose first token is code has none.
// It holds everything a run carries across that point — the macro
// table, the #pragma once and include-guard sets, the files seen and
// the paths probed in vain, __COUNTER__, the Result so far and the
// number of tokens emitted — plus the main file's bytes and tokens
// before the cut, which a resumed run's main file must repeat.
//
// PreprocessFrom captures a State and resumes from one. A State is
// immutable once captured; a resumed run copies what its suffix may
// change, and the slices of its Result are clipped so that an append
// copies them.
type State struct {
	main     string
	prefix   string        // the main file's bytes before the cut
	mainToks []token.Token // the main file's tokens before the cut

	ntoks      int
	counter    int
	macros     map[token.Symbol]*Macro
	pragmaOnce map[string]bool
	guardedBy  map[string]string
	seen       map[string]bool
	absentSeen map[string]bool
	res        Result // Tokens is nil
}

// Tokens is the number of tokens the run had emitted at the cut.
func (s *State) Tokens() int { return s.ntoks }

// Includes lists the files included before the cut, in first-inclusion
// order; AbsentDeps lists the include probes that missed before it.
// Together with the main file's bytes they are everything the preamble
// read: a caller resumes only while all of them are unchanged.
func (s *State) Includes() []string   { return s.res.Includes }
func (s *State) AbsentDeps() []string { return s.res.AbsentDeps }

// preambleEnd returns the index of the first token after the preamble
// of a main file's tokens (EOF dropped), or 0 when it has none.
func preambleEnd(toks []token.Token) int {
	end, depth := 0, 0
	for i := 0; i < len(toks) && toks[i].Kind == token.Hash && toks[i].LeadingNewline; {
		j := i + 1
		for j < len(toks) && !toks[j].LeadingNewline {
			j++
		}
		if j > i+1 {
			switch symOf(toks[i+1]) {
			case dirIf, dirIfdef, dirIfndef:
				depth++
			case dirEndif:
				depth--
			}
		}
		i = j
		if depth == 0 {
			end = j
		}
	}
	return end
}

// cutPreamble returns the uncaptured State of main's preamble, or nil
// when the main file has none to capture. toks ends with EOF. A file
// whose last preamble line runs into EOF is not cut: bytes appended to
// it could extend that line. Nor is a file with a whole-file include
// guard, whose guard a suffix edit could break.
func cutPreamble(main, src string, toks []token.Token) *State {
	next := preambleEnd(toks[:len(toks)-1])
	if next == 0 || !toks[next].LeadingNewline {
		return nil
	}
	if _, ok := detectIncludeGuard(toks[:len(toks)-1]); ok {
		return nil
	}
	return &State{
		main:     main,
		prefix:   src[:toks[next].Pos.Offset],
		mainToks: slices.Clone(toks[:next]),
	}
}

// resumes reports whether a run of main, whose content is src and whose
// tokens are toks (EOF included), may start from s: the file repeats
// the preamble's bytes and tokens, its next token starts a line, and it
// has no whole-file include guard.
func (s *State) resumes(main, src string, toks []token.Token) bool {
	next := len(s.mainToks)
	if s.main != main || !strings.HasPrefix(src, s.prefix) || next >= len(toks) || !toks[next].LeadingNewline {
		return false
	}
	for i, t := range s.mainToks {
		if toks[i] != t {
			return false
		}
	}
	_, guarded := detectIncludeGuard(toks[:len(toks)-1])
	return !guarded
}

// capture records cut's state from the running preprocessor, unless the
// run has reported errors.
func (pp *Preprocessor) capture(cut *State) {
	if len(pp.errs) > 0 {
		return
	}
	cut.ntoks = pp.ntoks
	cut.counter = pp.counter
	cut.macros = maps.Clone(pp.macros.defs)
	cut.pragmaOnce = maps.Clone(pp.pragmaOnce)
	cut.guardedBy = maps.Clone(pp.guardedBy)
	cut.seen = maps.Clone(pp.seen)
	cut.absentSeen = maps.Clone(pp.absentSeen)
	res := *pp.res
	res.Includes = slices.Clip(res.Includes)
	res.MissingIncludes = slices.Clip(res.MissingIncludes)
	res.AbsentDeps = slices.Clip(res.AbsentDeps)
	res.MacroUses = slices.Clip(res.MacroUses)
	res.DirectDeps = make(map[string][]string, len(pp.res.DirectDeps))
	for k, v := range pp.res.DirectDeps {
		res.DirectDeps[k] = slices.Clip(v)
	}
	res.MacroDefs = maps.Clone(pp.res.MacroDefs)
	cut.res = res
	pp.captured = cut
}

// resume loads s into the preprocessor, with prefix as the tokens
// emitted before the cut.
func (pp *Preprocessor) resume(s *State, prefix []token.Token) {
	pp.macros = &macroTable{defs: maps.Clone(s.macros)}
	pp.pragmaOnce = maps.Clone(s.pragmaOnce)
	pp.guardedBy = maps.Clone(s.guardedBy)
	pp.seen = maps.Clone(s.seen)
	pp.absentSeen = maps.Clone(s.absentSeen)
	pp.counter = s.counter
	res := s.res
	res.DirectDeps = maps.Clone(s.res.DirectDeps)
	res.MacroDefs = maps.Clone(s.res.MacroDefs)
	pp.res = &res
	pp.chunks = append(pp.chunks, prefix)
	pp.ntoks = len(prefix)
}
