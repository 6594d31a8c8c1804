// Package preprocessor implements the C++ preprocessor phase of the
// frontend substrate: #include resolution over a virtual filesystem,
// object- and function-like macros with stringize/paste, conditional
// compilation with full integer constant expressions, include guards and
// #pragma once. It produces the translation-unit token stream consumed by
// the parser plus the statistics (total LOC, headers included) that the
// paper's Table 3 reports.
package preprocessor

import (
	"fmt"
	"path"
	"strings"

	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// DefaultMaxDepth bounds include nesting to catch cycles that guards
// fail to break.
const DefaultMaxDepth = 200

// Result is the output of preprocessing one top-level source file.
type Result struct {
	// Tokens is the fully expanded translation-unit token stream
	// (terminated by an EOF token).
	Tokens []token.Token
	// Includes lists every distinct file included, directly or
	// transitively, excluding the main file, in first-inclusion order.
	Includes []string
	// LOC is the count of non-blank lines contributed by all files'
	// active regions (main file included), mirroring Table 3's "LOC".
	LOC int
	// DirectDeps maps each file to the includes it resolved directly.
	DirectDeps map[string][]string
	// MissingIncludes lists include targets that could not be resolved;
	// preprocessing continues past them (the corpora model system headers
	// that exist, so a miss usually signals a corpus bug).
	MissingIncludes []string
	// AbsentDeps lists every path probed during include resolution that
	// did not exist. Together with the resolved file set it forms the
	// dependency manifest of this run: a build cache may replay the
	// result only while all included files are unchanged AND all of
	// these paths are still absent (a new file earlier on a search path
	// would change resolution).
	AbsentDeps []string
	// MacroDefs maps each macro name to its last #define; MacroUses
	// lists every expansion site in an active region, in expansion
	// order. Both are always recorded: the substitution-safety checker
	// reads them to detect macros leaking out of a substituted header.
	MacroDefs map[string]MacroDef
	MacroUses []MacroUse
}

// MacroDef describes one #define for macro tracking.
type MacroDef struct {
	Name         string
	File         string // file containing the #define
	FunctionLike bool
	Body         string // body rendered as source text
	Pos          token.Pos
}

// MacroUse is one expansion of a defined macro in an active region.
// Conditional-evaluation (#if) and computed-include expansions are not
// recorded: they never survive into the token stream, so they cannot
// leak into compiled user code.
type MacroUse struct {
	Name    string
	DefFile string    // file whose #define was in effect at the use
	Pos     token.Pos // position of the macro name at the use site
}

// TokenCache memoizes per-file lexed token streams. It is implemented by
// buildcache.Cache; the indirection keeps this package free of a
// dependency on the cache implementation. Returned slices are shared:
// the preprocessor never mutates them, and neither may other users.
type TokenCache interface {
	Tokens(path, content string, lex func() ([]token.Token, error)) ([]token.Token, error)
}

// Preprocessor preprocesses files from a virtual filesystem.
type Preprocessor struct {
	FS          *vfs.FS
	SearchPaths []string
	// Predefined seeds the macro table, e.g. {"__cplusplus": "202002L"}.
	Predefined map[string]string
	MaxDepth   int
	// Cache, when non-nil, memoizes per-file lexing across preprocessor
	// runs. Purely a wall-clock optimization: the emitted token stream is
	// byte-identical with or without it.
	Cache TokenCache
	// Obs, when non-nil, records a span per Preprocess plus file/token
	// counters. The nil default (disabled mode) adds zero allocations to
	// the hot path: the instruments below stay nil and every hook on them
	// is a no-op.
	Obs *obs.Obs
	// PrelexJobs controls background per-file lexing (see prelex.go):
	// 0 auto-sizes to GOMAXPROCS-1 workers, negative disables, positive
	// forces that many. Purely a wall-clock optimization — the Result is
	// byte-identical with any setting.
	PrelexJobs int

	macros     *macroTable
	pragmaOnce map[string]bool
	// guardedBy caches detected include guards: file -> macro name.
	guardedBy map[string]string
	errs      []error

	res        *Result
	prelex     *prelexer
	seen       map[string]bool
	absentSeen map[string]bool
	// chunks accumulates expanded token runs during one Preprocess; they
	// are concatenated once (ntoks total) into Result.Tokens at the end.
	chunks  [][]token.Token
	ntoks   int
	depth   int
	counter int // __COUNTER__ state
	// suppressUses is non-zero while expanding tokens that never reach
	// the output stream (#if conditions, computed includes); macro uses
	// there are not recorded.
	suppressUses int
	// hideScratch backs the macro-expansion hide set; see hideRoot.
	hideScratch []token.Symbol
	// Resolved-once metric instruments (nil when Obs is nil).
	cFiles *obs.Counter
}

// condState tracks one level of conditional nesting.
type condState struct {
	active    bool // tokens in the current branch are emitted
	everTaken bool // some branch already matched
	sawElse   bool
	parentOK  bool // enclosing region was active
}

// New returns a preprocessor over fs with the given include search paths.
func New(fs *vfs.FS, searchPaths ...string) *Preprocessor {
	return &Preprocessor{FS: fs, SearchPaths: searchPaths, MaxDepth: DefaultMaxDepth}
}

func (pp *Preprocessor) errorf(pos token.Pos, format string, args ...any) {
	pp.errs = append(pp.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// Define adds an object-like macro prior to preprocessing, like -D on a
// compiler command line.
func (pp *Preprocessor) Define(name, value string) {
	if pp.macros == nil {
		pp.macros = newMacroTable()
	}
	toks, _ := lexer.Tokenize("<command line>", value)
	body := toks[:len(toks)-1] // strip EOF
	for i := range body {
		body[i].LeadingNewline = false
	}
	pp.macros.define(&Macro{Name: name, Sym: token.Intern(name), Body: body})
}

// Preprocess runs the preprocessor on the given main file.
func (pp *Preprocessor) Preprocess(mainFile string) (*Result, error) {
	sp := pp.Obs.Start("preprocess")
	sp.SetStr("main", mainFile)
	defer sp.End()
	pp.cFiles = pp.Obs.Counter("preprocessor.files")
	if pp.macros == nil {
		pp.macros = newMacroTable()
	}
	for k, v := range pp.Predefined {
		pp.Define(k, v)
	}
	if pp.MaxDepth == 0 {
		pp.MaxDepth = DefaultMaxDepth
	}
	pp.pragmaOnce = map[string]bool{}
	pp.guardedBy = map[string]string{}
	pp.errs = nil
	pp.res = &Result{DirectDeps: map[string][]string{}, MacroDefs: map[string]MacroDef{}}
	pp.seen = map[string]bool{}
	pp.absentSeen = map[string]bool{}
	pp.chunks = nil
	pp.ntoks = 0
	if n := pp.prelexWorkers(); n > 0 {
		pp.prelex = newPrelexer(pp.FS, pp.SearchPaths, pp.Cache, n)
		defer func() {
			pp.prelex.close()
			pp.prelex = nil
		}()
	}

	if err := pp.processFile(mainFile, true); err != nil {
		return pp.res, err
	}
	// Concatenate the accumulated token runs with one exact-size
	// allocation. Growing res.Tokens incrementally instead would
	// reallocate (and zero) multi-megabyte arrays many times per TU,
	// which dominated harness wall time.
	all := make([]token.Token, 0, pp.ntoks+1)
	for _, c := range pp.chunks {
		all = append(all, c...)
	}
	pp.chunks = nil
	pp.res.Tokens = append(all, token.Token{Kind: token.EOF, LeadingNewline: true})
	sp.SetInt("tokens", int64(len(pp.res.Tokens)))
	sp.SetInt("includes", int64(len(pp.res.Includes)))
	pp.Obs.Counter("preprocessor.tokens").Add(uint64(len(pp.res.Tokens)))
	if len(pp.errs) > 0 {
		return pp.res, pp.errs[0]
	}
	return pp.res, nil
}

// resolveInclude finds the file for an include target. Probes that miss
// are recorded as negative dependencies (Result.AbsentDeps): resolution
// is only reproducible while those paths stay absent.
func (pp *Preprocessor) resolveInclude(target string, angled bool, from string) (string, bool) {
	if !angled {
		rel := vfs.Clean(path.Join(path.Dir(from), target))
		if pp.FS.Exists(rel) {
			return rel, true
		}
		pp.recordAbsent(rel)
	}
	for _, sp := range pp.SearchPaths {
		cand := vfs.Clean(path.Join(sp, target))
		if pp.FS.Exists(cand) {
			return cand, true
		}
		pp.recordAbsent(cand)
	}
	if pp.FS.Exists(target) {
		return vfs.Clean(target), true
	}
	pp.recordAbsent(vfs.Clean(target))
	return "", false
}

func (pp *Preprocessor) recordAbsent(p string) {
	if pp.absentSeen == nil {
		pp.absentSeen = map[string]bool{}
	}
	if !pp.absentSeen[p] {
		pp.absentSeen[p] = true
		pp.res.AbsentDeps = append(pp.res.AbsentDeps, p)
	}
}

func (pp *Preprocessor) processFile(file string, isMain bool) error {
	file = vfs.Clean(file)
	if pp.depth >= pp.MaxDepth {
		return fmt.Errorf("preprocessor: include depth exceeds %d at %s (include cycle?)", pp.MaxDepth, file)
	}
	if pp.pragmaOnce[file] {
		return nil
	}
	if g, ok := pp.guardedBy[file]; ok && pp.macros.isDefined(g) {
		return nil
	}
	pp.cFiles.Add(1)
	toks, err := pp.fileTokens(file)
	if err != nil {
		return err
	}
	toks = toks[:len(toks)-1] // drop EOF; caller appends a single final one
	if pp.prelex != nil {
		pp.prelex.scan(file, toks)
	}

	if !isMain && !pp.seen[file] {
		pp.seen[file] = true
		pp.res.Includes = append(pp.res.Includes, file)
	}

	pp.depth++
	defer func() { pp.depth-- }()

	// Detect a whole-file include guard: #ifndef G / #define G ... #endif
	// with nothing outside. Used to skip repeat inclusions cheaply.
	if g, ok := detectIncludeGuard(toks); ok {
		pp.guardedBy[file] = g
	}

	var conds []condState
	active := func() bool {
		for _, c := range conds {
			if !c.active {
				return false
			}
		}
		return true
	}

	// Count distinct source lines that contributed tokens. Token lines
	// are nondecreasing within a file, so counting line transitions is
	// equivalent to collecting distinct lines in a set — without the set.
	lastLine := int32(-1)
	activeLineCount := 0

	i := 0
	for i < len(toks) {
		tk := toks[i]
		if tk.Kind == token.Hash && tk.LeadingNewline {
			// Gather the directive line.
			j := i + 1
			for j < len(toks) && !toks[j].LeadingNewline {
				j++
			}
			line := toks[i+1 : j]
			pp.handleDirective(file, tk, line, &conds, active)
			i = j
			continue
		}
		// Gather the whole run of ordinary tokens up to the next directive
		// so function-like macro invocations spanning lines expand
		// correctly.
		j := i
		for j < len(toks) && !(toks[j].Kind == token.Hash && toks[j].LeadingNewline) {
			j++
		}
		if active() {
			out := pp.expand(toks[i:j], pp.hideRoot())
			// out may alias the (shared, read-only) lexed stream when no
			// macro fired; the final concatenation copies it either way.
			pp.chunks = append(pp.chunks, out)
			pp.ntoks += len(out)
			for k := range toks[i:j] {
				if line := toks[i+k].Pos.Line; line != lastLine {
					lastLine = line
					activeLineCount++
				}
			}
		}
		i = j
	}
	if len(conds) != 0 {
		pp.errorf(token.Pos{File: token.InternFile(file), Line: 1, Col: 1}, "unterminated conditional directive")
	}
	pp.res.LOC += activeLineCount
	return nil
}

// handleDirective processes one directive line.
func (pp *Preprocessor) handleDirective(file string, hash token.Token, line []token.Token, conds *[]condState, active func() bool) {
	if len(line) == 0 {
		return // null directive
	}
	name := line[0].Text
	sym := symOf(line[0])
	rest := line[1:]

	// Conditionals are processed even in inactive regions (they nest).
	switch sym {
	case dirIf, dirIfdef, dirIfndef:
		st := condState{parentOK: active()}
		if !st.parentOK {
			// Inside a skipped region: push an always-false frame.
			st.active, st.everTaken = false, true
			*conds = append(*conds, st)
			return
		}
		var ok bool
		var err error
		switch sym {
		case dirIf:
			ok, err = pp.evalCondition(rest)
		case dirIfdef:
			ok = len(rest) > 0 && pp.macros.isDefinedSym(symOf(rest[0]))
		case dirIfndef:
			ok = len(rest) > 0 && !pp.macros.isDefinedSym(symOf(rest[0]))
		}
		if err != nil {
			pp.errorf(hash.Pos, "#%s: %v", name, err)
		}
		st.active, st.everTaken = ok, ok
		*conds = append(*conds, st)
		return
	case dirElif:
		if len(*conds) == 0 {
			pp.errorf(hash.Pos, "#elif without #if")
			return
		}
		st := &(*conds)[len(*conds)-1]
		if st.sawElse {
			pp.errorf(hash.Pos, "#elif after #else")
			return
		}
		if !st.parentOK || st.everTaken {
			st.active = false
			return
		}
		ok, err := pp.evalCondition(rest)
		if err != nil {
			pp.errorf(hash.Pos, "#elif: %v", err)
		}
		st.active, st.everTaken = ok, ok
		return
	case dirElse:
		if len(*conds) == 0 {
			pp.errorf(hash.Pos, "#else without #if")
			return
		}
		st := &(*conds)[len(*conds)-1]
		if st.sawElse {
			pp.errorf(hash.Pos, "duplicate #else")
			return
		}
		st.sawElse = true
		st.active = st.parentOK && !st.everTaken
		st.everTaken = true
		return
	case dirEndif:
		if len(*conds) == 0 {
			pp.errorf(hash.Pos, "#endif without #if")
			return
		}
		*conds = (*conds)[:len(*conds)-1]
		return
	}

	if !active() {
		return
	}

	switch sym {
	case dirInclude:
		pp.handleInclude(file, hash, rest)
	case dirDefine:
		pp.handleDefine(hash, rest)
	case dirUndef:
		if len(rest) > 0 {
			pp.macros.undefSym(symOf(rest[0]))
		}
	case dirPragma:
		if len(rest) > 0 && rest[0].Text == "once" {
			pp.pragmaOnce[file] = true
		}
	case dirError:
		var parts []string
		for _, t := range rest {
			parts = append(parts, t.Text)
		}
		pp.errorf(hash.Pos, "#error %s", strings.Join(parts, " "))
	case dirWarning, dirLine:
		// ignored
	default:
		pp.errorf(hash.Pos, "unknown directive #%s", name)
	}
}

// Pre-interned directive names; dispatch compares symbols, not strings.
var (
	dirIf      = token.Intern("if")
	dirIfdef   = token.Intern("ifdef")
	dirIfndef  = token.Intern("ifndef")
	dirElif    = token.Intern("elif")
	dirElse    = token.Intern("else")
	dirEndif   = token.Intern("endif")
	dirInclude = token.Intern("include")
	dirDefine  = token.Intern("define")
	dirUndef   = token.Intern("undef")
	dirPragma  = token.Intern("pragma")
	dirError   = token.Intern("error")
	dirWarning = token.Intern("warning")
	dirLine    = token.Intern("line")
)

func (pp *Preprocessor) handleInclude(file string, hash token.Token, rest []token.Token) {
	target, angled, ok := parseIncludeTarget(rest)
	if !ok {
		// Could be a computed include via macro; expand and retry.
		pp.suppressUses++
		expanded := pp.expand(rest, pp.hideRoot())
		pp.suppressUses--
		target, angled, ok = parseIncludeTarget(expanded)
		if !ok {
			pp.errorf(hash.Pos, "malformed #include")
			return
		}
	}
	resolved, found := pp.resolveInclude(target, angled, file)
	if !found {
		pp.res.MissingIncludes = append(pp.res.MissingIncludes, target)
		return
	}
	pp.res.DirectDeps[file] = append(pp.res.DirectDeps[file], resolved)
	if err := pp.processFile(resolved, false); err != nil {
		pp.errorf(hash.Pos, "%v", err)
	}
}

// parseIncludeTarget extracts the include path from the directive operand.
func parseIncludeTarget(rest []token.Token) (target string, angled, ok bool) {
	if len(rest) == 0 {
		return "", false, false
	}
	if rest[0].Kind == token.StringLit {
		return strings.Trim(rest[0].Text, `"`), false, true
	}
	if rest[0].Kind == token.Less {
		var b strings.Builder
		for _, t := range rest[1:] {
			if t.Kind == token.Greater {
				return b.String(), true, true
			}
			b.WriteString(t.Text)
		}
	}
	return "", false, false
}

func (pp *Preprocessor) handleDefine(hash token.Token, rest []token.Token) {
	if len(rest) == 0 || (rest[0].Kind != token.Identifier && rest[0].Kind != token.Keyword) {
		pp.errorf(hash.Pos, "#define requires a macro name")
		return
	}
	m := &Macro{Name: rest[0].Text, Sym: symOf(rest[0]), Pos: rest[0].Pos}
	body := rest[1:]
	// Function-like only if '(' immediately follows the name (no space).
	if len(body) > 0 && body[0].Kind == token.LParen &&
		body[0].Pos.Offset == rest[0].End().Offset {
		m.FunctionLike = true
		i := 1
		for i < len(body) && body[i].Kind != token.RParen {
			switch body[i].Kind {
			case token.Identifier:
				m.Params = append(m.Params, body[i].Text)
				m.ParamSyms = append(m.ParamSyms, symOf(body[i]))
			case token.Ellipsis:
				m.Variadic = true
			case token.Comma:
			default:
				pp.errorf(body[i].Pos, "unexpected token %q in macro parameter list", body[i].Text)
			}
			i++
		}
		if i >= len(body) {
			pp.errorf(hash.Pos, "unterminated macro parameter list")
			return
		}
		body = body[i+1:]
	}
	// Zero-copy: the body aliases the (shared, read-only) lexed stream;
	// expansion never mutates it.
	m.Body = body
	if old := pp.macros.lookup(m.Name); old != nil && !old.SameDefinition(m) {
		// Benign in practice; keep latest definition like most compilers.
	}
	pp.macros.define(m)
	pp.res.MacroDefs[m.Name] = MacroDef{
		Name:         m.Name,
		File:         m.Pos.File.Name(),
		FunctionLike: m.FunctionLike,
		Body:         renderMacroBody(m.Body),
		Pos:          m.Pos,
	}
}

// renderMacroBody renders a macro body as source text (tokens separated
// by single spaces), for diagnostics and fix-its.
func renderMacroBody(body []token.Token) string {
	var b strings.Builder
	for i, tk := range body {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(tk.Text)
	}
	return b.String()
}

// noteUse records one macro expansion site unless it is suppressed.
func (pp *Preprocessor) noteUse(tk token.Token, m *Macro) {
	if pp.suppressUses > 0 {
		return
	}
	pp.res.MacroUses = append(pp.res.MacroUses, MacroUse{
		Name: m.Name, DefFile: m.Pos.File.Name(), Pos: tk.Pos,
	})
}

// detectIncludeGuard recognizes the canonical
//
//	#ifndef NAME
//	#define NAME
//	...
//	#endif
//
// pattern covering the entire file.
func detectIncludeGuard(toks []token.Token) (string, bool) {
	// First directive must be #ifndef NAME.
	i := 0
	if i+1 >= len(toks) || toks[i].Kind != token.Hash || !toks[i].LeadingNewline {
		return "", false
	}
	if !toks[i+1].Is("ifndef") || i+2 >= len(toks) {
		return "", false
	}
	guard := toks[i+2].Text
	// Second directive must be #define NAME.
	j := i + 3
	for j < len(toks) && !toks[j].LeadingNewline {
		j++
	}
	if j+2 >= len(toks) || toks[j].Kind != token.Hash || !toks[j+1].Is("define") || toks[j+2].Text != guard {
		return "", false
	}
	// The matching #endif must be the last directive, with nothing after.
	depth := 1
	k := j + 3
	lastEndif := -1
	for k < len(toks) {
		if toks[k].Kind == token.Hash && toks[k].LeadingNewline && k+1 < len(toks) {
			switch toks[k+1].Text {
			case "if", "ifdef", "ifndef":
				depth++
			case "endif":
				depth--
				if depth == 0 {
					lastEndif = k
				}
			}
		}
		k++
	}
	if lastEndif < 0 {
		return "", false
	}
	// Nothing but the #endif line may follow.
	m := lastEndif
	for m < len(toks) && (m == lastEndif || !toks[m].LeadingNewline) {
		m++
	}
	if m != len(toks) {
		return "", false
	}
	return guard, true
}

// RenderTokens reconstructs compilable text from a token stream; used for
// golden tests and debugging (positions are not preserved).
func RenderTokens(toks []token.Token) string {
	var b strings.Builder
	for i, tk := range toks {
		if tk.Kind == token.EOF {
			break
		}
		if i > 0 {
			if tk.LeadingNewline {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString(tk.Text)
	}
	return b.String()
}
