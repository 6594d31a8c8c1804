package split

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/astmatch"
	"repro/internal/check"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/lexer"
	"repro/internal/cpp/sema"
	"repro/internal/cpp/token"
	"repro/internal/frontend"
	"repro/internal/inval"
	"repro/internal/iwyu"
)

// unit is one declaration unit: every extent sharing one inval
// interface key (an overload set is a single unit and can never be
// torn across parts).
type unit struct {
	key, name, scope string
	extents          []inval.DeclExtent // source order
	deps             map[int]bool       // unit indices this unit references
	incs             map[int]bool       // header include-line indices this unit needs
	usedBy           map[string]bool    // consumer files referencing the unit
}

// incLine is one #include directive of the god header.
type incLine struct {
	text     string // verbatim line, without trailing newline
	target   string // spelled target
	resolved string // resolved path, "" when unresolvable
}

// refRec is one recorded name resolution, re-checked verbatim against
// the rewritten corpus before any file is committed.
type refRec struct {
	from string
	q    ast.QualifiedName
	want string
}

// consumerInc locates a god-header include directive inside a consumer.
type consumerInc struct {
	line   int // 1-based
	target string
	angled bool
}

// tuInfo is the per-TU slice of views 2 and 3.
type tuInfo struct {
	root string
	// ok is false when the TU did not preprocess or parse; it then
	// records nothing, skips verification, and keeps every consumer
	// on the compatibility umbrella.
	ok bool
	// used maps unit index -> referencing files (def-use view).
	used map[int]map[string]bool
	// needIncs maps header include-line indices whose owned symbols
	// are referenced directly to the referencing files.
	needIncs map[int]map[string]bool
	// consumers maps each file including the god header to the
	// locations of those directives.
	consumers map[string][]consumerInc
	refs      []refRec
	missing   map[string]bool
}

// graph is the assembled multi-view symbol graph for one header.
type graph struct {
	hdrPath string
	content string
	incs    []incLine
	// firstDeclStart is where part includes are spliced into the
	// umbrella (every original include sits above it).
	firstDeclStart int
	units          []*unit
	// canon holds unit indices sorted by key: the seeded, deterministic
	// iteration order every clustering step uses.
	canon []int
	tus   []*tuInfo
	// weights is the symmetric clustering affinity: +8 per dependency
	// edge (view 1/decl structure), +2 per TU co-usage pair (view 3),
	// +1 per shared include claim (view 1).
	weights map[[2]int]int
	metrics []iwyu.HeaderMetrics
}

// buildGraph constructs all three views. Returns ErrNotDecomposable for
// headers whose shape the rewriter cannot preserve.
func buildGraph(opts Options, hdrPath, content string) (*graph, error) {
	exts, ok := inval.Extents(hdrPath, content)
	if !ok {
		return nil, fmt.Errorf("%w: does not parse in isolation", ErrNotDecomposable)
	}
	if len(exts) == 0 {
		return nil, fmt.Errorf("%w: no declarations", ErrNotDecomposable)
	}
	g := &graph{hdrPath: hdrPath, content: content, weights: map[[2]int]int{}}

	// Units: group extents by key, ordered by first appearance.
	byKey := map[string]int{}
	for _, e := range exts {
		i, seen := byKey[e.Key]
		if !seen {
			i = len(g.units)
			byKey[e.Key] = i
			g.units = append(g.units, &unit{
				key: e.Key, name: e.Name, scope: e.Scope,
				deps: map[int]bool{}, incs: map[int]bool{}, usedBy: map[string]bool{},
			})
		}
		g.units[i].extents = append(g.units[i].extents, e)
	}
	g.canon = make([]int, len(g.units))
	for i := range g.canon {
		g.canon[i] = i
	}
	sort.Slice(g.canon, func(a, b int) bool { return g.units[g.canon[a]].key < g.units[g.canon[b]].key })

	if err := g.scanStructure(); err != nil {
		return nil, err
	}

	owner, err := g.analyzeHeader(opts)
	if err != nil {
		return nil, err
	}
	g.tokenEdges()

	if err := g.analyzeTUs(opts, owner); err != nil {
		return nil, err
	}
	g.assembleWeights()
	return g, nil
}

// scanStructure validates the header's preprocessor shape: an optional
// include guard or #pragma once, #include lines strictly above the
// first declaration, and nothing else. Conditional blocks or mid-file
// macro definitions make extent slicing unsound, so they bail.
func (g *graph) scanStructure() error {
	first := len(g.content)
	last := 0
	for _, u := range g.units {
		for _, e := range u.extents {
			if e.Start < first {
				first = e.Start
			}
			if e.End > last {
				last = e.End
			}
		}
	}
	g.firstDeclStart = first

	type dline struct {
		off  int
		word string
		rest string
		text string
	}
	var dirs []dline
	off := 0
	for _, raw := range strings.SplitAfter(g.content, "\n") {
		trimmed := strings.TrimSpace(raw)
		if strings.HasPrefix(trimmed, "#") {
			fields := strings.Fields(strings.TrimPrefix(trimmed, "#"))
			word := ""
			if len(fields) > 0 {
				word = fields[0]
			}
			dirs = append(dirs, dline{off: off, word: word,
				rest: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(trimmed[1:]), word)),
				text: strings.TrimRight(raw, "\n")})
		}
		off += len(raw)
	}
	guarded := false
	for i, d := range dirs {
		switch d.word {
		case "include":
			if d.off >= g.firstDeclStart {
				return fmt.Errorf("%w: #include below the first declaration", ErrNotDecomposable)
			}
			g.incs = append(g.incs, incLine{text: d.text, target: iwyu.IncludeSpelling(d.text)})
		case "pragma":
			if d.rest != "once" || d.off >= g.firstDeclStart {
				return fmt.Errorf("%w: unsupported #pragma %s", ErrNotDecomposable, d.rest)
			}
		case "ifndef":
			// Only as the opening half of a leading include guard.
			if i != 0 || len(dirs) < 2 || dirs[1].word != "define" || dirs[1].rest != d.rest {
				return fmt.Errorf("%w: conditional compilation", ErrNotDecomposable)
			}
			guarded = true
		case "define":
			if !(guarded && i == 1) {
				return fmt.Errorf("%w: mid-file #define", ErrNotDecomposable)
			}
		case "endif":
			if !guarded || i != len(dirs)-1 || d.off < last {
				return fmt.Errorf("%w: unexpected #endif", ErrNotDecomposable)
			}
		default:
			return fmt.Errorf("%w: directive #%s", ErrNotDecomposable, d.word)
		}
	}
	if guarded && dirs[len(dirs)-1].word != "endif" {
		return fmt.Errorf("%w: unterminated include guard", ErrNotDecomposable)
	}
	return nil
}

// unitAt maps a byte offset in the header to its containing unit index,
// or -1.
func (g *graph) unitAt(off int) int {
	for i, u := range g.units {
		for _, e := range u.extents {
			if e.Start <= off && off < e.End {
				return i
			}
		}
	}
	return -1
}

// analyzeHeader preprocesses and parses the header as its own TU root:
// view 1 (the include graph, ownership of every transitively included
// file) plus decl->include claims and AST-level decl->decl edges.
// Returns the ownership map: resolved file -> include-line index.
func (g *graph) analyzeHeader(opts Options) (map[string]int, error) {
	unit, err := frontend.Parse(frontend.Config{FS: opts.FS, SearchPaths: opts.SearchPaths}, g.hdrPath, opts.Obs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotDecomposable, err)
	}
	ppRes := unit.Result
	g.metrics = iwyu.GraphMetrics(ppRes.DirectDeps)

	directs := ppRes.DirectDeps[g.hdrPath]
	for i := range g.incs {
		g.incs[i].resolved = iwyu.ResolveDirect(directs, g.incs[i].target)
	}
	owner := map[string]int{}
	var claim func(file string, inc int)
	claim = func(file string, inc int) {
		if _, taken := owner[file]; taken {
			return
		}
		owner[file] = inc
		for _, dep := range ppRes.DirectDeps[file] {
			claim(dep, inc)
		}
	}
	for i, inc := range g.incs {
		if inc.resolved != "" {
			claim(inc.resolved, i)
		}
	}

	tu := unit.Unit(opts.Obs)
	table := sema.NewTable()
	table.AddUnit(tu)

	hdrID := token.InternFile(g.hdrPath)
	note := func(q ast.QualifiedName, nodeOff int) {
		from := g.unitAt(nodeOff)
		if from < 0 {
			return
		}
		r := table.Lookup(q, g.hdrPath)
		if r == nil {
			return
		}
		syms := append([]*sema.Symbol{r.Symbol}, r.AliasChain...)
		for _, s := range syms {
			if s.Decl == nil {
				continue
			}
			if s.DeclFile == g.hdrPath {
				if to := g.unitAt(int(s.Decl.Pos().Offset)); to >= 0 && to != from {
					g.units[from].deps[to] = true
				}
			} else if inc, ok := owner[s.DeclFile]; ok {
				g.units[from].incs[inc] = true
			}
		}
	}
	ast.Inspect(tu, func(n ast.Node) {
		if n.Pos().File != hdrID {
			return
		}
		off := int(n.Pos().Offset)
		walkRefs(n, func(q ast.QualifiedName) { note(q, off) })
	})
	return owner, nil
}

// walkRefs feeds every qualified name a single node mentions to f: decl
// references, declarator and member types (with template arguments
// recursed), alias targets, using-decls, and base classes.
func walkRefs(n ast.Node, f func(ast.QualifiedName)) {
	var ty func(t *ast.Type)
	ty = func(t *ast.Type) {
		if t == nil || t.Builtin {
			return
		}
		f(t.Name)
		for _, seg := range t.Name.Segments {
			for _, a := range seg.Args {
				if a.Type != nil {
					ty(a.Type)
				}
			}
		}
	}
	switch x := n.(type) {
	case *ast.DeclRefExpr:
		f(x.Name)
	case *ast.FieldDecl:
		ty(x.Type)
	case *ast.VarDecl:
		ty(x.Type)
	case *ast.AliasDecl:
		ty(x.Target)
	case *ast.FunctionDecl:
		ty(x.ReturnType)
		for _, p := range x.Params {
			ty(p.Type)
		}
	case *ast.UsingDecl:
		f(x.Name)
	case *ast.ClassDecl:
		for _, b := range x.Bases {
			f(b)
		}
	}
}

// tokenEdges adds conservative decl->decl edges from the raw token
// stream: an identifier inside unit A matching unit B's base name links
// A to B. This catches scoped spellings (Impl::Foo) and uses inside
// function bodies that the resolution walk abstains from; collisions
// only add edges, which can over-merge but never tear a dependency.
func (g *graph) tokenEdges() {
	byName := map[string][]int{}
	for i, u := range g.units {
		if u.name != "" {
			byName[u.name] = append(byName[u.name], i)
		}
	}
	lx := lexer.New(g.hdrPath, g.content)
	for {
		t := lx.Next()
		if t.Kind == token.EOF {
			break
		}
		if t.Kind != token.Identifier {
			continue
		}
		targets := byName[t.Text]
		if len(targets) == 0 {
			continue
		}
		from := g.unitAt(int(t.Pos.Offset))
		if from < 0 {
			continue
		}
		for _, to := range targets {
			if to != from {
				g.units[from].deps[to] = true
			}
		}
	}
}

// analyzeTUs runs views 2 and 3 over every TU root in parallel (bounded
// by opts.Jobs) and merges the results in deterministic root order.
func (g *graph) analyzeTUs(opts Options, owner map[string]int) error {
	roots := tuRoots(opts.Sources)
	if len(roots) == 0 {
		return fmt.Errorf("split: no translation unit roots in %v", opts.Sources)
	}
	jobs := opts.Jobs
	if jobs <= 1 {
		jobs = 1
	}
	g.tus = make([]*tuInfo, len(roots))
	var wg sync.WaitGroup
	sem := make(chan struct{}, jobs)
	for i, root := range roots {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, root string) {
			defer wg.Done()
			defer func() { <-sem }()
			// A trace lane belongs to one goroutine: each TU's frontend
			// spans go on a lane of their own.
			wo := opts
			wo.Obs = opts.Obs.Lane("split " + root)
			defer wo.Obs.SealLane()
			g.tus[i] = g.analyzeTU(wo, root, owner)
		}(i, root)
	}
	wg.Wait()

	// Merge def-use into the units, sequentially in root order.
	for _, info := range g.tus {
		for u, files := range info.used {
			for f := range files {
				g.units[u].usedBy[f] = true
			}
		}
	}
	return nil
}

// tuRoots picks the TU roots from a subject's source list: the .cpp
// files, or the first source when none qualify.
func tuRoots(sources []string) []string {
	var roots []string
	for _, s := range sources {
		if strings.HasSuffix(s, ".cpp") || strings.HasSuffix(s, ".cc") || strings.HasSuffix(s, ".cxx") {
			roots = append(roots, s)
		}
	}
	if len(roots) == 0 && len(sources) > 0 {
		roots = sources[:1]
	}
	return roots
}

// analyzeTU extracts one TU's def-use records: which units its files
// reference (view 2), which header sub-includes its files need
// directly, where its god-header include directives sit, and every name
// resolution for the later verification pass.
func (g *graph) analyzeTU(opts Options, root string, owner map[string]int) *tuInfo {
	info := &tuInfo{
		root:      root,
		used:      map[int]map[string]bool{},
		needIncs:  map[int]map[string]bool{},
		consumers: map[string][]consumerInc{},
		missing:   map[string]bool{},
	}
	unit, err := frontend.Parse(frontend.Config{FS: opts.FS, SearchPaths: opts.SearchPaths}, root, opts.Obs)
	if err != nil {
		return info
	}
	ppRes := unit.Result
	for _, m := range ppRes.MissingIncludes {
		info.missing[m] = true
	}

	// The header's closure within this TU: files whose decls the
	// umbrella used to provide.
	closure := map[string]bool{}
	if _, seen := ppRes.DirectDeps[g.hdrPath]; seen {
		check.MarkOwned(closure, ppRes.DirectDeps, g.hdrPath)
	}

	// Consumer files: anything outside the closure directly including
	// the god header.
	files := make([]string, 0, len(ppRes.DirectDeps))
	for f := range ppRes.DirectDeps {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		if closure[f] {
			continue
		}
		hasHdr := false
		for _, d := range ppRes.DirectDeps[f] {
			if d == g.hdrPath {
				hasHdr = true
			}
		}
		if !hasHdr {
			continue
		}
		src, err := opts.FS.Read(f)
		if err != nil {
			continue
		}
		line := 0
		for _, raw := range strings.SplitAfter(src, "\n") {
			line++
			trimmed := strings.TrimSpace(raw)
			if !strings.HasPrefix(trimmed, "#include") {
				continue
			}
			target := iwyu.IncludeSpelling(trimmed)
			if iwyu.ResolveDirect([]string{g.hdrPath}, target) == g.hdrPath {
				info.consumers[f] = append(info.consumers[f], consumerInc{
					line:   line,
					target: target,
					angled: strings.Contains(trimmed, "<"),
				})
			}
		}
	}
	if len(info.consumers) == 0 && len(closure) == 0 {
		// The TU never sees the header; nothing to do or verify.
		info.ok = true
		return info
	}

	tu := unit.Unit(opts.Obs)
	table := sema.NewTable()
	table.AddUnit(tu)

	closureList := make([]string, 0, len(closure))
	for f := range closure {
		closureList = append(closureList, f)
	}
	outside := astmatch.IsExpansionOutsideFiles(closureList...)

	note := func(q ast.QualifiedName, from string) {
		r := table.Lookup(q, from)
		if r == nil {
			return
		}
		info.refs = append(info.refs, refRec{from: from, q: q, want: r.Symbol.Qualified()})
		syms := append([]*sema.Symbol{r.Symbol}, r.AliasChain...)
		for _, s := range syms {
			if s.Decl == nil {
				continue
			}
			if s.DeclFile == g.hdrPath {
				if u := g.unitAt(int(s.Decl.Pos().Offset)); u >= 0 {
					if info.used[u] == nil {
						info.used[u] = map[string]bool{}
					}
					info.used[u][from] = true
				}
			} else if closure[s.DeclFile] {
				if inc, ok := owner[s.DeclFile]; ok {
					if info.needIncs[inc] == nil {
						info.needIncs[inc] = map[string]bool{}
					}
					info.needIncs[inc][from] = true
				}
			}
		}
	}
	ast.Inspect(tu, func(n ast.Node) {
		if !outside(n, nil) {
			return
		}
		from := n.Pos().FileName()
		if from == "" {
			return
		}
		walkRefs(n, func(q ast.QualifiedName) { note(q, from) })
	})
	info.ok = true
	return info
}

// assembleWeights folds the three views into one symmetric affinity
// map. All iteration is over slices or sorted indices, so the map
// contents (and everything derived from them) are order-independent.
func (g *graph) assembleWeights() {
	add := func(a, b, w int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		g.weights[[2]int{a, b}] += w
	}
	// View 1 + decl structure: dependency edges bind tightly.
	for _, i := range g.canon {
		for to := range g.units[i].deps {
			add(i, to, 8)
		}
	}
	// View 3: co-usage within one referencing file (not the whole TU —
	// two consumers pulled into the same TU must not glue their
	// otherwise-unrelated clusters together).
	for _, info := range g.tus {
		byFile := map[string][]int{}
		for u, files := range info.used {
			for f := range files {
				byFile[f] = append(byFile[f], u)
			}
		}
		for _, used := range byFile {
			sort.Ints(used)
			for a := 0; a < len(used); a++ {
				for b := a + 1; b < len(used); b++ {
					add(used[a], used[b], 2)
				}
			}
		}
	}
	// View 1: shared include claims.
	for inc := range g.incs {
		var claimers []int
		for _, i := range g.canon {
			if g.units[i].incs[inc] {
				claimers = append(claimers, i)
			}
		}
		for a := 0; a < len(claimers); a++ {
			for b := a + 1; b < len(claimers); b++ {
				add(claimers[a], claimers[b], 1)
			}
		}
	}
}
