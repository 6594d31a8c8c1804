package split

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpp/sema"
	"repro/internal/frontend"
	"repro/internal/inval"
	"repro/internal/rewrite"
	"repro/internal/vfs"
)

// emit renders the partition into files — N part headers, the
// compatibility umbrella, and minimally-updated consumers — then
// verifies the rewritten corpus on a copy-on-write overlay before
// committing anything to opts.FS. Verification re-preprocesses,
// re-parses and re-resolves every recorded name in every healthy TU; a
// single changed resolution aborts with the tree untouched.
func emit(opts Options, g *graph, clusters [][]int) (*Result, error) {
	partOf := make([]int, len(g.units))
	for p, cl := range clusters {
		for _, u := range cl {
			partOf[u] = p
		}
	}
	used := usedClosure(g)

	hdrBase := baseName(g.hdrPath)
	hdrDir := ""
	if i := strings.LastIndexByte(g.hdrPath, '/'); i >= 0 {
		hdrDir = g.hdrPath[:i+1]
	}

	// Part metadata. Cluster members arrive in key order, so Decls are
	// already sorted.
	parts := make([]Part, len(clusters))
	incsOf := make([][]int, len(clusters))
	depsOf := make([][]int, len(clusters))
	for p, cl := range clusters {
		base := partBase(hdrBase, p)
		pt := Part{
			File:   hdrDir + base,
			Target: swapBase(opts.Header, base),
			Name:   canonName(g, cl),
		}
		incSet := map[int]bool{}
		depSet := map[int]bool{}
		for _, u := range cl {
			pt.Decls = append(pt.Decls, g.units[u].key)
			if used[u] {
				pt.Used = true
			}
			for inc := range g.units[u].incs {
				incSet[inc] = true
			}
			for _, d := range sortedKeys(g.units[u].deps) {
				if dp := partOf[d]; dp != p {
					depSet[dp] = true
				}
			}
		}
		incsOf[p] = sortedKeys(incSet)
		depsOf[p] = sortedKeys(depSet)
		for _, inc := range incsOf[p] {
			pt.Includes = append(pt.Includes, g.incs[inc].text)
		}
		pt.DependsOn = depsOf[p]
		parts[p] = pt
	}

	files := map[string]string{}
	for p, cl := range clusters {
		files[parts[p].File] = partContent(g, hdrBase, p, parts, cl, incsOf[p], depsOf[p])
	}
	umb, err := umbrella(g, hdrBase, len(clusters))
	if err != nil {
		return nil, err
	}
	files[g.hdrPath] = umb

	consumers, err := rewriteConsumers(opts, g, partOf, hdrBase, incsOf, depsOf, files)
	if err != nil {
		return nil, err
	}

	// Stage on an overlay and verify every healthy TU against it.
	staged := opts.FS.Overlay()
	for _, name := range sortedStrKeys(files) {
		staged.Write(name, files[name])
	}
	for _, info := range g.tus {
		if !info.ok {
			continue
		}
		if err := verifyTU(opts, staged, info); err != nil {
			return nil, fmt.Errorf("split: verification failed for %s: %v", info.root, err)
		}
	}

	// ComposedTarget: the used part with the heaviest preprocessed
	// closure is what header substitution targets when composing.
	composed := ""
	bestLOC := -1
	for p := range parts {
		if !parts[p].Used {
			continue
		}
		unit, err := frontend.Parse(frontend.Config{FS: staged, SearchPaths: opts.SearchPaths}, parts[p].File, nil)
		if err != nil {
			continue
		}
		if loc := unit.Result.LOC; loc > bestLOC {
			bestLOC = loc
			composed = parts[p].Target
		}
	}

	// Commit.
	for _, name := range sortedStrKeys(files) {
		opts.FS.Write(name, files[name])
	}

	decls := make([]Decl, 0, len(g.units))
	for _, i := range g.canon {
		u := g.units[i]
		d := Decl{Key: u.key, Name: u.name, Scope: u.scope, Part: partOf[i]}
		for f := range u.usedBy {
			d.UsedBy = append(d.UsedBy, f)
		}
		sort.Strings(d.UsedBy)
		decls = append(decls, d)
	}

	res := &Result{
		HeaderPath:     g.hdrPath,
		Header:         opts.Header,
		Parts:          parts,
		Decls:          decls,
		Consumers:      consumers,
		Files:          files,
		Graph:          g.metrics,
		ComposedTarget: composed,
	}
	res.PartitionJSON, res.Digest = canonicalPartition(opts.Header, parts)
	return res, nil
}

// partContent renders one part header: guard, claimed original include
// lines, includes of depended-on sibling parts, then the member
// declaration extents in source order wrapped back into their
// namespaces.
func partContent(g *graph, hdrBase string, idx int, parts []Part, cl []int, incs, deps []int) string {
	var b strings.Builder
	base := partBase(hdrBase, idx)
	guard := guardMacro(base)
	fmt.Fprintf(&b, "// %s: part %d of %s, generated by yallasplit (cluster %q).\n", base, idx, hdrBase, parts[idx].Name)
	fmt.Fprintf(&b, "#ifndef %s\n#define %s\n", guard, guard)
	for _, inc := range incs {
		b.WriteString(g.incs[inc].text)
		b.WriteByte('\n')
	}
	for _, dp := range deps {
		fmt.Fprintf(&b, "#include %q\n", partBase(hdrBase, dp))
	}

	var exts []inval.DeclExtent
	for _, u := range cl {
		exts = append(exts, g.units[u].extents...)
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].Start < exts[j].Start })

	var open []string
	writeTo := func(scope []string) {
		common := 0
		for common < len(open) && common < len(scope) && open[common] == scope[common] {
			common++
		}
		for i := len(open) - 1; i >= common; i-- {
			fmt.Fprintf(&b, "} // namespace %s\n", open[i])
		}
		for _, s := range scope[common:] {
			fmt.Fprintf(&b, "namespace %s {\n", s)
		}
		open = append(open[:common:common], scope[common:]...)
	}
	for _, e := range exts {
		writeTo(splitScope(e.Scope))
		b.WriteByte('\n')
		b.WriteString(g.content[e.Start:e.End])
		b.WriteByte('\n')
	}
	writeTo(nil)
	fmt.Fprintf(&b, "#endif // %s\n", guard)
	return b.String()
}

// splitScope turns inval's "A::B::" scope path into segments.
func splitScope(s string) []string {
	s = strings.TrimSuffix(s, "::")
	if s == "" {
		return nil
	}
	return strings.Split(s, "::")
}

// umbrella rewrites the god header into a compatibility shim: every
// declaration extent removed, includes of all parts spliced in after
// the original directives. Unrewritten consumers (and failed TUs) keep
// including it and still see the full original surface.
func umbrella(g *graph, hdrBase string, nparts int) (string, error) {
	buf := rewrite.NewBuffer(g.hdrPath, g.content)
	for _, u := range g.units {
		for _, e := range u.extents {
			if err := buf.Remove(e.Start, e.End); err != nil {
				return "", err
			}
		}
	}
	// Splice after the last directive line above the first declaration
	// (below the guard and every original include, above any namespace
	// scaffolding the decl extents sit inside).
	insertAt := 0
	off := 0
	for _, raw := range strings.SplitAfter(g.content, "\n") {
		if off >= g.firstDeclStart {
			break
		}
		if strings.HasPrefix(strings.TrimSpace(raw), "#") {
			insertAt = off + len(raw)
		}
		off += len(raw)
	}
	var b strings.Builder
	b.WriteString("// yallasplit: declarations moved to part headers; this umbrella\n")
	b.WriteString("// preserves the original include surface for unrewritten consumers.\n")
	for p := 0; p < nparts; p++ {
		fmt.Fprintf(&b, "#include %q\n", partBase(hdrBase, p))
	}
	if err := buf.Insert(insertAt, b.String()); err != nil {
		return "", err
	}
	return buf.Apply()
}

// rewriteConsumers computes each consumer's minimal include list from
// the def-use view and rewrites its god-header include directives.
// Usage in files that are not consumers themselves (they see the header
// transitively) is attributed to every consumer of that TU, which
// over-approximates but never under-includes. A TU that failed the
// frontend records no consumers, and any consumer may be one of its
// files, so then every consumer is left on the umbrella.
func rewriteConsumers(opts Options, g *graph, partOf []int, hdrBase string, incsOf, depsOf [][]int, files map[string]string) (map[string][]string, error) {
	for _, info := range g.tus {
		if !info.ok {
			return map[string][]string{}, nil
		}
	}
	needParts := map[string]map[int]bool{}
	needIncs := map[string]map[int]bool{}
	locs := map[string]map[int]consumerInc{}
	addNeed := func(m map[string]map[int]bool, f string, v int) {
		if m[f] == nil {
			m[f] = map[int]bool{}
		}
		m[f][v] = true
	}
	for _, info := range g.tus {
		spread := func(m map[string]map[int]bool, f string, v int) {
			if _, isCons := info.consumers[f]; isCons {
				addNeed(m, f, v)
				return
			}
			for c := range info.consumers {
				addNeed(m, c, v)
			}
		}
		for u, refs := range info.used {
			for f := range refs {
				spread(needParts, f, partOf[u])
			}
		}
		for inc, refs := range info.needIncs {
			for f := range refs {
				spread(needIncs, f, inc)
			}
		}
		for f, cis := range info.consumers {
			if locs[f] == nil {
				locs[f] = map[int]consumerInc{}
			}
			for _, ci := range cis {
				locs[f][ci.line] = ci
			}
		}
	}

	// Include claims covered transitively by a part list.
	coveredBy := func(pl []int) map[int]bool {
		cov := map[int]bool{}
		seen := map[int]bool{}
		var visit func(p int)
		visit = func(p int) {
			if seen[p] {
				return
			}
			seen[p] = true
			for _, inc := range incsOf[p] {
				cov[inc] = true
			}
			for _, d := range depsOf[p] {
				visit(d)
			}
		}
		for _, p := range pl {
			visit(p)
		}
		return cov
	}

	consumers := map[string][]string{}
	for _, f := range sortedLocKeys(locs) {
		src, err := opts.FS.Read(f)
		if err != nil {
			continue
		}
		var lines []consumerInc
		for _, l := range sortedKeys2(locs[f]) {
			lines = append(lines, locs[f][l])
		}
		pl := sortedKeys(needParts[f])
		cov := coveredBy(pl)
		var il []int
		for _, inc := range sortedKeys(needIncs[f]) {
			if !cov[inc] {
				il = append(il, inc)
			}
		}

		// Part includes keep the consumer's original spelling style; the
		// quote fallback to the bare resolved path makes uncovered header
		// sub-includes resolve identically from any includer.
		style := lines[0]
		var newLines, targets []string
		for _, p := range pl {
			t := swapBase(style.target, partBase(hdrBase, p))
			if style.angled {
				newLines = append(newLines, "#include <"+t+">")
			} else {
				newLines = append(newLines, "#include \""+t+"\"")
			}
			targets = append(targets, t)
		}
		for _, inc := range il {
			if r := g.incs[inc].resolved; r != "" {
				newLines = append(newLines, "#include \""+r+"\"")
				targets = append(targets, r)
			} else {
				newLines = append(newLines, g.incs[inc].text)
				targets = append(targets, g.incs[inc].target)
			}
		}

		buf := rewrite.NewBuffer(f, src)
		rest := lines
		if len(newLines) > 0 {
			if err := buf.ReplaceLine(lines[0].line, strings.Join(newLines, "\n")); err != nil {
				return nil, err
			}
			rest = lines[1:]
		}
		for _, l := range rest {
			if err := buf.RemoveLine(l.line); err != nil {
				return nil, err
			}
		}
		out, err := buf.Apply()
		if err != nil {
			return nil, err
		}
		files[f] = out
		if targets == nil {
			targets = []string{}
		}
		consumers[f] = targets
	}
	return consumers, nil
}

// verifyTU re-runs one healthy TU against the staged overlay: it still
// parses, has no new missing includes, and every recorded name
// resolution lands on the same symbol.
func verifyTU(opts Options, staged *vfs.FS, info *tuInfo) error {
	unit, err := frontend.Parse(frontend.Config{FS: staged, SearchPaths: opts.SearchPaths}, info.root, opts.Obs)
	if err != nil {
		return err
	}
	for _, m := range unit.Result.MissingIncludes {
		if !info.missing[m] {
			return fmt.Errorf("new missing include %q", m)
		}
	}
	table := sema.Of(nil, unit.Unit(opts.Obs))
	for _, ref := range info.refs {
		r := table.Lookup(ref.q, ref.from)
		if r == nil {
			return fmt.Errorf("%s: %q no longer resolves", ref.from, ref.q.Plain())
		}
		if got := r.Symbol.Qualified(); got != ref.want {
			return fmt.Errorf("%s: %q resolved to %s, was %s", ref.from, ref.q.Plain(), got, ref.want)
		}
	}
	return nil
}

// sortedKeys returns a map's int keys in ascending order.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedKeys2(m map[int]consumerInc) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func sortedStrKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedLocKeys(m map[string]map[int]consumerInc) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
