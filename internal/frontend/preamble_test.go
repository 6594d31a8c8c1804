package frontend_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/buildcache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/cpp/ast"
	"repro/internal/cpp/token"
	"repro/internal/frontend"
	"repro/internal/fuzzgen"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// input is one main file to build under its search paths.
type input struct {
	name  string
	fs    *vfs.FS
	main  string
	paths []string
}

// corpusInputs returns the main file and the substituted source of
// every subject.
func corpusInputs(t *testing.T) []input {
	t.Helper()
	var out []input
	for _, s := range corpus.All() {
		out = append(out, input{s.Name + "/main", s.FS, s.MainFile, s.SearchPaths})
		fs := s.FS.Overlay()
		res, err := core.Substitute(core.Options{
			FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
			Header: s.Header, OutDir: s.OutDir(),
		})
		if err != nil {
			t.Fatalf("%s: substitute: %v", s.Name, err)
		}
		out = append(out, input{s.Name + "/substituted", fs, res.ModifiedSources[s.MainFile], append([]string{s.OutDir()}, s.SearchPaths...)})
	}
	return out
}

// fuzzInputs returns the main files of n generated programs.
func fuzzInputs(n int) []input {
	out := make([]input, 0, n)
	for seed := int64(1); seed <= int64(n); seed++ {
		p := fuzzgen.Generate(fuzzgen.Config{Seed: seed})
		fs := vfs.New()
		for path, content := range p.Files {
			fs.Write(path, content)
		}
		out = append(out, input{p.Name, fs, p.MainFile, p.SearchPaths})
	}
	return out
}

// An edit changes an overlay of an input's files, given the main file's
// content and the cache-less result of the unedited input; it returns
// false when it does not apply to the input.
type edit struct {
	name   string
	resume bool // the edited unit must resume from the unedited one's preamble
	apply  func(fs *vfs.FS, main, src string, base *buildcache.TU) bool
}

func appendMain(text string) func(*vfs.FS, string, string, *buildcache.TU) bool {
	return func(fs *vfs.FS, main, src string, _ *buildcache.TU) bool {
		fs.Write(main, src+text)
		return true
	}
}

var edits = []edit{
	{"append a definition", true, appendMain("\nint preamble_probe_fn() { return 1; }\n")},
	{"append a comment", true, appendMain("\n// a comment after the code\n")},
	{"change a function body", true, func(fs *vfs.FS, main, src string, _ *buildcache.TU) bool {
		i := strings.Index(src[lastDirective(src):], ") {")
		if i < 0 {
			return false
		}
		i += lastDirective(src) + len(") {")
		fs.Write(main, src[:i]+" int preamble_body_edit_ = 1; (void)preamble_body_edit_;"+src[i:])
		return true
	}},
	{"add a #define", true, appendMain("\n#define PREAMBLE_EDIT_MACRO 42\nint preamble_macro_use_ = PREAMBLE_EDIT_MACRO;\n")},
	{"#undef a preamble macro", true, func(fs *vfs.FS, main, src string, base *buildcache.TU) bool {
		names := make([]string, 0, len(base.Result.MacroDefs))
		for name, d := range base.Result.MacroDefs {
			if d.File != main {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			return false
		}
		slices.Sort(names)
		fs.Write(main, src+"\n#undef "+names[0]+"\n")
		return true
	}},
	{"#include after the first code line", true, func(fs *vfs.FS, main, src string, _ *buildcache.TU) bool {
		extra := vfs.Clean(main[:strings.LastIndex(main, "/")+1] + "preamble_extra.hpp")
		fs.Write(extra, "int preamble_extra_decl_ = __LINE__;\n")
		fs.Write(main, src+"\n#include \"preamble_extra.hpp\"\n")
		return true
	}},
	{"__COUNTER__ and __LINE__ in the suffix", true, appendMain("\nint preamble_counter_[] = {__COUNTER__, __COUNTER__, __LINE__};\n")},
	{"edit inside the block", false, func(fs *vfs.FS, main, src string, _ *buildcache.TU) bool {
		i := strings.Index(src, "#include")
		if i < 0 {
			return false
		}
		fs.Write(main, src[:i]+"#define PREAMBLE_BLOCK_EDIT 1\n"+src[i:])
		return true
	}},
	{"edit a file in the closure", false, func(fs *vfs.FS, main, src string, base *buildcache.TU) bool {
		if len(base.Result.Includes) == 0 {
			return false
		}
		h := base.Result.Includes[0]
		content, _ := fs.Read(h)
		fs.Write(h, content+"\n// edited\n")
		fs.Write(main, src+"\nint preamble_probe_fn() { return 1; }\n")
		return true
	}},
	{"a new file at an absent probe", false, func(fs *vfs.FS, main, src string, base *buildcache.TU) bool {
		if len(base.Result.AbsentDeps) == 0 {
			return false
		}
		fs.Write(base.Result.AbsentDeps[0], "")
		fs.Write(main, src+"\nint preamble_probe_fn() { return 1; }\n")
		return true
	}},
}

// lastDirective returns the offset of the last line of src that starts
// with '#', or 0.
func lastDirective(src string) int {
	last := 0
	off := 0
	for _, line := range strings.SplitAfter(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			last = off
		}
		off += len(line)
	}
	return last
}

// checkInput builds in through the cache, then every edit of it twice:
// resumed from the unedited build's tree, and without a cache. The two
// must agree field for field.
func checkInput(t *testing.T, in input) {
	t.Helper()
	c := buildcache.New()
	base, err := frontend.Parse(frontend.Config{FS: in.fs.Overlay(), SearchPaths: in.paths, Cache: c}, in.main, nil)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	held := base.Unit(nil)
	src, err := in.fs.Read(in.main)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edits {
		fs := in.fs.Overlay()
		if !e.apply(fs, in.main, src, base) {
			continue
		}
		reg := obs.NewRegistry()
		got, gotErr := frontend.BuildCached(frontend.Config{FS: fs, SearchPaths: in.paths, Cache: c}, in.main, obs.New(nil, reg), held)
		want, wantErr := frontend.Parse(frontend.Config{FS: fs, SearchPaths: in.paths}, in.main, nil)
		what := fmt.Sprintf("%s, %s", in.name, e.name)
		sameUnit(t, what, got, gotErr, want, wantErr)
		if hits := reg.Counter("frontend.preamble.hits").Value(); (hits == 1) != e.resume {
			t.Errorf("%s: %d preamble hits, want resume=%v", what, hits, e.resume)
		}
	}

	// A different define set is a different cache key, which holds no
	// tree to resume from.
	reg := obs.NewRegistry()
	defs := map[string]string{"PREAMBLE_PROBE_DEFINE": "1"}
	got, gotErr := frontend.Parse(frontend.Config{FS: in.fs.Overlay(), SearchPaths: in.paths, Defines: defs, Cache: c}, in.main, obs.New(nil, reg))
	want, wantErr := frontend.Parse(frontend.Config{FS: in.fs, SearchPaths: in.paths, Defines: defs}, in.main, nil)
	sameUnit(t, in.name+", a different define set", got, gotErr, want, wantErr)
	if hits := reg.Counter("frontend.preamble.hits").Value(); hits != 0 {
		t.Errorf("%s, a different define set: resumed", in.name)
	}
}

// sameUnit fails unless got and want are the same frontend result: the
// same error, or the same Result, Stats and tree.
func sameUnit(t *testing.T, what string, got *buildcache.TU, gotErr error, want *buildcache.TU, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, cache-less %v", what, gotErr, wantErr)
		return
	}
	if wantErr != nil {
		return
	}
	g, w := got.Result, want.Result
	for _, f := range []struct {
		name string
		same bool
	}{
		{"Tokens", slices.Equal(g.Tokens, w.Tokens)},
		{"Includes", reflect.DeepEqual(g.Includes, w.Includes)},
		{"LOC", g.LOC == w.LOC},
		{"DirectDeps", reflect.DeepEqual(g.DirectDeps, w.DirectDeps)},
		{"MissingIncludes", reflect.DeepEqual(g.MissingIncludes, w.MissingIncludes)},
		{"AbsentDeps", reflect.DeepEqual(g.AbsentDeps, w.AbsentDeps)},
		{"MacroDefs", reflect.DeepEqual(g.MacroDefs, w.MacroDefs)},
		{"MacroUses", reflect.DeepEqual(g.MacroUses, w.MacroUses)},
		{"Stats", got.Aux == want.Aux},
		{"tree", sameTree(got.Unit(nil), want.Unit(nil), len(w.Tokens))},
	} {
		if !f.same {
			t.Errorf("%s: %s differs from the cache-less build", what, f.name)
		}
	}
	// Catch a Result field the list above does not name.
	gr, wr := *g, *w
	gr.Tokens, wr.Tokens = nil, nil
	if !reflect.DeepEqual(gr, wr) {
		t.Errorf("%s: Result differs from the cache-less build", what)
	}
}

// sameTree compares two trees of a unit of n tokens: field for field
// below 200 000 tokens, and by the kind and extent of every node
// above, where reflect.DeepEqual would dominate the sweep.
func sameTree(a, b *ast.TranslationUnit, n int) bool {
	if n < 200_000 {
		return reflect.DeepEqual(a.Decls, b.Decls)
	}
	return slices.Equal(shape(a), shape(b))
}

// nodeShape is one node of a tree's shape: its type and extent.
type nodeShape struct {
	typ      reflect.Type
	pos, end token.Pos
}

func shape(tu *ast.TranslationUnit) []nodeShape {
	var out []nodeShape
	ast.Inspect(tu, func(n ast.Node) {
		out = append(out, nodeShape{reflect.TypeOf(n), n.Pos(), n.End()})
	})
	return out
}

// TestPreambleResumeIdentity checks every edit on the main file and the
// substituted source of every subject and on generated programs: an
// edit after the preamble resumes from it, an edit that reaches the
// preamble does not, and either way the unit is the one a cache-less
// build makes.
func TestPreambleResumeIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	if raceEnabled {
		// One goroutine: TestConcurrentParsesResumeOnePreamble races the
		// shared preamble.
		t.Skip("single-goroutine corpus sweep under -race")
	}
	inputs := append(corpusInputs(t), fuzzInputs(100)...)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			checkInput(t, in)
		})
	}
}

// TestConcurrentParsesResumeOnePreamble has eight goroutines build eight
// different saves of one key at once: each resumes from the one preamble
// the key's first build captured, and equals its cache-less build. The
// trees are compared after all builds: reading the tree of a variant a
// newer one superseded re-parses it, and that tree, which carries no
// preamble, becomes the one the key holds.
func TestConcurrentParsesResumeOnePreamble(t *testing.T) {
	in := fuzzInputs(1)[0]
	c := buildcache.New()
	reg := obs.NewRegistry()
	o := obs.New(nil, reg)
	if _, err := frontend.Parse(frontend.Config{FS: in.fs.Overlay(), SearchPaths: in.paths, Cache: c}, in.main, o); err != nil {
		t.Fatal(err)
	}
	src, _ := in.fs.Read(in.main)
	fss := make([]*vfs.FS, 8)
	got := make([]*buildcache.TU, 8)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range fss {
		fss[i] = in.fs.Overlay()
		fss[i].Write(in.main, src+fmt.Sprintf("\nint preamble_save_%d() { return %d; }\n", i, i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = frontend.Parse(frontend.Config{FS: fss[i], SearchPaths: in.paths, Cache: c}, in.main, o)
		}()
	}
	wg.Wait()
	hits, misses := reg.Counter("frontend.preamble.hits").Value(), reg.Counter("frontend.preamble.misses").Value()
	if hits != 8 || misses != 1 {
		t.Errorf("preamble hits %d, misses %d; want 8 saves resumed from the first build's preamble", hits, misses)
	}
	for i, fs := range fss {
		want, wantErr := frontend.Parse(frontend.Config{FS: fs, SearchPaths: in.paths}, in.main, nil)
		sameUnit(t, fmt.Sprintf("save %d", i), got[i], errs[i], want, wantErr)
	}
}
