package buildcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// variant builds version i of one translation unit, with its tree: a
// main file declaring i+1 functions, so each version's tree has its own
// top-level declaration count. Its manifest is one dependency whose
// hash names the version, so variantValid(i) accepts only version i.
func variant(t testing.TB, i int) (*TU, []Dep) {
	t.Helper()
	var src strings.Builder
	for j := 0; j <= i; j++ {
		fmt.Fprintf(&src, "int f%d(int x);\n", j)
	}
	fs := vfs.New()
	fs.Write("main.cpp", src.String())
	res, err := preprocessor.New(fs).Preprocess("main.cpp")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := parser.New(res.Tokens).Parse()
	if err != nil {
		t.Fatal(err)
	}
	return NewTU(res, tree, nil), []Dep{{Path: "main.cpp", Hash: fmt.Sprint(i)}}
}

func variantValid(i int) func(Dep) bool {
	return func(d Dep) bool { return d.Hash == fmt.Sprint(i) }
}

// checkOneTree fails unless at most one variant of key holds a tree,
// Stats().ResidentBytes equals the sum of every entry's token share plus
// the tree share of the entries holding trees, and the resident gauge
// (when reg is set) mirrors it. It returns the variants holding trees,
// by index in insertion order.
func checkOneTree(t *testing.T, c *Cache, key string, reg *obs.Registry) []int {
	t.Helper()
	c.mu.Lock()
	var holders []int
	want := 0
	for _, es := range c.tus {
		for _, e := range es {
			want += tokenShare(e.val, e.deps)
			if e.val.tree.Load() != nil {
				want += treeShare(e.val)
			}
		}
	}
	for i, e := range c.tus[key] {
		if e.val.tree.Load() != nil {
			holders = append(holders, i)
		}
	}
	c.mu.Unlock()
	if len(holders) > 1 {
		t.Errorf("variants %v of one key hold trees, want at most one", holders)
	}
	st := c.Stats()
	if st.ResidentBytes != uint64(want) {
		t.Errorf("ResidentBytes = %d, want %d (token shares plus held trees)", st.ResidentBytes, want)
	}
	if reg != nil {
		if g := reg.Gauge("buildcache.resident_bytes").Value(); g != int64(st.ResidentBytes) {
			t.Errorf("buildcache.resident_bytes = %d, Stats().ResidentBytes = %d", g, st.ResidentBytes)
		}
	}
	return holders
}

// TestReleaseKeepsOneTreePerKey inserts three variants of one key, each
// built with a tree: only the newest keeps it, the cache charges three
// token shares and one tree share, and a tree consumer that hits the
// oldest variant gets back, through one re-parse, a tree of the shape
// it had — which then becomes the key's only tree.
func TestReleaseKeepsOneTreePerKey(t *testing.T) {
	c := New()
	reg := obs.NewRegistry()
	c.AttachMetrics(obs.New(nil, reg))
	key := ConfigKey("k")
	var built []*TU
	for i := 0; i < 3; i++ {
		if _, cached, err := c.TranslationUnit(key, variantValid(i), func() (*TU, []Dep, error) {
			tu, deps := variant(t, i)
			built = append(built, tu)
			return tu, deps, nil
		}); err != nil || cached {
			t.Fatalf("insert %d: cached=%v err=%v, want a build", i, cached, err)
		}
	}
	if holders := checkOneTree(t, c, key, reg); len(holders) != 1 || holders[0] != 2 {
		t.Fatalf("tree holders = %v, want only the newest variant (2)", holders)
	}
	want := 0
	for _, e := range c.tus[key] {
		want += tokenShare(e.val, e.deps)
	}
	want += treeShare(c.tus[key][2].val)
	if got := c.Stats().ResidentBytes; got != uint64(want) {
		t.Fatalf("ResidentBytes = %d, want three token shares plus one tree share = %d", got, want)
	}

	oldest, cached, err := c.TranslationUnit(key, variantValid(0), func() (*TU, []Dep, error) {
		t.Fatal("rebuilt a cached variant")
		return nil, nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("hit on the oldest variant: cached=%v err=%v", cached, err)
	}
	units := reg.Counter("parser.units")
	tree := oldest.Unit(obs.New(nil, reg))
	if tree == nil {
		t.Fatal("Unit did not re-parse the released variant")
	}
	if got, want := len(tree.Decls), len(built[0].Unit(nil).Decls); got != want {
		t.Fatalf("re-parsed tree has %d top-level declarations, the released one had %d", got, want)
	}
	if again := oldest.Unit(nil); again != tree {
		t.Fatal("Unit re-parsed a variant that holds its tree")
	}
	if n := units.Value(); n != 1 {
		t.Fatalf("parser.units = %d, want the one re-parse", n)
	}
	if holders := checkOneTree(t, c, key, reg); len(holders) != 1 || holders[0] != 0 {
		t.Fatalf("tree holders = %v after the re-parse, want only the oldest variant (0)", holders)
	}
}

// TestReleaseRacesUnit has goroutines read trees of older variants
// through Unit while others insert new variants of the same key. Run it
// under -race: every Unit must return the tree of the variant it hit,
// and the cache must end with at most one tree and an exact charge.
func TestReleaseRacesUnit(t *testing.T) {
	const versions = 6
	tus := make([]*TU, versions)
	deps := make([][]Dep, versions)
	decls := make([]int, versions)
	for i := range tus {
		tus[i], deps[i] = variant(t, i)
		decls[i] = len(tus[i].Unit(nil).Decls)
	}
	c := New()
	c.maxTUVariants = 3 // builders also evict, so Unit races eviction too
	reg := obs.NewRegistry()
	c.AttachMetrics(obs.New(nil, reg))
	key := ConfigKey("k")
	get := func(i int) *TU {
		val, _, err := c.TranslationUnit(key, variantValid(i), func() (*TU, []Dep, error) {
			return NewTU(tus[i].Result, tus[i].Unit(nil), nil), deps[i], nil
		})
		if err != nil {
			t.Error(err)
		}
		return val
	}
	get(0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (w + round) % versions
				if w%2 == 0 {
					get(i) // a builder: inserts i when it is not cached
					continue
				}
				val := get(i)
				if tree := val.Unit(nil); tree == nil || len(tree.Decls) != decls[i] {
					t.Errorf("variant %d: Unit returned the wrong tree", i)
				}
			}
		}(w)
	}
	wg.Wait()
	checkOneTree(t, c, key, reg)
}

// TestReleaseAdoptedEntryChargesNoTree adopts an entry from the remote
// tier: it arrives without a tree, so the cache charges only its token
// share until a tree consumer re-parses it.
func TestReleaseAdoptedEntryChargesNoTree(t *testing.T) {
	be := newFakeBackend()
	a, b := New(), New()
	a.Remote, b.Remote = be, be
	key := ConfigKey("k")
	if _, _, err := a.TranslationUnit(key, variantValid(0), func() (*TU, []Dep, error) {
		tu, deps := variant(t, 0)
		return tu, deps, nil
	}); err != nil {
		t.Fatal(err)
	}
	got, cached, err := b.TranslationUnit(key, variantValid(0), func() (*TU, []Dep, error) {
		t.Fatal("node B built despite a remote hit")
		return nil, nil, nil
	})
	if err != nil || !cached {
		t.Fatalf("node B: cached=%v err=%v, want a remote hit", cached, err)
	}
	e := b.tus[key][0]
	tok := tokenShare(e.val, e.deps)
	if st := b.Stats(); st.ResidentBytes != uint64(tok) {
		t.Fatalf("adopted entry charged %d bytes, want its token share %d and no tree", st.ResidentBytes, tok)
	}
	if got.Unit(nil) == nil {
		t.Fatal("adopted entry cannot reconstruct its tree")
	}
	if st := b.Stats(); st.ResidentBytes != uint64(tok+treeShare(e.val)) {
		t.Fatalf("after the re-parse, charged %d bytes, want token and tree shares %d", st.ResidentBytes, tok+treeShare(e.val))
	}
}
