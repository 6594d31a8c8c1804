package buildcache

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

func TestTokensHitEqualsFreshLex(t *testing.T) {
	c := New()
	const src = "int add(int a, int b) { return a + b; }\n"
	fresh, err := lexer.Tokenize("a.cpp", src)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Tokens("a.cpp", src, func() ([]token.Token, error) {
		return lexer.Tokenize("a.cpp", src)
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Tokens("a.cpp", src, func() ([]token.Token, error) {
		t.Fatal("lex called on a hit")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first) {
		t.Fatal("cached miss differs from a fresh lex")
	}
	if &first[0] != &second[0] || len(first) != len(second) {
		t.Fatal("hit did not return the shared stream")
	}
	st := c.Stats()
	if st.TokenHits != 1 || st.TokenMisses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.BytesSaved != uint64(len(src)) {
		t.Fatalf("BytesSaved = %d, want %d", st.BytesSaved, len(src))
	}
}

func TestTokensSamePathDifferentContent(t *testing.T) {
	c := New()
	lex := func(name, src string) []token.Token {
		toks, err := c.Tokens(name, src, func() ([]token.Token, error) {
			return lexer.Tokenize(name, src)
		})
		if err != nil {
			t.Fatal(err)
		}
		return toks
	}
	v1 := lex("f.hpp", "int x;")
	v2 := lex("f.hpp", "int y;")
	if v1[0].Text != "int" || v2[0].Text != "int" {
		t.Fatalf("unexpected streams %v %v", v1, v2)
	}
	if v1[1].Text == v2[1].Text {
		t.Fatal("rewritten file served stale tokens")
	}
	st := c.Stats()
	if st.TokenMisses != 2 || st.TokenHits != 0 {
		t.Fatalf("stats = %+v, want two distinct entries", st)
	}
}

func TestTokensErrorNotCached(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	calls := 0
	lex := func() ([]token.Token, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return lexer.Tokenize("a.cpp", "int x;")
	}
	if _, err := c.Tokens("a.cpp", "int x;", lex); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := c.Tokens("a.cpp", "int x;", lex); err != nil {
		t.Fatalf("second call should re-lex, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("lex calls = %d, want 2 (failures are not pinned)", calls)
	}
}

func TestTokensSingleflight(t *testing.T) {
	c := New()
	var calls atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			toks, err := c.Tokens("a.cpp", "int x;", func() ([]token.Token, error) {
				calls.Add(1)
				return lexer.Tokenize("a.cpp", "int x;")
			})
			if err != nil || len(toks) == 0 {
				t.Errorf("Tokens: %v (%d toks)", err, len(toks))
			}
		}()
	}
	close(start)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("lex ran %d times, want 1", calls.Load())
	}
}

func TestTokenEviction(t *testing.T) {
	c := New()
	c.maxTokenEntries = 4
	for i := 0; i < 10; i++ {
		src := string(rune('a'+i)) + ";"
		if _, err := c.Tokens("f.hpp", src, func() ([]token.Token, error) {
			return lexer.Tokenize("f.hpp", src)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding maxTokenEntries")
	}
	if len(c.lex) > c.maxTokenEntries {
		t.Fatalf("map holds %d entries, bound is %d", len(c.lex), c.maxTokenEntries)
	}
}

func tuFS(t *testing.T, files map[string]string) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	for p, src := range files {
		fs.Write(p, src)
	}
	return fs
}

func TestTranslationUnitManifestValidation(t *testing.T) {
	fs := tuFS(t, map[string]string{
		"main.cpp": `#include "a.hpp"` + "\nint main() {}\n",
		"a.hpp":    "int a();\n",
	})
	c := New()
	builds := 0
	build := func(*ast.TranslationUnit) (*TU, []Dep, error) {
		builds++
		h1, _ := fs.ContentHash("main.cpp")
		h2, _ := fs.ContentHash("a.hpp")
		return &TU{}, []Dep{
			{Path: "main.cpp", Hash: h1},
			{Path: "a.hpp", Hash: h2},
			{Path: "local/a.hpp"}, // negative: probe that missed
		}, nil
	}
	key := ConfigKey("compilesim", "main.cpp")

	if _, hit, err := c.TranslationUnit(key, nil, Validator(fs), build); err != nil || hit {
		t.Fatalf("first call: hit=%v err=%v", hit, err)
	}
	if _, hit, err := c.TranslationUnit(key, nil, Validator(fs), build); err != nil || !hit {
		t.Fatalf("unchanged inputs: hit=%v err=%v, want hit", hit, err)
	}

	// A clone with identical content still hits: the manifest is
	// content-addressed, not FS-identity-addressed.
	if _, hit, _ := c.TranslationUnit(key, nil, Validator(fs.Clone()), build); !hit {
		t.Fatal("identical clone should hit")
	}

	// Editing a recorded dependency invalidates the entry.
	fs2 := fs.Clone()
	fs2.Write("a.hpp", "int a();\nint b();\n")
	if _, hit, _ := c.TranslationUnit(key, nil, Validator(fs2), build); hit {
		t.Fatal("edited dependency must miss")
	}

	// Creating a file where a negative dep recorded an absence
	// invalidates the entry (include resolution would now differ).
	fs3 := fs.Clone()
	fs3.Write("local/a.hpp", "int shadow();\n")
	if _, hit, _ := c.TranslationUnit(key, nil, Validator(fs3), build); hit {
		t.Fatal("violated negative dep must miss")
	}
	if builds != 3 {
		t.Fatalf("builds = %d, want 3 (one per distinct input set)", builds)
	}
}

func TestTranslationUnitVariantEviction(t *testing.T) {
	c := New()
	c.maxTUVariants = 2
	key := ConfigKey("k")
	never := func(Dep) bool { return false }
	for i := 0; i < 5; i++ {
		_, _, err := c.TranslationUnit(key, nil, never, func(*ast.TranslationUnit) (*TU, []Dep, error) {
			return &TU{}, []Dep{{Path: "p", Hash: "h"}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.tus[key]); n > 2 {
		t.Fatalf("variants = %d, want <= 2", n)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no variant evictions recorded")
	}
}

func TestTranslationUnitErrorNotCached(t *testing.T) {
	c := New()
	key := ConfigKey("k")
	boom := errors.New("boom")
	always := func(Dep) bool { return true }
	if _, _, err := c.TranslationUnit(key, nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
		return nil, nil, boom
	}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, hit, err := c.TranslationUnit(key, nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
		return &TU{}, nil, nil
	}); err != nil || hit {
		t.Fatalf("after failure: hit=%v err=%v, want fresh build", hit, err)
	}
}

func TestTranslationUnitSingleflight(t *testing.T) {
	c := New()
	reg := obs.NewRegistry()
	c.AttachMetrics(obs.New(nil, reg))
	dedup := reg.Counter("buildcache.singleflight.dedup")
	tracer := obs.NewTracer(nil)
	root := obs.New(tracer, nil)
	key := ConfigKey("k")
	var builds atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		o := root.Lane(fmt.Sprintf("caller %d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _, err := c.TranslationUnit(key, o, func(Dep) bool { return true }, func(*ast.TranslationUnit) (*TU, []Dep, error) {
				builds.Add(1)
				sp := o.Start("build")
				defer sp.End()
				// Finish only once the seven others wait, and give them
				// time to open their wait spans.
				for dedup.Value() < 7 {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond)
				return &TU{}, []Dep{{Path: "p", Hash: "h"}}, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("build ran %d times, want 1", builds.Load())
	}
	st := c.Stats()
	if st.TUMisses != 1 || st.TUHits != 7 {
		t.Fatalf("stats = %+v, want 1 miss / 7 hits", st)
	}

	// Each waiter's buildcache.wait span covers the build it waited for.
	var buildEnd float64
	var waits [][2]float64
	for _, ev := range spans(t, tracer) {
		switch ev.Name {
		case "build":
			buildEnd = ev.Ts + ev.Dur
		case "buildcache.wait":
			waits = append(waits, [2]float64{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	if len(waits) != 7 {
		t.Fatalf("%d buildcache.wait spans, want one per waiter (7)", len(waits))
	}
	for _, w := range waits {
		if w[0] > buildEnd-15e3 || w[1] < buildEnd {
			t.Errorf("wait span [%.0f, %.0f] µs does not cover the build's last 15 ms (it ended at %.0f µs)", w[0], w[1], buildEnd)
		}
	}
}

// span is one complete span of an exported trace.
type span struct {
	Name    string
	Ts, Dur float64 // µs
	Args    map[string]any
}

// spans returns the spans tracer recorded.
func spans(t *testing.T, tracer *obs.Tracer) []span {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []span }
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	return trace.TraceEvents
}

func TestFileKeyAndConfigKey(t *testing.T) {
	if FileKey("a", "x") == FileKey("b", "x") {
		t.Fatal("path must participate in FileKey")
	}
	if FileKey("a", "x") == FileKey("a", "y") {
		t.Fatal("content must participate in FileKey")
	}
	// The separator must prevent boundary ambiguity.
	if ConfigKey("ab", "c") == ConfigKey("a", "bc") {
		t.Fatal("ConfigKey parts must be delimited")
	}
}

func TestTranslationUnitGlobalLRUEviction(t *testing.T) {
	c := New()
	c.MaxTUEntries = 2
	always := func(Dep) bool { return true }
	add := func(name string) {
		t.Helper()
		built := false
		_, cached, err := c.TranslationUnit(ConfigKey(name), nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
			built = true
			return &TU{Aux: name}, []Dep{{Path: name, Hash: "h"}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !built || cached {
			t.Fatalf("%s: expected a fresh build", name)
		}
	}
	hit := func(name string) bool {
		t.Helper()
		val, cached, err := c.TranslationUnit(ConfigKey(name), nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
			return &TU{Aux: name}, []Dep{{Path: name, Hash: "h"}}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if cached && val.Aux != name {
			t.Fatalf("%s: wrong entry served", name)
		}
		return cached
	}

	add("a")
	add("b")
	if !hit("a") { // refresh a's recency: LRU order is now b, a
		t.Fatal("a should be cached")
	}
	add("c") // cap 2: evicts b, the least recently used
	if !hit("a") {
		t.Fatal("recently-used a was evicted")
	}
	if !hit("c") {
		t.Fatal("newest entry c was evicted")
	}
	if hit("b") {
		t.Fatal("LRU entry b survived past the cap")
	}
	if ev := c.Stats().Evictions; ev < 2 {
		t.Fatalf("Evictions = %d, want >= 2 (b evicted, then an entry for b's rebuild)", ev)
	}
}

func TestTranslationUnitLRUEvictionCounterInRegistry(t *testing.T) {
	c := New()
	c.MaxTUEntries = 1
	reg := obs.NewRegistry()
	c.AttachMetrics(obs.New(nil, reg))
	always := func(Dep) bool { return true }
	for _, name := range []string{"a", "b", "c"} {
		if _, _, err := c.TranslationUnit(ConfigKey(name), nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
			return &TU{}, nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 || st.EvictedBytes == 0 {
		t.Fatalf("stats = %+v, want evictions with their bytes counted", st)
	}
	if got := reg.Counter("buildcache.evictions").Value(); got != st.Evictions {
		t.Fatalf("registry evictions = %d, Stats().Evictions = %d", got, st.Evictions)
	}
	if got := reg.Counter("buildcache.evicted_bytes").Value(); got != st.EvictedBytes {
		t.Fatalf("registry evicted_bytes = %d, Stats().EvictedBytes = %d", got, st.EvictedBytes)
	}
}

func TestTranslationUnitLRUDisabledByDefault(t *testing.T) {
	c := New()
	always := func(Dep) bool { return true }
	for i := 0; i < 50; i++ {
		if _, _, err := c.TranslationUnit(ConfigKey(fmt.Sprintf("k%d", i)), nil, always, func(*ast.TranslationUnit) (*TU, []Dep, error) {
			return &TU{}, nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions with no cap set: %d", ev)
	}
	if n := c.tuLRU.Len(); n != 50 {
		t.Fatalf("LRU tracks %d entries, want 50", n)
	}
}
