package vfs

import (
	"fmt"
	"path"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteRead(t *testing.T) {
	fs := New()
	fs.Write("a/b.hpp", "int x;")
	got, err := fs.Read("a/b.hpp")
	if err != nil || got != "int x;" {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.Read("nope.hpp"); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestCleanNormalizesPaths(t *testing.T) {
	fs := New()
	fs.Write("./x/../y/z.hpp", "c")
	if !fs.Exists("y/z.hpp") {
		t.Fatal("path not normalized")
	}
	if got, _ := fs.Read("y/./z.hpp"); got != "c" {
		t.Fatalf("read via alt spelling = %q", got)
	}
}

func TestListSortedAndGlob(t *testing.T) {
	fs := New()
	fs.Write("b.hpp", "")
	fs.Write("a.hpp", "")
	fs.Write("kokkos/core.hpp", "")
	l := fs.List()
	if len(l) != 3 || l[0] != "a.hpp" || l[1] != "b.hpp" {
		t.Fatalf("List = %v", l)
	}
	g := fs.Glob("kokkos/")
	if len(g) != 1 || g[0] != "kokkos/core.hpp" {
		t.Fatalf("Glob = %v", g)
	}
}

func TestCloneIsolation(t *testing.T) {
	fs := New()
	fs.Write("f", "orig")
	c := fs.Clone()
	c.Write("f", "changed")
	if got, _ := fs.Read("f"); got != "orig" {
		t.Fatal("clone mutated original")
	}
}

func TestRemoveAndSize(t *testing.T) {
	fs := New()
	fs.Write("f", "x")
	if fs.Size() != 1 {
		t.Fatalf("Size = %d", fs.Size())
	}
	fs.Remove("f")
	if fs.Exists("f") || fs.Size() != 0 {
		t.Fatal("Remove failed")
	}
	fs.Remove("f") // no-op
}

func TestTotalBytes(t *testing.T) {
	fs := New()
	fs.Write("a", "12345")
	fs.Write("b", "123")
	if n := fs.TotalBytes(); n != 8 {
		t.Fatalf("TotalBytes = %d", n)
	}
}

func TestPropertyWriteThenReadRoundTrips(t *testing.T) {
	fs := New()
	f := func(name, contents string) bool {
		if name == "" {
			return true
		}
		fs.Write(name, contents)
		got, err := fs.Read(name)
		return err == nil && got == contents
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCleanIdempotent(t *testing.T) {
	f := func(p string) bool { return Clean(Clean(p)) == Clean(p) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCleanMatchesReference compares Clean with the expression it
// short-cuts, over every path of up to four elements drawn from the
// spellings that need cleaning (empty, ".", "..") and plain names, with
// and without leading and trailing slashes. Already-canonical paths must
// come back without allocating.
func TestCleanMatchesReference(t *testing.T) {
	reference := func(p string) string { return strings.TrimPrefix(path.Clean("/"+p), "/") }
	elems := []string{"", ".", "..", "a", "bc", ".d", "e.."}
	paths := []string{""}
	for n := 1; n <= 4; n++ {
		var next []string
		for _, p := range paths {
			for _, e := range elems {
				if n == 1 {
					next = append(next, e)
				} else {
					next = append(next, p+"/"+e)
				}
			}
		}
		paths = next
		for _, p := range paths {
			for _, q := range []string{p, "/" + p, p + "/", "/" + p + "/"} {
				got, want := Clean(q), reference(q)
				if got != want {
					t.Fatalf("Clean(%q) = %q, want %q", q, got, want)
				}
				if got == q {
					if allocs := testing.AllocsPerRun(10, func() { Clean(q) }); allocs != 0 {
						t.Fatalf("Clean(%q) allocates %v times on a canonical path", q, allocs)
					}
				}
			}
		}
	}
}

func TestContentHash(t *testing.T) {
	fs := New()
	fs.Write("a.hpp", "int x;")
	h1, ok := fs.ContentHash("a.hpp")
	if !ok || h1 == "" {
		t.Fatalf("ContentHash = %q, %v", h1, ok)
	}
	// Memoized value is stable.
	if h2, _ := fs.ContentHash("a.hpp"); h2 != h1 {
		t.Fatalf("memoized hash %q != %q", h2, h1)
	}
	// Rewriting the file invalidates the memo.
	fs.Write("a.hpp", "int y;")
	h3, _ := fs.ContentHash("a.hpp")
	if h3 == h1 {
		t.Fatal("hash unchanged after rewrite")
	}
	// Clones share hashes for identical content but diverge after edits.
	cl := fs.Clone()
	hc, _ := cl.ContentHash("a.hpp")
	if hc != h3 {
		t.Fatalf("clone hash %q != %q", hc, h3)
	}
	cl.Write("a.hpp", "int z;")
	hz, _ := cl.ContentHash("a.hpp")
	if hz == h3 {
		t.Fatal("clone edit did not change its hash")
	}
	if back, _ := fs.ContentHash("a.hpp"); back != h3 {
		t.Fatal("clone edit leaked into the parent FS")
	}
	// Missing files report no hash.
	if _, ok := fs.ContentHash("missing.hpp"); ok {
		t.Fatal("hash for a missing file")
	}
	fs.Remove("a.hpp")
	if _, ok := fs.ContentHash("a.hpp"); ok {
		t.Fatal("hash survived Remove")
	}
}

func TestOverlayReadThroughAndCOW(t *testing.T) {
	base := New()
	base.Write("hdr.hpp", "base")
	base.Write("keep.hpp", "kept")
	ov := base.Overlay()

	if got, _ := ov.Read("hdr.hpp"); got != "base" {
		t.Fatalf("overlay read-through = %q", got)
	}
	ov.Write("hdr.hpp", "edited")
	if got, _ := ov.Read("hdr.hpp"); got != "edited" {
		t.Fatalf("overlay after write = %q", got)
	}
	if got, _ := base.Read("hdr.hpp"); got != "base" {
		t.Fatal("overlay write leaked into base")
	}
	if !ov.Exists("keep.hpp") {
		t.Fatal("base file invisible through overlay")
	}
}

func TestOverlayTombstones(t *testing.T) {
	base := New()
	base.Write("a.hpp", "x")
	ov := base.Overlay()
	ov.Remove("a.hpp")
	if ov.Exists("a.hpp") {
		t.Fatal("tombstoned file still visible")
	}
	if _, err := ov.Read("a.hpp"); err == nil {
		t.Fatal("tombstoned file readable")
	}
	if _, ok := ov.ContentHash("a.hpp"); ok {
		t.Fatal("tombstoned file has a hash")
	}
	if !base.Exists("a.hpp") {
		t.Fatal("overlay Remove leaked into base")
	}
	// Re-writing over a tombstone resurrects the path.
	ov.Write("a.hpp", "y")
	if got, _ := ov.Read("a.hpp"); got != "y" {
		t.Fatalf("resurrected read = %q", got)
	}
	if got := ov.List(); len(got) != 1 || got[0] != "a.hpp" {
		t.Fatalf("List after resurrect = %v", got)
	}
}

func TestOverlayListGlobSizeBytes(t *testing.T) {
	base := New()
	base.Write("inc/a.hpp", "aa")
	base.Write("inc/b.hpp", "bb")
	base.Write("src/main.cpp", "mm")
	ov := base.Overlay()
	ov.Write("inc/c.hpp", "cc")
	ov.Remove("inc/b.hpp")
	ov.Write("src/main.cpp", "edited")

	want := []string{"inc/a.hpp", "inc/c.hpp", "src/main.cpp"}
	got := ov.List()
	if len(got) != len(want) {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if g := ov.Glob("inc/"); len(g) != 2 {
		t.Fatalf("Glob = %v", g)
	}
	if ov.Size() != 3 {
		t.Fatalf("Size = %d", ov.Size())
	}
	if n := ov.TotalBytes(); n != len("aa")+len("cc")+len("edited") {
		t.Fatalf("TotalBytes = %d", n)
	}
	// Base stays intact.
	if base.Size() != 3 || !base.Exists("inc/b.hpp") {
		t.Fatal("base mutated by overlay")
	}
}

func TestOverlayContentHashDelegation(t *testing.T) {
	base := New()
	base.Write("a.hpp", "int x;")
	hb, _ := base.ContentHash("a.hpp")
	ov := base.Overlay()
	ho, ok := ov.ContentHash("a.hpp")
	if !ok || ho != hb {
		t.Fatalf("overlay hash %q != base hash %q", ho, hb)
	}
	ov.Write("a.hpp", "int y;")
	h2, _ := ov.ContentHash("a.hpp")
	if h2 == hb {
		t.Fatal("edited overlay file kept the base hash")
	}
	if back, _ := base.ContentHash("a.hpp"); back != hb {
		t.Fatal("overlay edit changed the base hash")
	}
}

func TestOverlayCloneSharesBase(t *testing.T) {
	base := New()
	base.Write("a.hpp", "base")
	ov := base.Overlay()
	ov.Write("b.hpp", "local")
	cl := ov.Clone()
	if got, _ := cl.Read("a.hpp"); got != "base" {
		t.Fatal("clone lost the base layer")
	}
	cl.Write("b.hpp", "clone-edit")
	if got, _ := ov.Read("b.hpp"); got != "local" {
		t.Fatal("clone edit leaked into the overlay")
	}
	cl.Remove("a.hpp")
	if !ov.Exists("a.hpp") {
		t.Fatal("clone tombstone leaked into the overlay")
	}
}

// TestOverlayConcurrentReadersOneWriter is the daemon-session contract:
// many request goroutines read a session tree (Read/Exists/ContentHash/
// List) while one writer applies edits. Run under -race.
func TestOverlayConcurrentReadersOneWriter(t *testing.T) {
	base := New()
	for i := 0; i < 64; i++ {
		base.Write(fmt.Sprintf("inc/h%02d.hpp", i), fmt.Sprintf("// header %d", i))
	}
	ov := base.Overlay()
	ov.Write("main.cpp", "int main() { return 0; }")

	const readers = 8
	const rounds = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := fmt.Sprintf("inc/h%02d.hpp", (r*7+i)%64)
				if _, err := ov.Read(p); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if !ov.Exists("main.cpp") {
					t.Error("main.cpp vanished")
					return
				}
				if _, ok := ov.ContentHash(p); !ok {
					t.Errorf("no hash for %s", p)
					return
				}
				if c, err := ov.Read("main.cpp"); err != nil || c == "" {
					t.Errorf("main read = %q, %v", c, err)
					return
				}
				if i%16 == 0 {
					ov.List()
					ov.Clone().Read("main.cpp")
				}
			}
		}(r)
	}
	for i := 0; i < rounds; i++ {
		ov.Write("main.cpp", fmt.Sprintf("int main() { return %d; }", i))
		ov.ContentHash("main.cpp")
		if i%50 == 0 {
			ov.Write(fmt.Sprintf("gen/g%d.hpp", i), "// generated")
		}
	}
	close(stop)
	wg.Wait()
}
