// Package vfs provides an in-memory filesystem used to hold C++ source
// trees: the synthetic library corpora, user subjects, and YALLA's
// generated outputs. It stands in for the developer's working directory
// in the paper's workflow (Figure 6).
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// FS is a thread-safe in-memory filesystem keyed by slash-separated paths.
// The zero value is not usable; call New.
//
// An FS can be a copy-on-write overlay over a base tree (see Overlay):
// reads fall through to the base, writes and removals stay local. The
// base must not be mutated while overlays over it are in use; the
// corpora already follow this contract ("treat them as read-only").
type FS struct {
	mu    sync.RWMutex
	files map[string]string
	// hashes lazily memoizes per-file content hashes for the build cache;
	// entries are invalidated on Write/Remove and copied by Clone.
	hashes map[string]string
	// tombs marks paths deleted in this layer that still exist in the
	// base; nil for a plain filesystem.
	tombs map[string]bool
	// base is the read-only layer under this one, or nil.
	base *FS
	// reads, when set via SetReadCounter, counts Read calls. Clones share
	// the counter, so one instrument aggregates a whole subject tree's
	// traffic. The nil counter (the default) costs one branch per Read.
	reads *obs.Counter
}

// New returns an empty filesystem.
func New() *FS {
	return &FS{files: make(map[string]string), hashes: make(map[string]string)}
}

// Overlay returns a copy-on-write layer over fs: reads fall through to
// fs, writes and removals are local to the returned layer. The base is
// shared, not copied, so creating an overlay is O(1) regardless of tree
// size — one daemon session per client stays cheap even over the ~580
// header corpora. The caller must not mutate fs while the overlay is in
// use. The overlay starts with the base's read counter attached.
func (fs *FS) Overlay() *FS {
	fs.mu.RLock()
	reads := fs.reads
	fs.mu.RUnlock()
	return &FS{
		files:  make(map[string]string),
		hashes: make(map[string]string),
		tombs:  make(map[string]bool),
		base:   fs,
		reads:  reads,
	}
}

// Clean normalizes a path to the canonical internal form: relative,
// slash-separated, with no empty, "." or ".." element. A path already in
// that form (every path the build cache records is) comes back unchanged
// without allocating.
func Clean(p string) string {
	if isClean(p) {
		return p
	}
	return strings.TrimPrefix(path.Clean("/"+p), "/")
}

// isClean reports whether p is "" or a relative path whose elements are
// all non-empty and neither "." nor "..".
func isClean(p string) bool {
	for start := 0; start <= len(p); {
		end := strings.IndexByte(p[start:], '/')
		if end < 0 {
			end = len(p)
		} else {
			end += start
		}
		switch p[start:end] {
		case "", ".", "..":
			return p == ""
		}
		start = end + 1
	}
	return true
}

// Write creates or replaces the file at p with contents.
func (fs *FS) Write(p, contents string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = Clean(p)
	fs.files[p] = contents
	delete(fs.hashes, p)
	delete(fs.tombs, p)
}

// SetReadCounter attaches a read-traffic instrument (typically
// obs.Registry's "vfs.reads"). Pass nil to detach.
func (fs *FS) SetReadCounter(c *obs.Counter) {
	fs.mu.Lock()
	fs.reads = c
	fs.mu.Unlock()
}

// get looks p up through the layer chain without touching read counters.
func (fs *FS) get(p string) (string, bool) {
	for l := fs; l != nil; {
		l.mu.RLock()
		c, ok := l.files[p]
		tomb := l.tombs[p]
		base := l.base
		l.mu.RUnlock()
		if ok {
			return c, true
		}
		if tomb {
			return "", false
		}
		l = base
	}
	return "", false
}

// Read returns the contents of p.
func (fs *FS) Read(p string) (string, error) {
	fs.mu.RLock()
	fs.reads.Add(1)
	fs.mu.RUnlock()
	c, ok := fs.get(Clean(p))
	if !ok {
		return "", fmt.Errorf("vfs: open %s: file does not exist", p)
	}
	return c, nil
}

// Exists reports whether p is a file in the filesystem.
func (fs *FS) Exists(p string) bool {
	_, ok := fs.get(Clean(p))
	return ok
}

// Remove deletes p; it is a no-op if p does not exist.
func (fs *FS) Remove(p string) {
	p = Clean(p)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, p)
	delete(fs.hashes, p)
	if fs.base != nil && fs.base.Exists(p) {
		fs.tombs[p] = true
	}
}

// ContentHash returns a stable content hash for p, or ok=false if p does
// not exist. Hashes are memoized per file until the file is rewritten, so
// repeated build-cache validations cost a map lookup, not a rehash. For
// an overlay, hashes of base files memoize in the base, so every session
// sharing a corpus shares its hash cache too.
func (fs *FS) ContentHash(p string) (string, bool) {
	return fs.contentHash(Clean(p))
}

// contentHash is ContentHash for a cleaned path.
func (fs *FS) contentHash(p string) (string, bool) {
	fs.mu.RLock()
	if h, ok := fs.hashes[p]; ok {
		fs.mu.RUnlock()
		return h, true
	}
	c, ok := fs.files[p]
	tomb := fs.tombs[p]
	base := fs.base
	fs.mu.RUnlock()
	if !ok {
		if tomb || base == nil {
			return "", false
		}
		return base.contentHash(p)
	}
	sum := sha256.Sum256([]byte(c))
	h := hex.EncodeToString(sum[:])
	fs.mu.Lock()
	// Recheck: the file may have been rewritten while we hashed.
	if cur, ok := fs.files[p]; ok && cur == c {
		fs.hashes[p] = h
	} else if !ok {
		fs.mu.Unlock()
		return "", false
	} else {
		sum = sha256.Sum256([]byte(cur))
		h = hex.EncodeToString(sum[:])
		fs.hashes[p] = h
	}
	fs.mu.Unlock()
	return h, true
}

// List returns all file paths in sorted order.
func (fs *FS) List() []string {
	merged := map[string]bool{}
	fs.collect(merged)
	out := make([]string, 0, len(merged))
	for p := range merged {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// collect accumulates the visible path set of the layer chain into m.
func (fs *FS) collect(m map[string]bool) {
	type layer struct {
		files map[string]bool
		tombs map[string]bool
	}
	var layers []layer
	for l := fs; l != nil; {
		l.mu.RLock()
		f := make(map[string]bool, len(l.files))
		for p := range l.files {
			f[p] = true
		}
		t := make(map[string]bool, len(l.tombs))
		for p := range l.tombs {
			t[p] = true
		}
		base := l.base
		l.mu.RUnlock()
		layers = append(layers, layer{files: f, tombs: t})
		l = base
	}
	// Apply bottom-up so upper-layer tombstones hide base files.
	for i := len(layers) - 1; i >= 0; i-- {
		for p := range layers[i].tombs {
			delete(m, p)
		}
		for p := range layers[i].files {
			m[p] = true
		}
	}
}

// Glob returns sorted paths with the given prefix.
func (fs *FS) Glob(prefix string) []string {
	prefix = Clean(prefix)
	var out []string
	for _, p := range fs.List() {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	return out
}

// Size returns the number of files.
func (fs *FS) Size() int {
	fs.mu.RLock()
	base := fs.base
	n := len(fs.files)
	fs.mu.RUnlock()
	if base == nil {
		return n
	}
	return len(fs.List())
}

// Clone returns a copy that can be mutated independently. A plain
// filesystem is deep-copied; an overlay copies only its local layer and
// keeps sharing the (read-only) base, so session snapshots stay O(edits).
func (fs *FS) Clone() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	out := New()
	out.reads = fs.reads
	out.base = fs.base
	if fs.base != nil {
		out.tombs = make(map[string]bool, len(fs.tombs))
		for p := range fs.tombs {
			out.tombs[p] = true
		}
	}
	for p, c := range fs.files {
		out.files[p] = c
	}
	for p, h := range fs.hashes {
		out.hashes[p] = h
	}
	return out
}

// TotalBytes returns the sum of all file sizes.
func (fs *FS) TotalBytes() int {
	fs.mu.RLock()
	base := fs.base
	fs.mu.RUnlock()
	if base == nil {
		fs.mu.RLock()
		defer fs.mu.RUnlock()
		n := 0
		for _, c := range fs.files {
			n += len(c)
		}
		return n
	}
	n := 0
	for _, p := range fs.List() {
		if c, ok := fs.get(p); ok {
			n += len(c)
		}
	}
	return n
}
