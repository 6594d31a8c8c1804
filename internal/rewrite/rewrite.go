// Package rewrite implements an offset-based source rewriter in the style
// of clang's Rewriter, which the paper's tool uses to apply the Table 1
// code transformations ("while also using Clang's refactoring capabilities
// to implement the required changes", §4.1). Edits are recorded against
// the original buffer and applied in one pass.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/vfs"
)

// Edit is one pending change: replace [Start,End) with Text. Insertions
// have Start == End; deletions have empty Text.
type Edit struct {
	Start, End int
	Text       string
	// seq preserves insertion order among edits at the same offset.
	seq int
}

// Buffer holds one file's contents plus pending edits.
type Buffer struct {
	Name  string
	src   string
	edits []Edit
	nseq  int
}

// NewBuffer wraps src for rewriting.
func NewBuffer(name, src string) *Buffer {
	return &Buffer{Name: name, src: src}
}

// Source returns the original text.
func (b *Buffer) Source() string { return b.src }

// Replace schedules replacement of [start,end) with text.
func (b *Buffer) Replace(start, end int, text string) error {
	if start < 0 || end > len(b.src) || start > end {
		return fmt.Errorf("rewrite %s: bad range [%d,%d) in %d-byte buffer", b.Name, start, end, len(b.src))
	}
	b.edits = append(b.edits, Edit{Start: start, End: end, Text: text, seq: b.nseq})
	b.nseq++
	return nil
}

// Insert schedules insertion of text at offset.
func (b *Buffer) Insert(offset int, text string) error {
	return b.Replace(offset, offset, text)
}

// Remove schedules deletion of [start,end).
func (b *Buffer) Remove(start, end int) error {
	return b.Replace(start, end, "")
}

// ReplaceLine schedules replacement of the full (1-based) line.
func (b *Buffer) ReplaceLine(line int, text string) error {
	start, end, ok := b.lineRange(line)
	if !ok {
		return fmt.Errorf("rewrite %s: no line %d", b.Name, line)
	}
	return b.Replace(start, end, text)
}

// RemoveLine schedules deletion of the full line including its newline.
func (b *Buffer) RemoveLine(line int) error {
	start, end, ok := b.lineRange(line)
	if !ok {
		return fmt.Errorf("rewrite %s: no line %d", b.Name, line)
	}
	if end < len(b.src) && b.src[end] == '\n' {
		end++
	}
	return b.Replace(start, end, "")
}

func (b *Buffer) lineRange(line int) (start, end int, ok bool) {
	cur := 1
	start = 0
	for i := 0; i <= len(b.src); i++ {
		if i == len(b.src) || b.src[i] == '\n' {
			if cur == line {
				return start, i, true
			}
			cur++
			start = i + 1
		}
	}
	return 0, 0, false
}

// Apply produces the rewritten text. Overlapping non-identical ranges are
// an error; edits at the same insertion point apply in schedule order.
func (b *Buffer) Apply() (string, error) {
	edits := append([]Edit(nil), b.edits...)
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].Start != edits[j].Start {
			return edits[i].Start < edits[j].Start
		}
		// Pure insertions at an offset come before a replacement starting
		// there, in schedule order between themselves.
		ii := edits[i].Start == edits[i].End
		jj := edits[j].Start == edits[j].End
		if ii != jj {
			return ii
		}
		return edits[i].seq < edits[j].seq
	})
	for i := 1; i < len(edits); i++ {
		if edits[i].Start < edits[i-1].End {
			return "", fmt.Errorf("rewrite %s: overlapping edits at [%d,%d) and [%d,%d)",
				b.Name, edits[i-1].Start, edits[i-1].End, edits[i].Start, edits[i].End)
		}
	}
	var out strings.Builder
	pos := 0
	for _, e := range edits {
		out.WriteString(b.src[pos:e.Start])
		out.WriteString(e.Text)
		pos = e.End
	}
	out.WriteString(b.src[pos:])
	return out.String(), nil
}

// Set manages buffers for multiple files in one apply batch. File names
// are normalized with vfs.Clean, so aliased spellings of the same file
// ("./a.hpp" vs "a.hpp") share one buffer instead of silently racing.
type Set struct {
	buffers   map[string]*Buffer
	conflicts []string
}

// NewSet returns an empty buffer set.
func NewSet() *Set { return &Set{buffers: map[string]*Buffer{}} }

// Add registers a file's contents under its cleaned name. Re-adding the
// same file with identical source returns the existing buffer, so edits
// recorded against either spelling accumulate in one place. Re-adding
// with different source records a conflict that fails ApplyAll: the
// previous behavior (replace the buffer) dropped the first buffer's
// edits without a trace.
func (s *Set) Add(name, src string) *Buffer {
	name = vfs.Clean(name)
	if b, ok := s.buffers[name]; ok {
		if b.src != src {
			s.conflicts = append(s.conflicts,
				fmt.Sprintf("%s re-added with different source (%d bytes vs %d)", name, len(b.src), len(src)))
		}
		return b
	}
	b := NewBuffer(name, src)
	s.buffers[name] = b
	return b
}

// Get returns the buffer for name under any spelling, or nil.
func (s *Set) Get(name string) *Buffer { return s.buffers[vfs.Clean(name)] }

// Files returns the registered cleaned file names in sorted order.
func (s *Set) Files() []string {
	names := make([]string, 0, len(s.buffers))
	for name := range s.buffers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ApplyAll produces rewritten text for every buffer, keyed by cleaned
// name. The batch is atomic: a conflicting Add or an overlapping edit in
// any buffer fails the whole call with no partial output, and buffers
// validate in sorted name order so the reported error is deterministic.
func (s *Set) ApplyAll() (map[string]string, error) {
	if len(s.conflicts) > 0 {
		msgs := append([]string(nil), s.conflicts...)
		sort.Strings(msgs)
		return nil, fmt.Errorf("rewrite: conflicting buffers in one batch: %s", strings.Join(msgs, "; "))
	}
	out := map[string]string{}
	for _, name := range s.Files() {
		text, err := s.buffers[name].Apply()
		if err != nil {
			return nil, err
		}
		out[name] = text
	}
	return out, nil
}
