package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// editKind is one class of scripted save.
type editKind int

const (
	// editBody appends a new global definition to the substituted
	// source the Yalla build compiles: its translation unit rebuilds.
	editBody editKind = iota
	// editComment appends a comment to the substituted source: its
	// content hash changes, so its translation unit rebuilds too.
	editComment
	// editNeutral changes the substituted header without changing any
	// interface (a comment, or the body of an unused inline probe):
	// early cutoff keeps the prepared setup.
	editNeutral
	// editInterface adds a macro to the substituted header: a structural
	// change that re-Prepares the session.
	editInterface
)

func (k editKind) String() string {
	return [...]string{"body", "comment", "neutral", "interface"}[k]
}

// roundMix is one round of the edit script: 40% body, 30% comment, 20%
// interface-neutral header and 10% interface header edits. Every round
// holds exactly this mix in a seeded order, so rounds are comparable and
// a round's wall time does not depend on how the seed happened to draw
// the expensive interface edits.
var roundMix = []editKind{
	editBody, editBody, editBody, editBody,
	editComment, editComment, editComment,
	editNeutral, editNeutral,
	editInterface,
}

// script is the seeded, endless edit script: round after round of
// roundMix, each shuffled by the seed. Two scripts with one seed yield
// the same edits, which is how the farm's two developers replay one
// script.
type script struct{ rng *rand.Rand }

func newScript(seed int64) *script { return &script{rng: rand.New(rand.NewSource(seed))} }

// next returns the next round's edits.
func (s *script) next() []editKind {
	r := append([]editKind(nil), roundMix...)
	s.rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	return r
}

// editor turns script edits into file contents for one session. Source
// edits replace the previous source edit (each is the original plus one
// line), so the source never grows. Header edits accumulate the macros
// of every interface edit so far: dropping one would itself be an
// interface change, and a neutral edit must stay neutral.
type editor struct {
	srcPath, srcOrig string
	hdrPath, hdrOrig string

	seq     int
	probe   int    // return value of the inline probe in the header
	comment string // the header's current neutral comment line
	macros  strings.Builder
}

// probeDef is the unused inline function neutral edits rewrite.
func probeDef(v int) string {
	return fmt.Sprintf("inline int e2ebench_probe() { return %d; }\n", v)
}

// header renders the header's current content.
func (e *editor) header() string {
	return e.hdrOrig + "\n" + probeDef(e.probe) + e.macros.String() + e.comment
}

// apply returns the file and content of the next edit of kind k.
func (e *editor) apply(k editKind) (path, content string) {
	e.seq++
	n := e.seq
	switch k {
	case editBody:
		return e.srcPath, fmt.Sprintf("%s\nint e2ebench_body_%d = %d;\n", e.srcOrig, n, n)
	case editComment:
		return e.srcPath, fmt.Sprintf("%s\n// e2ebench comment %d\n", e.srcOrig, n)
	case editNeutral:
		if n%2 == 0 {
			e.comment = fmt.Sprintf("// e2ebench neutral %d\n", n)
		} else {
			e.probe = n
		}
	case editInterface:
		fmt.Fprintf(&e.macros, "#define E2EBENCH_IFACE_%d %d\n", n, n)
	}
	return e.hdrPath, e.header()
}
