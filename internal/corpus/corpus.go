// Package corpus generates the synthetic C++ source trees the evaluation
// runs on. The paper's subjects come from four real libraries (PyKokkos-
// generated Kokkos code, RapidJSON, OpenCV, Boost.Asio); those libraries
// are not available offline, so this package builds structurally
// equivalent stand-ins at the same scale as Table 3: a header-only
// "kokkossim" whose umbrella header pulls ~580 headers / ~111k LOC, a
// "jsonsim" at RapidJSON's scale, a "cvsim" whose subjects keep many
// non-substituted includes, and an "asiosim" with thousands of small
// headers. Every subject is real C++ processed end-to-end by the
// frontend, the Header Substitution engine, and the compilation
// simulator.
package corpus

import (
	"fmt"
	"sync"

	"repro/internal/vfs"
)

// Subject is one evaluation subject (a row of Tables 2 and 3).
type Subject struct {
	// Name is the paper's subject name, e.g. "02" or "chat_server".
	Name string
	// Library is the paper's subject group: PyKokkos, RapidJSON, OpenCV,
	// or Boost.Asio (simulated equivalents).
	Library string
	// FS is the full source tree (shared between subjects of a library).
	FS *vfs.FS
	// MainFile is the translation unit to compile (step ④ input).
	MainFile string
	// Sources are the files passed to the substitution tool.
	Sources []string
	// Header is the expensive include to substitute.
	Header string
	// SearchPaths are the -I directories.
	SearchPaths []string
	// KernelIters scales the subject's simulated run time (small inputs,
	// as in §5.4).
	KernelIters int
	// WrapperCallsPerIter is how many wrapper calls one kernel iteration
	// performs after substitution (drives the §5.4 run-time overhead).
	WrapperCallsPerIter int
}

// OutDir returns the directory the tool writes this subject's generated
// files into.
func (s *Subject) OutDir() string { return "yalla_out/" + s.Name }

// HeaderPaths returns the paths Header may resolve to, cleaned, in
// search-path order: one per search path, where "." means the bare
// header. Callers probe them in order and take the first that exists.
func (s *Subject) HeaderPaths() []string {
	out := make([]string, len(s.SearchPaths))
	for i, sp := range s.SearchPaths {
		out[i] = vfs.Clean(sp + "/" + s.Header)
	}
	return out
}

var (
	buildOnce sync.Once
	all       []*Subject
)

// All returns every subject, building the corpora on first use. The
// returned subjects share library filesystems; treat them as read-only
// or Clone the FS.
func All() []*Subject {
	buildOnce.Do(func() {
		all = append(all, PyKokkosSubjects()...)
		all = append(all, RapidJSONSubjects()...)
		all = append(all, OpenCVSubjects()...)
		all = append(all, AsioSubjects()...)
	})
	return all
}

// ByName returns the named subject or nil.
func ByName(name string) *Subject {
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// writeAll writes the given name→content map into fs.
func writeAll(fs *vfs.FS, files map[string]string) {
	for name, content := range files {
		fs.Write(name, content)
	}
}

// includeLines renders #include directives for the given targets.
func includeLines(angled bool, targets ...string) string {
	out := ""
	for _, t := range targets {
		if angled {
			out += fmt.Sprintf("#include <%s>\n", t)
		} else {
			out += fmt.Sprintf("#include %q\n", t)
		}
	}
	return out
}
