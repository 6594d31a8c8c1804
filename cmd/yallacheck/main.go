// Command yallacheck reports, before any substitution happens, whether
// a project can be safely rewritten by Header Substitution: it runs the
// internal/check passes (dataflow-backed detectors for the §6 hazards —
// by-value uses of incomplete types, inheritance from library classes,
// user specializations, leaking macros, escaping lambdas, unwrappable
// overloads) and prints structured, source-located diagnostics.
//
// Usage:
//
//	yallacheck -header Kokkos_Core.hpp [-I dir]... [-D NAME[=VAL]]...
//	           [-pass id]... [-j N] [-json] [-fix] source.cpp [more...]
//	yallacheck -corpus            (check every evaluation subject, JSON)
//	yallacheck -list              (list registered passes)
//
// Exit status is 0 when no error-severity finding exists, 1 when at
// least one does, and 2 on usage errors. -j sets how many translation
// units are built and checked at once (0 = GOMAXPROCS, the default).
// Output is deterministic: byte-identical across runs and across -j
// values. With -fix,
// machine-applicable fix-its are applied and the changed files written
// back to disk before exiting (the exit status still reflects the
// findings).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/vfs"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var (
		includes multiFlag
		defines  multiFlag
		headers  multiFlag
		passes   multiFlag
		jsonOut  = flag.Bool("json", false, "emit diagnostics as JSON")
		fix      = flag.Bool("fix", false, "apply machine-applicable fix-its and write the files back")
		jobs     = flag.Int("j", 0, "translation units checked in parallel (0 = GOMAXPROCS)")
		doCorpus = flag.Bool("corpus", false, "check every built-in evaluation subject and emit a JSON report")
		doList   = flag.Bool("list", false, "list registered passes and exit")
	)
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Var(&defines, "D", "predefined macro NAME[=VALUE] (repeatable)")
	flag.Var(&headers, "header", "header to substitute, as spelled in the #include (repeatable)")
	flag.Var(&passes, "pass", "run only this pass (repeatable; default all)")
	flag.Parse()

	switch {
	case *doList:
		listPasses()
		return
	case *doCorpus:
		os.Exit(runCorpus(passes, *jobs))
	}

	if len(headers) == 0 || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: yallacheck -header <name.hpp> [-I dir]... [-pass id]... [-json] [-fix] sources...")
		fmt.Fprintln(os.Stderr, "       yallacheck -corpus | -list")
		os.Exit(2)
	}

	fs := vfs.New()
	var sources []string
	for _, src := range flag.Args() {
		if err := loadFile(fs, src); err != nil {
			fail("%v", err)
		}
		sources = append(sources, src)
	}
	searchPaths := append([]string{"."}, includes...)
	for _, dir := range includes {
		if err := loadTree(fs, dir); err != nil {
			fail("%v", err)
		}
	}
	defs := map[string]string{}
	for _, d := range defines {
		name, val, _ := strings.Cut(d, "=")
		defs[name] = val
	}

	res, err := check.Run(check.Options{
		FS:           fs,
		SearchPaths:  searchPaths,
		Sources:      sources,
		Header:       headers[0],
		ExtraHeaders: headers[1:],
		Defines:      defs,
		Passes:       passes,
		Jobs:         *jobs,
	})
	if err != nil {
		fail("yallacheck: %v", err)
	}

	if *fix {
		changed, err := check.ApplyFixIts(fs, res.Diagnostics)
		if err != nil {
			fail("yallacheck: fix: %v", err)
		}
		for _, p := range changed {
			content, err := fs.Read(p)
			if err != nil {
				fail("yallacheck: fix: %v", err)
			}
			if err := os.WriteFile(filepath.FromSlash(p), []byte(content), 0o644); err != nil {
				fail("yallacheck: fix: %v", err)
			}
			fmt.Fprintf(os.Stderr, "fixed %s\n", p)
		}
	}

	if *jsonOut {
		writeJSON(res)
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d.String())
		}
		fmt.Printf("%d findings (%d errors) — verdict: %s\n",
			len(res.Diagnostics), len(res.Errors()), res.Verdict)
	}
	if len(res.Errors()) > 0 {
		os.Exit(1)
	}
}

// subjectReport is one evaluation subject's row of the -corpus report
// (and of results/check_baseline.json).
type subjectReport struct {
	Subject  string         `json:"subject"`
	Library  string         `json:"library"`
	Verdict  check.Verdict  `json:"verdict"`
	Findings int            `json:"findings"`
	Counts   map[string]int `json:"counts"`
}

// runCorpus checks every evaluation subject and prints a JSON array,
// one element per subject in corpus order. The output is deterministic,
// so CI can diff it against the golden baseline.
func runCorpus(passes []string, jobs int) int {
	var reports []subjectReport
	exit := 0
	for _, s := range corpus.All() {
		res, err := check.Run(check.Options{
			FS:          s.FS.Clone(),
			SearchPaths: s.SearchPaths,
			Sources:     s.Sources,
			Header:      s.Header,
			Passes:      passes,
			Jobs:        jobs,
		})
		if err != nil {
			fail("yallacheck: subject %s: %v", s.Name, err)
		}
		if len(res.Errors()) > 0 {
			exit = 1
		}
		reports = append(reports, subjectReport{
			Subject:  s.Name,
			Library:  s.Library,
			Verdict:  res.Verdict,
			Findings: len(res.Diagnostics),
			Counts:   res.Counts,
		})
	}
	writeJSON(reports)
	return exit
}

func listPasses() {
	for _, p := range check.Passes() {
		fmt.Printf("%-26s %s\n", p.ID, p.Doc)
	}
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail("yallacheck: %v", err)
	}
}

func loadFile(fs *vfs.FS, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fs.Write(filepath.ToSlash(path), string(data))
	return nil
}

func loadTree(fs *vfs.FS, dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		switch filepath.Ext(path) {
		case ".h", ".hpp", ".hh", ".hxx", ".inl", "":
			return loadFile(fs, path)
		}
		return nil
	})
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
