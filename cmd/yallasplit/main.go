// Command yallasplit decomposes god headers via multi-view static
// analysis (internal/split) and runs the three-way comparison asking
// whether decomposing a god header beats substituting it, loses to it,
// or composes with it.
//
// Usage:
//
//	yallasplit -subject 02 [-json] [-parts N] [-j N]
//	           (decompose one evaluation subject, print the partition)
//	yallasplit -corpus [-table] [-parts N] [-j N]
//	           (decompose + measure all subjects; JSON matches
//	            results/split_baseline.json so CI can diff it)
//	yallasplit -header god.hpp -I dir [-json] main.cpp [more sources...]
//	           (decompose an on-disk tree; rewritten files are written back)
//
// -j sets how many subjects, and how many translation units per
// subject, are analyzed at once (0 = GOMAXPROCS, the default). Output is
// deterministic: partitions, digests, and the -corpus report are
// byte-identical across runs and across -j values. Exit status is 0
// on success, 1 when a header is not decomposable or verification
// rejects the rewrite, and 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/split"
	"repro/internal/vfs"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func main() {
	var (
		includes multiFlag
		subject  = flag.String("subject", "", "decompose this evaluation subject")
		header   = flag.String("header", "", "god header to decompose, as spelled in the #include")
		doCorpus = flag.Bool("corpus", false, "decompose + measure every subject; emit the baseline JSON report")
		table    = flag.Bool("table", false, "with -corpus, render the comparison table instead of JSON")
		jsonOut  = flag.Bool("json", false, "emit the decomposition result as JSON")
		parts    = flag.Int("parts", 4, "maximum part headers per decomposition (0 = uncapped)")
		jobs     = flag.Int("j", 0, "subjects and translation units analyzed in parallel (0 = GOMAXPROCS; output is identical at any value)")
	)
	flag.Var(&includes, "I", "include search directory (repeatable)")
	flag.Parse()

	switch {
	case *doCorpus:
		runCorpus(*parts, *jobs, *table)
		return
	case *subject != "":
		runSubject(*subject, *parts, *jobs, *jsonOut)
		return
	case *header != "":
		runTree(*header, includes, flag.Args(), *parts, *jobs, *jsonOut)
		return
	}
	fmt.Fprintln(os.Stderr, "usage: yallasplit -subject <name> [-json] [-parts N] [-j N]")
	fmt.Fprintln(os.Stderr, "       yallasplit -corpus [-table] [-parts N] [-j N]")
	fmt.Fprintln(os.Stderr, "       yallasplit -header <name.hpp> [-I dir]... [-json] sources...")
	os.Exit(2)
}

// runCorpus is the baseline path: decompose and measure all subjects,
// printing the deterministic report CI diffs against
// results/split_baseline.json.
func runCorpus(parts, jobs int, table bool) {
	rep, err := experiments.RunSplitAll(experiments.SplitRunConfig{
		Jobs: jobs, MaxParts: parts, Cache: buildcache.New(),
	})
	if err != nil {
		fail("yallasplit: %v", err)
	}
	if table {
		fmt.Print(experiments.SplitTable(rep))
		return
	}
	b, err := rep.JSON()
	if err != nil {
		fail("yallasplit: %v", err)
	}
	os.Stdout.Write(b)
}

func runSubject(name string, parts, jobs int, jsonOut bool) {
	s := corpus.ByName(name)
	if s == nil {
		fail("yallasplit: unknown subject %q", name)
	}
	fs := s.FS.Clone()
	res, err := split.Decompose(split.Options{
		FS: fs, SearchPaths: s.SearchPaths, Sources: s.Sources,
		Header: s.Header, MaxParts: parts, Jobs: jobs,
	})
	if err != nil {
		fail("yallasplit: %s: %v", name, err)
	}
	report(res, jsonOut)
}

// runTree decomposes an on-disk tree and writes every rewritten file
// (parts, umbrella, consumers) back to disk.
func runTree(header string, includes []string, sources []string, parts, jobs int, jsonOut bool) {
	if len(sources) == 0 {
		fail("yallasplit: -header requires at least one source file")
	}
	fs := vfs.New()
	var srcs []string
	for _, src := range sources {
		if err := loadFile(fs, src); err != nil {
			fail("%v", err)
		}
		srcs = append(srcs, filepath.ToSlash(src))
	}
	for _, dir := range includes {
		if err := loadTree(fs, dir); err != nil {
			fail("%v", err)
		}
	}
	res, err := split.Decompose(split.Options{
		FS:          fs,
		SearchPaths: append([]string{"."}, includes...),
		Sources:     srcs,
		Header:      header,
		MaxParts:    parts,
		Jobs:        jobs,
	})
	if err != nil {
		fail("yallasplit: %v", err)
	}
	var written []string
	for path := range res.Files {
		written = append(written, path)
	}
	sort.Strings(written)
	for _, path := range written {
		if err := os.WriteFile(filepath.FromSlash(path), []byte(res.Files[path]), 0o644); err != nil {
			fail("yallasplit: write: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	report(res, jsonOut)
}

// report prints one decomposition, as JSON or as a human summary.
func report(res *split.Result, jsonOut bool) {
	if jsonOut {
		writeJSON(res)
		return
	}
	fmt.Printf("%s -> %d parts, %d decl units, %d consumers rewritten (digest %.12s)\n",
		res.HeaderPath, len(res.Parts), len(res.Decls), len(res.Consumers), res.Digest)
	for i, p := range res.Parts {
		used := "unused"
		if p.Used {
			used = "used"
		}
		fmt.Printf("  part %d  %-32s %3d decls  %2d includes  %s\n",
			i, p.Target, len(p.Decls), len(p.Includes), used)
	}
	var consumers []string
	for c := range res.Consumers {
		consumers = append(consumers, c)
	}
	sort.Strings(consumers)
	for _, c := range consumers {
		fmt.Printf("  consumer %-28s -> %s\n", c, strings.Join(res.Consumers[c], ", "))
	}
	if res.ComposedTarget != "" {
		fmt.Printf("  composed substitution target: %s\n", res.ComposedTarget)
	}
}

func writeJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail("yallasplit: %v", err)
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
