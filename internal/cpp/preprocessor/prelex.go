package preprocessor

import (
	"fmt"
	"path"
	"runtime"
	"sync"

	"repro/internal/cpp/lexer"
	"repro/internal/cpp/token"
	"repro/internal/vfs"
)

// The prelexer overlaps per-file lexing with directive processing.
// Lexing a file is pure — it depends only on the file's bytes — so the
// files a TU is about to include can be lexed on background workers
// while the preprocessor walks the current file's directives. The
// preprocessor still consumes files strictly in include order; only the
// lexing moves off the critical path. Include targets are discovered by
// scanning already-lexed token streams for literal #include operands
// (computed includes stay on the in-order path), and scans recurse:
// each background lex scans its own output, so the include tree is
// explored breadth-first ahead of the consumer.
//
// Speculation is bounded and invisible in the output: a target inside
// an inactive #if region may be lexed and never consumed, but nothing
// here touches Result — includes, dependency records, missing-include
// probes, and LOC accounting all happen on the consuming pass exactly
// as they do without the prelexer. Resolution here never records
// absent-path probes for the same reason.

// prelexFuture is one file's in-flight or completed background lex.
type prelexFuture struct {
	done chan struct{}
	toks []token.Token
	err  error
}

// prelexer coordinates the background workers for one Preprocess run.
type prelexer struct {
	fs    *vfs.FS
	paths []string
	cache TokenCache

	sem chan struct{} // bounds concurrently running lexes
	wg  sync.WaitGroup

	mu      sync.Mutex
	futures map[string]*prelexFuture // keyed by cleaned path
}

func newPrelexer(fs *vfs.FS, searchPaths []string, cache TokenCache, workers int) *prelexer {
	return &prelexer{
		fs:      fs,
		paths:   searchPaths,
		cache:   cache,
		sem:     make(chan struct{}, workers),
		futures: map[string]*prelexFuture{},
	}
}

// scan walks a lexed file for literal #include directives and schedules
// their targets. Cheap relative to expansion: one pass over tokens that
// only inspects directive lines.
func (px *prelexer) scan(file string, toks []token.Token) {
	for i := 0; i < len(toks); {
		if !(toks[i].Kind == token.Hash && toks[i].LeadingNewline) {
			i++
			continue
		}
		j := i + 1
		for j < len(toks) && !toks[j].LeadingNewline {
			j++
		}
		line := toks[i+1 : j]
		i = j
		if len(line) == 0 || symOf(line[0]) != dirInclude {
			continue
		}
		if target, angled, ok := parseIncludeTarget(line[1:]); ok {
			if resolved, found := px.resolve(target, angled, file); found {
				px.submit(resolved)
			}
		}
	}
}

// resolve mirrors Preprocessor.resolveInclude's search order but records
// nothing: speculative probes must not appear in Result.AbsentDeps.
func (px *prelexer) resolve(target string, angled bool, from string) (string, bool) {
	if !angled {
		rel := vfs.Clean(path.Join(path.Dir(from), target))
		if px.fs.Exists(rel) {
			return rel, true
		}
	}
	for _, sp := range px.paths {
		cand := vfs.Clean(path.Join(sp, target))
		if px.fs.Exists(cand) {
			return cand, true
		}
	}
	if px.fs.Exists(target) {
		return vfs.Clean(target), true
	}
	return "", false
}

// submit schedules a background lex of file unless one already exists.
func (px *prelexer) submit(file string) {
	px.mu.Lock()
	if _, ok := px.futures[file]; ok {
		px.mu.Unlock()
		return
	}
	f := &prelexFuture{done: make(chan struct{})}
	px.futures[file] = f
	px.mu.Unlock()

	px.wg.Add(1)
	go func() {
		defer px.wg.Done()
		px.sem <- struct{}{}
		f.toks, f.err = px.lex(file)
		<-px.sem
		close(f.done)
		if f.err == nil {
			// Recurse outside the semaphore: discovering grandchildren
			// must not hold a lex slot.
			px.scan(file, f.toks)
		}
	}()
}

// lex reads and tokenizes file with the same error shape as the
// in-order path in processFile, so a consumer cannot tell which path
// produced the result.
func (px *prelexer) lex(file string) ([]token.Token, error) {
	src, err := px.fs.Read(file)
	if err != nil {
		return nil, err
	}
	var toks []token.Token
	if px.cache != nil {
		toks, err = px.cache.Tokens(file, src, func() ([]token.Token, error) {
			return lexer.Tokenize(file, src)
		})
	} else {
		toks, err = lexer.Tokenize(file, src)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	return toks, nil
}

// take returns the background result for file, waiting if the lex is
// still in flight; ok=false means the file was never scheduled (e.g. a
// computed include) and the caller lexes inline.
func (px *prelexer) take(file string) (toks []token.Token, err error, ok bool) {
	px.mu.Lock()
	f := px.futures[file]
	px.mu.Unlock()
	if f == nil {
		return nil, nil, false
	}
	<-f.done
	return f.toks, f.err, true
}

// close waits for every in-flight worker so no goroutine outlives the
// Preprocess call that spawned it.
func (px *prelexer) close() { px.wg.Wait() }

// prelexWorkers resolves the PrelexJobs knob: positive forces that many
// workers, negative disables, zero auto-sizes to the spare parallelism
// (none on a single-CPU machine, where background lexing only adds
// scheduling overhead).
func (pp *Preprocessor) prelexWorkers() int {
	switch {
	case pp.PrelexJobs > 0:
		return pp.PrelexJobs
	case pp.PrelexJobs < 0:
		return 0
	default:
		return runtime.GOMAXPROCS(0) - 1
	}
}

// fileTokens produces the lexed stream for file — from the prelexer
// when a background result exists, inline otherwise. Both paths return
// identical tokens and identically shaped errors.
func (pp *Preprocessor) fileTokens(file string) ([]token.Token, error) {
	if pp.prelex != nil {
		if toks, err, ok := pp.prelex.take(file); ok {
			return toks, err
		}
	}
	src, err := pp.FS.Read(file)
	if err != nil {
		return nil, err
	}
	return pp.lexFile(file, src)
}

// lexFile lexes src, the content of file, through the token cache when
// one is set.
func (pp *Preprocessor) lexFile(file, src string) ([]token.Token, error) {
	var toks []token.Token
	var err error
	if pp.Cache != nil {
		toks, err = pp.Cache.Tokens(file, src, func() ([]token.Token, error) {
			return lexer.Tokenize(file, src)
		})
	} else {
		toks, err = lexer.Tokenize(file, src)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", file, err)
	}
	return toks, nil
}
