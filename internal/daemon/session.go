package daemon

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/buildcache"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/devcycle"
	"repro/internal/inval"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// ParseMode maps the wire spelling of a build configuration to the
// devcycle mode. The empty string defaults to Yalla — running the
// substituted configuration is the daemon's whole point.
func ParseMode(s string) (devcycle.Mode, error) {
	switch strings.ToLower(s) {
	case "", "yalla":
		return devcycle.Yalla, nil
	case "default":
		return devcycle.Default, nil
	case "pch":
		return devcycle.PCH, nil
	case "yalla+pch", "yallapch":
		return devcycle.YallaPCH, nil
	case "yalla+lto", "yallalto":
		return devcycle.YallaLTO, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want default, pch, yalla, yalla+pch, or yalla+lto)", s)
}

// Session is one named development-cycle context: a subject, a build
// mode, and a live copy-on-write overlay over the subject's pristine
// tree. All mutating operations are serialized by the session mutex;
// different sessions run concurrently on the server's worker pool.
type Session struct {
	Name string

	subject *corpus.Subject
	mode    devcycle.Mode
	cache   *buildcache.Cache

	mu sync.Mutex
	// fs is the session's working tree: an O(1) overlay whose base is
	// the shared, read-only subject corpus. Edits and generated files
	// live in the overlay; content hashes of base files memoize in the
	// shared base.
	fs *vfs.FS
	// setup is the prepared environment from the last (re-)Prepare, nil
	// before the first compute request.
	setup *devcycle.Setup
	// stale is set when a structural edit (a file outside the subject's
	// source list, i.e. a header) invalidates the prepared setup; the
	// next compute request re-prepares. Source-file edits do NOT set it:
	// the setup compiles against the live overlay, and the build cache
	// re-validates dependency manifests per compile, so only the
	// translation units whose content hashes changed are rebuilt.
	// Structural edits consult the setup's decl-level invalidation
	// graph first (early cutoff): an edit that changes no consumed
	// declaration interface — comments, function bodies — keeps the
	// setup live and sets nothing.
	stale bool
	// wrappersDirty schedules a wrappers-only recompile on the next
	// cycle: the edit changed the wrappers TU without touching any
	// consumed interface (e.g. its function-definition count moved,
	// which the link model sums).
	wrappersDirty bool
	// srcSet marks the subject's source files (incremental-edit targets).
	srcSet map[string]bool

	createdAt         time.Time
	cycles            uint64
	editCount         uint64
	invalidations     uint64
	prepares          uint64
	earlyCutoffHits   uint64
	wrapperRecompiles uint64
	declsDiffed       uint64
}

func newSession(name string, s *corpus.Subject, mode devcycle.Mode, cache *buildcache.Cache) *Session {
	srcSet := map[string]bool{vfs.Clean(s.MainFile): true}
	for _, p := range s.Sources {
		srcSet[vfs.Clean(p)] = true
	}
	return &Session{
		Name:      name,
		subject:   s,
		mode:      mode,
		cache:     cache,
		fs:        s.FS.Overlay(),
		srcSet:    srcSet,
		createdAt: time.Now(),
	}
}

// EditResult reports what an edit did to the session's state.
type EditResult struct {
	// Changed is false when the write left the content hash identical
	// (a no-op save); nothing is invalidated then.
	Changed bool `json:"changed"`
	// Structural is true when the edited path is not one of the
	// subject's source files — a header changed, and the decl-level
	// invalidation graph decides what (if anything) must rebuild.
	Structural bool `json:"structural"`
	// Invalidated is true when the edit marked the prepared setup stale
	// (a full re-Prepare runs on the next compute request).
	Invalidated bool `json:"invalidated"`
	// EarlyCutoff is true when a structural edit was proven not to
	// change any consumed declaration interface, so the prepared setup
	// stays live (at most the wrappers object recompiles).
	EarlyCutoff bool `json:"early_cutoff,omitempty"`
	// Action is the invalidation planner's verdict for structural edits
	// against a prepared setup: "keep", "recompile-wrappers", or
	// "reprepare".
	Action string `json:"action,omitempty"`
	// Reason is the planner's one-line justification.
	Reason string `json:"reason,omitempty"`
	// DeclsDiffed counts the declaration interfaces compared.
	DeclsDiffed int `json:"decls_diffed,omitempty"`
	// DiffMs is the wall-clock cost of the re-lex + re-parse + diff.
	DiffMs float64 `json:"diff_ms,omitempty"`
}

// Edit writes one file into the session overlay and classifies the
// invalidation it causes. Structural edits against a live setup are
// diffed at declaration granularity: only an edit that (possibly)
// changes an interface some consumer depends on marks the session
// stale; comment-only and body-only edits keep everything.
func (s *Session) Edit(path, content string) EditResult {
	path = vfs.Clean(path)
	s.mu.Lock()
	defer s.mu.Unlock()
	oldHash, existed := s.fs.ContentHash(path)
	structural := !s.srcSet[path]
	// The pre-edit bytes are only needed when the planner will diff.
	var oldContent string
	if structural && existed && s.setup != nil && !s.stale {
		oldContent, _ = s.fs.Read(path)
	}
	s.fs.Write(path, content)
	newHash, _ := s.fs.ContentHash(path)
	if existed && oldHash == newHash {
		return EditResult{} // touch-only save: nothing rebuilds
	}
	s.editCount++
	res := EditResult{Changed: true, Structural: structural}
	if !structural || s.setup == nil || s.stale {
		return res
	}
	start := time.Now()
	d := s.setup.PlanEdit(path, oldContent, existed, content)
	res.DiffMs = ms(time.Since(start))
	res.Action = d.Action.String()
	res.Reason = d.Reason
	res.DeclsDiffed = d.DeclsDiffed
	s.declsDiffed += uint64(d.DeclsDiffed)
	switch d.Action {
	case inval.Keep:
		res.EarlyCutoff = true
		s.earlyCutoffHits++
	case inval.RecompileWrappers:
		res.EarlyCutoff = true
		s.earlyCutoffHits++
		s.wrappersDirty = true
	case inval.Reprepare:
		s.stale = true
		s.invalidations++
		res.Invalidated = true
	}
	return res
}

// ReadFile returns a file from the session's working tree (base, edits,
// and generated outputs all visible).
func (s *Session) ReadFile(path string) (string, error) {
	return s.fs.Read(path)
}

// ensurePreparedLocked (re-)prepares the development environment when
// the session has none yet or a structural edit invalidated it. It
// returns true when a prepare ran (the "cold" part of a request).
func (s *Session) ensurePreparedLocked(ctx context.Context, o *obs.Obs) (bool, error) {
	if s.setup != nil && !s.stale {
		return false, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	st, err := devcycle.PrepareWith(s.subject, s.mode, devcycle.Config{
		FS:    s.fs,
		Cache: s.cache,
		Obs:   o,
	})
	if err != nil {
		return false, err
	}
	s.setup = st
	s.stale = false
	s.prepares++
	return true, nil
}

// CycleResult is one edit–compile–link–run iteration served by the
// daemon. Virtual times are byte-identical to what the one-shot path
// computes for the same tree.
type CycleResult struct {
	// Prepared is true when this request had to (re-)prepare the
	// environment first — the cold path. Warm requests reuse the
	// prepared setup and only recompile what changed.
	Prepared bool `json:"prepared"`
	// Rerun is true when a new-symbol cycle had to rerun the tool
	// (§4.2) because the symbol was not pre-declared.
	Rerun     bool    `json:"rerun,omitempty"`
	CompileMs float64 `json:"compile_ms"`
	LinkMs    float64 `json:"link_ms"`
	RunMs     float64 `json:"run_ms"`
	TotalMs   float64 `json:"total_ms"`
	// SetupMs is the one-time preparation cost paid by this request
	// (zero on warm requests).
	SetupMs float64 `json:"setup_ms,omitempty"`
	// WrappersMs is the cost of a partial rebuild: the wrappers object
	// recompiled (scheduled by an early-cutoff edit that changed its
	// translation unit) while the rest of the setup stayed live.
	WrappersMs float64 `json:"wrappers_ms,omitempty"`
}

// Cycle runs one development-cycle iteration: re-prepare if a structural
// edit invalidated the setup, then compile (incrementally, through the
// shared build cache), link, and run. newSymbol, when non-empty, models
// the §4.2 edit that starts using a previously unused header symbol.
func (s *Session) Cycle(ctx context.Context, o *obs.Obs, newSymbol string) (*CycleResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prepared, err := s.ensurePreparedLocked(ctx, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.setup.SetObs(o)
	var wrappersMs float64
	if prepared {
		s.wrappersDirty = false // the fresh prepare subsumes it
	} else if s.wrappersDirty {
		d, err := s.setup.RecompileWrappers()
		if err != nil {
			return nil, err
		}
		s.wrappersDirty = false
		s.wrapperRecompiles++
		wrappersMs = ms(d)
	}
	var (
		times devcycle.Times
		rerun bool
	)
	if newSymbol != "" {
		times, rerun, err = s.setup.CycleWithNewSymbol(newSymbol)
	} else {
		times, err = s.setup.Cycle()
	}
	if err != nil {
		return nil, err
	}
	s.cycles++
	res := &CycleResult{
		Prepared:   prepared,
		Rerun:      rerun,
		CompileMs:  ms(times.Compile),
		LinkMs:     ms(times.Link),
		RunMs:      ms(times.Run),
		TotalMs:    ms(times.Total()),
		WrappersMs: wrappersMs,
	}
	if prepared {
		res.SetupMs = ms(s.setup.Setup.Total())
	}
	return res, nil
}

// SubstituteResult is the daemon's substitution response: the generated
// paths, the tool report, and the generated file contents (the API layer
// strips them unless the client asked).
type SubstituteResult struct {
	LightweightPath string            `json:"lightweight_path"`
	WrappersPath    string            `json:"wrappers_path"`
	ModifiedSources map[string]string `json:"modified_sources"`
	Report          core.Report       `json:"report"`
	// Files maps every generated path to its content.
	Files map[string]string `json:"files,omitempty"`
}

// Substitute runs the Header Substitution tool over the session tree
// with exactly the options the one-shot cmd/yalla path uses, so outputs
// are byte-identical to it. The generated files are written into the
// session overlay (readable via ReadFile afterwards). A repeated request
// re-runs the tool; the shared build cache serves its unchanged
// translation units.
func (s *Session) Substitute(ctx context.Context, o *obs.Obs) (*SubstituteResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := core.Options{
		FS:          s.fs,
		SearchPaths: s.subject.SearchPaths,
		Sources:     s.subject.Sources,
		Header:      s.subject.Header,
		OutDir:      s.subject.OutDir(),
		Cache:       s.cache,
		Obs:         o,
	}
	res, err := core.Substitute(opts)
	if err != nil {
		return nil, err
	}
	out := &SubstituteResult{
		LightweightPath: res.LightweightPath,
		WrappersPath:    res.WrappersPath,
		ModifiedSources: res.ModifiedSources,
		Report:          res.Report,
		Files:           map[string]string{},
	}
	paths := []string{res.LightweightPath, res.WrappersPath}
	for _, p := range res.ModifiedSources {
		paths = append(paths, p)
	}
	for _, p := range paths {
		content, err := s.fs.Read(p)
		if err != nil {
			return nil, fmt.Errorf("daemon: generated file %s: %v", p, err)
		}
		out.Files[p] = content
	}
	return out, nil
}

// Check runs the substitution-safety passes over the session's working
// tree (including any edits) without substituting anything, returning
// the structured diagnostics. Unlike Substitute it never mutates the
// tree, so it is safe to call at any point of the cycle.
func (s *Session) Check(ctx context.Context, o *obs.Obs, passes []string) (*check.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := check.Options{
		FS:          s.fs,
		SearchPaths: s.subject.SearchPaths,
		Sources:     s.subject.Sources,
		Header:      s.subject.Header,
		Passes:      passes,
		Cache:       s.cache,
		Obs:         o,
	}
	return check.Run(opts)
}

// Info is a session's externally visible state.
type Info struct {
	Name          string `json:"name"`
	Subject       string `json:"subject"`
	Library       string `json:"library"`
	Mode          string `json:"mode"`
	Prepared      bool   `json:"prepared"`
	Stale         bool   `json:"stale"`
	Edits         uint64 `json:"edits"`
	Cycles        uint64 `json:"cycles"`
	Invalidations uint64 `json:"invalidations"`
	Prepares      uint64 `json:"prepares"`
	// EarlyCutoffHits counts structural edits the decl-level diff
	// proved benign; WrapperRecompiles counts the partial rebuilds it
	// scheduled; DeclsDiffed totals the interfaces compared.
	EarlyCutoffHits   uint64 `json:"early_cutoff_hits"`
	WrapperRecompiles uint64 `json:"wrapper_recompiles"`
	DeclsDiffed       uint64 `json:"decls_diffed"`
	UptimeSec         int64  `json:"uptime_sec"`
}

// Info snapshots the session state.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		Name:              s.Name,
		Subject:           s.subject.Name,
		Library:           s.subject.Library,
		Mode:              s.mode.String(),
		Prepared:          s.setup != nil,
		Stale:             s.stale,
		Edits:             s.editCount,
		Cycles:            s.cycles,
		Invalidations:     s.invalidations,
		Prepares:          s.prepares,
		EarlyCutoffHits:   s.earlyCutoffHits,
		WrapperRecompiles: s.wrapperRecompiles,
		DeclsDiffed:       s.declsDiffed,
		UptimeSec:         int64(time.Since(s.createdAt).Seconds()),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
