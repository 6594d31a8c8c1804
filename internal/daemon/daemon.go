// Package daemon is yallad: a long-lived serving layer over the Header
// Substitution pipeline. The paper's target is the *repeated*
// edit–compile–run cycle, but a one-shot CLI re-pays process startup and
// full re-analysis on every iteration; the daemon instead holds named
// sessions (subject + mode + a copy-on-write vfs overlay), accepts file
// edits, and serves compile-cycle and substitution requests
// incrementally — only work whose content hashes changed is redone. The
// shared build cache is the one place work is reused: through its token
// and TU singleflight, identical requests, concurrent or repeated and in
// any session, lex and parse each unit once. Everything heavy runs on a
// bounded worker pool with queue timeouts.
//
// Observability: every request records an obs span into its own trace
// lane (sealed on completion, so /trace can export mid-run) plus RED
// metrics — request/error counters, latency histograms per route, and
// an in-flight gauge — served at /metrics. Shutdown is graceful: on
// context cancellation (SIGTERM in cmd/yallad) the listener closes and
// in-flight requests drain within the configured timeout.
package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildcache"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// Config configures a daemon server.
type Config struct {
	// Addr is the listen address for Run (e.g. "127.0.0.1:7777").
	Addr string
	// Workers bounds how many compute requests (cycle/substitute/edit)
	// run concurrently; <= 0 means 4.
	Workers int
	// QueueTimeout is how long a request waits for a worker slot before
	// being rejected with 503; <= 0 means 5s.
	QueueTimeout time.Duration
	// RequestTimeout bounds one request's work; exceeded deadlines abort
	// at the next phase boundary with 504. <= 0 means 60s.
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown; <= 0 means 10s.
	DrainTimeout time.Duration
	// Cache is the shared build cache; nil creates a fresh one.
	Cache *buildcache.Cache
	// Remote, when set, is attached to the build cache as its L2 tier
	// (unless the supplied Cache already has one); a farm node passes
	// the shared remote cache here.
	Remote buildcache.Backend
	// NodeID names this daemon in a farm; /healthz reports it and the
	// router uses it to label per-node dashboard rows. Empty outside a
	// farm.
	NodeID string
	// RemoteProbe, when set, checks remote-cache reachability for
	// /healthz (a cheap HEAD against the cache server). It must be safe
	// for concurrent use and fast; a nil probe reports no remote tier.
	RemoteProbe func() error
	// MaxCachedTUs, when > 0, applies a size-capped LRU eviction policy
	// to the build cache — a long-lived daemon must not grow without
	// bound.
	MaxCachedTUs int
	// Tracer, when set, records per-request lanes exported at /trace.
	Tracer *obs.Tracer
	// TraceRetention caps how many completed lanes the tracer keeps
	// (drop-oldest): request lanes and the per-TU lanes of the safety
	// checks they run; <= 0 means 1024.
	TraceRetention int
	// Registry, when set, collects the daemon's RED metrics and the
	// whole pipeline's counters, served at /metrics.
	Registry *obs.Registry
	// Logger, when set, receives structured per-request logs (request
	// ID, route, session, status, duration) and lifecycle events; nil
	// discards them.
	Logger *slog.Logger
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.TraceRetention <= 0 {
		c.TraceRetention = 1024
	}
}

// Server is the daemon. Create with New, expose with Handler, run with
// Run (or mount Handler in any http.Server).
type Server struct {
	cfg    Config
	o      *obs.Obs
	tracer *obs.Tracer
	reg    *obs.Registry
	cache  *buildcache.Cache
	log    *slog.Logger

	mu       sync.RWMutex
	sessions map[string]*Session

	// slots is the bounded worker pool: compute requests hold one slot
	// for their whole execution.
	slots chan struct{}

	reqIDs   atomic.Uint64
	inflight atomic.Int64
	started  time.Time

	// draining flips when graceful shutdown begins: /healthz turns 503
	// so load balancers stop routing to this node while in-flight
	// requests finish.
	draining atomic.Bool

	// recent is the dashboard's sample ring of completed requests.
	recent latRing
}

// New returns a configured server (not yet listening).
func New(cfg Config) *Server {
	cfg.fill()
	cache := cfg.Cache
	if cache == nil {
		cache = buildcache.New()
	}
	if cfg.MaxCachedTUs > 0 {
		cache.MaxTUEntries = cfg.MaxCachedTUs
	}
	if cfg.Remote != nil && cache.Remote == nil {
		cache.Remote = cfg.Remote
	}
	if cfg.Tracer != nil {
		cfg.Tracer.SetSealedRetention(cfg.TraceRetention)
		cfg.Tracer.AttachMetrics(cfg.Registry)
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	o := obs.New(cfg.Tracer, cfg.Registry).WithLogger(log)
	cache.AttachMetrics(o)
	return &Server{
		cfg:      cfg,
		o:        o,
		tracer:   cfg.Tracer,
		reg:      cfg.Registry,
		cache:    cache,
		log:      log,
		sessions: map[string]*Session{},
		slots:    make(chan struct{}, cfg.Workers),
		started:  time.Now(),
	}
}

// Run listens on cfg.Addr and serves until ctx is canceled, then drains
// gracefully: the listener closes, in-flight requests finish (bounded by
// DrainTimeout), and Run returns.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("daemon: listen: %v", err)
	}
	return s.Serve(ctx, ln)
}

// Serve is Run over an existing listener (tests, the replay benchmark
// and in-process fleets pass a 127.0.0.1:0 listener).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Requests must NOT inherit cancellation from the run context:
	// shutdown should drain in-flight work, not abort it. WithoutCancel
	// keeps any values while detaching the drain signal.
	reqCtx := context.WithoutCancel(ctx)
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	s.log.Info("daemon serving", "addr", ln.Addr().String(), "workers", s.cfg.Workers)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Flip /healthz to 503 before closing the listener so load
		// balancers stop routing here while in-flight work drains.
		s.draining.Store(true)
		s.log.Info("daemon draining", "timeout", s.cfg.DrainTimeout.String(),
			"inflight", s.inflight.Load())
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := hs.Shutdown(dctx)
		s.log.Info("daemon stopped", "err", errStr(err))
		return err
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Cache exposes the server's build cache (the farm tests audit its
// traffic).
func (s *Server) Cache() *buildcache.Cache { return s.cache }

// ------------------------------------------------------------- sessions

var errSessionExists = fmt.Errorf("session already exists")

// CreateSession registers a new named session for a corpus subject.
func (s *Server) CreateSession(name, subjectName, modeName string) (*Session, error) {
	subj := corpus.ByName(subjectName)
	if subj == nil {
		return nil, fmt.Errorf("unknown subject %q", subjectName)
	}
	return s.CreateSessionFor(name, subj, modeName)
}

// CreateSessionFor registers a new named session over an explicit
// subject — one that is not (or not yet) part of the corpus, e.g. a
// generated subject the differential-fuzzing harness drives through the
// daemon path.
func (s *Server) CreateSessionFor(name string, subj *corpus.Subject, modeName string) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("session name is required")
	}
	if subj == nil {
		return nil, fmt.Errorf("subject is required")
	}
	mode, err := ParseMode(modeName)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[name]; ok {
		return nil, fmt.Errorf("%w: %q", errSessionExists, name)
	}
	sess := newSession(name, subj, mode, s.cache)
	s.sessions[name] = sess
	s.o.Counter("daemon.sessions.created").Add(1)
	s.o.Gauge("daemon.sessions").Set(int64(len(s.sessions)))
	return sess, nil
}

// Session returns the named session or nil.
func (s *Server) Session(name string) *Session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[name]
}

// CloseSession removes a session; its overlay and prepared setup become
// garbage. Returns false if it did not exist.
func (s *Server) CloseSession(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[name]; !ok {
		return false
	}
	delete(s.sessions, name)
	s.o.Counter("daemon.sessions.closed").Add(1)
	s.o.Gauge("daemon.sessions").Set(int64(len(s.sessions)))
	return true
}

// Sessions lists session infos sorted by name.
func (s *Server) Sessions() []Info {
	s.mu.RLock()
	names := make([]string, 0, len(s.sessions))
	for n := range s.sessions {
		names = append(names, n)
	}
	sessions := make([]*Session, 0, len(names))
	for _, n := range names {
		sessions = append(sessions, s.sessions[n])
	}
	s.mu.RUnlock()
	infos := make([]Info, 0, len(sessions))
	for _, sess := range sessions {
		infos = append(infos, sess.Info())
	}
	sortInfos(infos)
	return infos
}

// ------------------------------------------------------- worker pooling

// acquireSlot blocks until a worker slot frees, the queue timeout
// elapses, or the request context dies.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	s.o.Counter("daemon.queue.waits").Add(1)
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-t.C:
		return errQueueTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) releaseSlot() { <-s.slots }

var errQueueTimeout = fmt.Errorf("worker pool saturated; retry later")

func sortInfos(infos []Info) {
	for i := 1; i < len(infos); i++ {
		for j := i; j > 0 && infos[j].Name < infos[j-1].Name; j-- {
			infos[j], infos[j-1] = infos[j-1], infos[j]
		}
	}
}
