package farm

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// The cache protocol. Entries are opaque payloads keyed by namespace +
// content hash (the keys buildcache.FileKey/ConfigKey produce), so the
// server never needs to understand what it stores — integrity is the
// payload's own trailer hash, checked by the fetching node.
//
//	GET    /v1/cache/{ns}/{key}   200 payload | 404
//	HEAD   /v1/cache/{ns}/{key}   200 | 404 (reachability probes use this)
//	PUT    /v1/cache/{ns}/{key}   store payload, release any lease
//	POST   /v1/lease/{ns}/{key}   acquire/wait: {"state":"granted"|"released"|"unavailable"}
//	DELETE /v1/lease/{ns}/{key}   release without publishing (build failed)
//	GET    /healthz               {"status":"ok","entries":N,"bytes":B,...}
//	GET    /metrics               registry snapshot (?format=text)
//
// The lease makes cross-node singleflight work: the first POST on a
// missing key returns "granted" (the caller builds and PUTs), later
// POSTs long-poll until the holder publishes or gives up, then return
// "released" (the caller re-GETs). A lease the holder never resolves
// expires after LeaseTTL so a crashed builder cannot wedge the fleet.

// maxPayloadBytes bounds one PUT (whole-TU payloads for the corpus are
// well under a megabyte; this is a defense bound, not a tuning knob).
const maxPayloadBytes = 64 << 20

// CacheServerConfig configures a cache server.
type CacheServerConfig struct {
	// MaxBytes caps stored payload bytes with LRU eviction; <= 0 means
	// 256 MB.
	MaxBytes int
	// LeaseTTL bounds how long a granted lease may stay unresolved
	// before waiters stop trusting the holder; <= 0 means 60s.
	LeaseTTL time.Duration
	// LeaseWait bounds how long one lease request long-polls before
	// reporting "unavailable"; <= 0 means 30s.
	LeaseWait time.Duration
	// Registry, when set, collects the server's counters and gauges,
	// served at /metrics.
	Registry *obs.Registry
}

func (c *CacheServerConfig) fill() {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.LeaseWait <= 0 {
		c.LeaseWait = 30 * time.Second
	}
}

type cacheEntry struct {
	key  string
	blob []byte
	elem *list.Element
}

type leaseEntry struct {
	done     chan struct{} // closed when the holder resolves (or expires)
	deadline time.Time
}

// CacheServer is the farm's shared content-addressed store — the L2
// tier behind every node's in-process buildcache. In-memory, LRU-capped
// by bytes, safe for concurrent use.
type CacheServer struct {
	cfg CacheServerConfig
	o   *obs.Obs

	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of *cacheEntry; front = most recently used
	leases  map[string]*leaseEntry
	bytes   int
	started time.Time

	gets, hits, misses, puts    *obs.Counter
	evictions, evictedBytes     *obs.Counter
	leaseGrants, leaseReleased  *obs.Counter
	leaseExpired, leaseTimeouts *obs.Counter
}

// NewCacheServer returns a cache server (mount Handler in any
// http.Server).
func NewCacheServer(cfg CacheServerConfig) *CacheServer {
	cfg.fill()
	o := obs.New(nil, cfg.Registry)
	return &CacheServer{
		cfg:     cfg,
		o:       o,
		entries: map[string]*cacheEntry{},
		lru:     list.New(),
		leases:  map[string]*leaseEntry{},
		started: time.Now(),

		gets:          o.Counter("farmcache.gets"),
		hits:          o.Counter("farmcache.hits"),
		misses:        o.Counter("farmcache.misses"),
		puts:          o.Counter("farmcache.puts"),
		evictions:     o.Counter("farmcache.evictions"),
		evictedBytes:  o.Counter("farmcache.evicted_bytes"),
		leaseGrants:   o.Counter("farmcache.lease.grants"),
		leaseReleased: o.Counter("farmcache.lease.released"),
		leaseExpired:  o.Counter("farmcache.lease.expired"),
		leaseTimeouts: o.Counter("farmcache.lease.timeouts"),
	}
}

// Handler returns the cache protocol's HTTP handler.
func (s *CacheServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cache/{ns}/{key}", s.handleGet)
	mux.HandleFunc("HEAD /v1/cache/{ns}/{key}", s.handleHead)
	mux.HandleFunc("PUT /v1/cache/{ns}/{key}", s.handlePut)
	mux.HandleFunc("POST /v1/lease/{ns}/{key}", s.handleLease)
	mux.HandleFunc("DELETE /v1/lease/{ns}/{key}", s.handleUnlease)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func storeKey(r *http.Request) string {
	return r.PathValue("ns") + "/" + r.PathValue("key")
}

func (s *CacheServer) handleGet(w http.ResponseWriter, r *http.Request) {
	s.gets.Add(1)
	key := storeKey(r)
	s.mu.Lock()
	e, ok := s.entries[key]
	var blob []byte
	if ok {
		s.lru.MoveToFront(e.elem)
		blob = e.blob
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		w.WriteHeader(http.StatusNotFound)
		return
	}
	s.hits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(blob)
}

func (s *CacheServer) handleHead(w http.ResponseWriter, r *http.Request) {
	key := storeKey(r)
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		w.Header().Set("Content-Length", fmt.Sprintf("%d", len(e.blob)))
	}
	s.mu.Unlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *CacheServer) handlePut(w http.ResponseWriter, r *http.Request) {
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxPayloadBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(blob) > maxPayloadBytes {
		http.Error(w, "payload exceeds limit", http.StatusRequestEntityTooLarge)
		return
	}
	s.puts.Add(1)
	key := storeKey(r)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		// Last PUT wins; content-addressed keys make variants rare but a
		// re-publish after eviction is routine.
		s.bytes += len(blob) - len(e.blob)
		e.blob = blob
		s.lru.MoveToFront(e.elem)
	} else {
		e := &cacheEntry{key: key, blob: blob}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += len(blob)
	}
	// PUT resolves the key's lease: waiters wake and re-GET.
	s.resolveLeaseLocked(key)
	// Evict LRU entries past the byte cap, never the one just stored.
	for s.bytes > s.cfg.MaxBytes && s.lru.Len() > 1 {
		back := s.lru.Back().Value.(*cacheEntry)
		s.lru.Remove(back.elem)
		delete(s.entries, back.key)
		s.bytes -= len(back.blob)
		s.evictions.Add(1)
		s.evictedBytes.Add(uint64(len(back.blob)))
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// resolveLeaseLocked wakes a key's lease waiters. Caller holds s.mu.
func (s *CacheServer) resolveLeaseLocked(key string) {
	if l, ok := s.leases[key]; ok {
		close(l.done)
		delete(s.leases, key)
	}
}

type leaseResponse struct {
	State string `json:"state"`
}

func (s *CacheServer) handleLease(w http.ResponseWriter, r *http.Request) {
	key := storeKey(r)
	budget := time.NewTimer(s.cfg.LeaseWait)
	defer budget.Stop()
	for {
		s.mu.Lock()
		if _, ok := s.entries[key]; ok {
			// Already published: nothing to build.
			s.mu.Unlock()
			s.leaseReleased.Add(1)
			writeLease(w, "released")
			return
		}
		l, ok := s.leases[key]
		if ok && time.Now().After(l.deadline) {
			// The holder overran its TTL (crashed, partitioned): stop
			// trusting it, wake everyone, and let this caller take over.
			s.resolveLeaseLocked(key)
			s.leaseExpired.Add(1)
			ok = false
		}
		if !ok {
			done := make(chan struct{})
			s.leases[key] = &leaseEntry{done: done, deadline: time.Now().Add(s.cfg.LeaseTTL)}
			s.mu.Unlock()
			s.leaseGrants.Add(1)
			writeLease(w, "granted")
			return
		}
		// Long-poll: wake on resolution, the holder's TTL, the wait
		// budget, or the client hanging up.
		done := l.done
		ttl := time.NewTimer(time.Until(l.deadline))
		s.mu.Unlock()
		select {
		case <-done:
			// Resolved: loop to see whether a payload appeared (released)
			// or the holder gave up (this caller may become the builder).
		case <-ttl.C:
			// Loop; the expiry branch above reaps the stale lease.
		case <-budget.C:
			ttl.Stop()
			s.leaseTimeouts.Add(1)
			writeLease(w, "unavailable")
			return
		case <-r.Context().Done():
			ttl.Stop()
			return
		}
		ttl.Stop()
	}
}

func (s *CacheServer) handleUnlease(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.resolveLeaseLocked(storeKey(r))
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func writeLease(w http.ResponseWriter, state string) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(leaseResponse{State: state})
}

// Stats is the cache server's point-in-time occupancy.
type CacheServerStats struct {
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
	Leases  int `json:"leases"`
}

// Stats snapshots occupancy (for /healthz and tests).
func (s *CacheServer) Stats() CacheServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheServerStats{Entries: len(s.entries), Bytes: s.bytes, Leases: len(s.leases)}
}

func (s *CacheServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":     "ok",
		"role":       "farmcache",
		"entries":    st.Entries,
		"bytes":      st.Bytes,
		"leases":     st.Leases,
		"uptime_sec": int64(time.Since(s.started).Seconds()),
	})
}

func (s *CacheServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "metrics registry disabled", http.StatusNotFound)
		return
	}
	snap := s.cfg.Registry.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.String())
		return
	}
	blob, err := snap.JSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(blob, '\n'))
}
