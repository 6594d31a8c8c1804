// Package buildcache is a content-addressed compilation cache for the
// simulation substrate. Real builds of the paper's corpora re-lex and
// re-parse the same ~580 corpus headers for every translation unit of
// every subject and mode; this package memoizes that redundant work the
// same way ccache/sccache do for real compilers, at two granularities:
//
//   - Token streams: one lexed token stream per distinct (path, content)
//     pair, shared read-only by every preprocessor run in the process.
//   - Translation units: the preprocessed token stream, parsed AST, and
//     caller-supplied statistics of a whole TU, keyed by the compilation
//     configuration (main file, search paths, defines) and validated
//     against a recorded dependency manifest — every file the preprocess
//     read (by content hash) and every include-resolution probe that
//     missed (which must still miss). This is ccache's "direct mode":
//     a hit is only served when byte-identical inputs guarantee a
//     byte-identical result.
//
// Only real wall-clock time changes; cached entries are exactly what a
// cold run would recompute, so all virtual-time outputs (Tables 2–3,
// Figures 7–10) stay byte-identical with the cache on or off.
//
// Each configuration key holds at most one parsed tree: inserting a
// variant releases the trees of the key's other variants, which keep
// their tokens, manifest and Aux, and a tree consumer that hits a
// treeless variant re-parses it through TU.Unit (see there). Statistics
// consumers never read a tree, so a superseded variant costs them
// nothing, and the memory of a long session is one tree per key instead
// of one per variant.
//
// Cached token slices and ASTs are shared across goroutines and must be
// treated as immutable by all consumers.
package buildcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpp/ast"
	"repro/internal/cpp/parser"
	"repro/internal/cpp/preprocessor"
	"repro/internal/cpp/token"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Stats counts cache traffic. BytesSaved is source bytes that were not
// re-lexed thanks to token-stream hits; TokensSaved is TU tokens that
// were not re-preprocessed/re-parsed thanks to translation-unit hits.
//
// With a remote Backend attached the cache is tiered: TUMisses counts
// only entries this process built itself, and RemoteTUHits counts
// entries adopted from the remote tier — the two are disjoint, and
// their sum is the process's cold-path traffic. Summing TUMisses
// across a fleet therefore gives the fleet-wide compile count, which
// is how the farm's smoke test proves a cold miss compiled exactly once.
type Stats struct {
	TokenHits   uint64
	TokenMisses uint64
	TUHits      uint64
	TUMisses    uint64
	Evictions   uint64
	BytesSaved  uint64
	TokensSaved uint64
	// EvictedBytes is the estimated size of the TU entries evicted, by
	// any bound (see tokenShare and treeShare).
	EvictedBytes uint64
	// ResidentBytes is the estimated resident size of the cached TU
	// entries (see tokenShare and treeShare).
	ResidentBytes uint64

	// Remote (L2) tier traffic; all zero when no Backend is attached.
	RemoteTokenHits uint64
	RemoteTUHits    uint64
	RemoteMisses    uint64
	RemotePuts      uint64
	RemoteErrors    uint64
	// LeaseGrants counts cross-node singleflight leases this process
	// won (it built and published); LeaseWaits counts leases it lost —
	// another node was building, and this process waited instead of
	// duplicating the compile.
	LeaseGrants uint64
	LeaseWaits  uint64
}

// String renders the stats for -v style diagnostics.
func (s Stats) String() string {
	str := fmt.Sprintf("buildcache: tokens %d hit / %d miss, TUs %d hit / %d miss, %d evicted, %.1f MB source re-lex avoided, %d tokens re-parse avoided",
		s.TokenHits, s.TokenMisses, s.TUHits, s.TUMisses, s.Evictions,
		float64(s.BytesSaved)/1e6, s.TokensSaved)
	if s.RemoteTokenHits+s.RemoteTUHits+s.RemoteMisses+s.RemotePuts+s.RemoteErrors > 0 {
		str += fmt.Sprintf("; remote: %d token hits, %d TU hits, %d misses, %d puts, %d errors, leases %d won / %d waited",
			s.RemoteTokenHits, s.RemoteTUHits, s.RemoteMisses, s.RemotePuts, s.RemoteErrors,
			s.LeaseGrants, s.LeaseWaits)
	}
	return str
}

// TU is one cached translation-unit frontend result: everything about a
// compile that depends only on the source text, not on the cost model,
// optimization level, or PCH configuration. Build one with NewTU; the
// parsed tree is reached only through Unit.
type TU struct {
	// Result is the full preprocessor output (token stream, include list,
	// LOC). Shared; read-only.
	Result *preprocessor.Result
	// Aux carries caller-supplied derived data (e.g. compilesim's
	// declaration/instantiation counts) so it is not recomputed on hits.
	// Aux travels through the remote tier when its type has a registered
	// AuxCodec, which is what lets an adopted entry skip the re-parse
	// entirely: the statistics arrive with the tokens.
	Aux any

	// tree is the parsed unit, or nil while the TU holds none: adopted
	// from the remote tier (the wire format carries no trees), or
	// released by its cache because a newer variant of its key was
	// inserted. Swapped atomically, so a consumer that loaded a tree
	// keeps it whatever the cache does next.
	tree atomic.Pointer[ast.TranslationUnit]
	// parsing serializes Unit's re-parse: concurrent callers of a
	// treeless TU parse it once.
	parsing sync.Mutex
	// entry is the cache slot that owns this TU, or nil. Set before the
	// TU is published and never changed.
	entry *tuEntry
	// memo holds the products derived from the token stream; see Memo.
	memo sync.Map
}

// Memo returns the product stored on t under key, storing build's result
// on first use. A product derived from the token stream (a PCH's size, a
// compile's per-file token runs) rides on the TU, so it survives the
// release of the tree and is built once per cached unit. Each package
// keys its products with an unexported type; concurrent first callers
// may each run build, and all of them get the stored result.
func (t *TU) Memo(key any, build func() any) any {
	if v, ok := t.memo.Load(key); ok {
		return v
	}
	v, _ := t.memo.LoadOrStore(key, build())
	return v
}

// NewTU returns a frontend result holding tree (nil when the caller has
// none).
func NewTU(res *preprocessor.Result, tree *ast.TranslationUnit, aux any) *TU {
	t := &TU{Result: res, Aux: aux}
	t.tree.Store(tree)
	return t
}

// Unit returns the parsed translation unit. A TU without a tree — one
// adopted from the remote tier, or a variant its cache released —
// re-parses its token stream (the parser is deterministic, so the tree
// is semantically identical to the one the builder held) and keeps the
// result; its cache then releases the key's other trees. The re-parse
// records a "parse" span and counts in parser.units on o, as
// frontend.Parse does. Returns nil only for an empty TU or an
// unparseable stream, which a validated entry cannot hold.
func (t *TU) Unit(o *obs.Obs) *ast.TranslationUnit {
	if tree := t.tree.Load(); tree != nil {
		return tree
	}
	t.parsing.Lock()
	defer t.parsing.Unlock()
	if tree := t.tree.Load(); tree != nil {
		return tree
	}
	if t.Result == nil {
		return nil
	}
	pr := parser.New(t.Result.Tokens)
	pr.Obs = o
	tree, err := pr.Parse()
	if err != nil {
		return nil
	}
	if t.entry != nil {
		t.entry.cache.holdTree(t.entry, tree)
	} else {
		t.tree.Store(tree)
	}
	return tree
}

// Dep is one entry of a TU's dependency manifest. Hash is the content
// hash the file had when the entry was built; an empty Hash records a
// negative dependency — an include-resolution probe that found no file
// and must still find none for the entry to be valid.
type Dep struct {
	Path string
	Hash string
}

type lexEntry struct {
	done chan struct{}
	toks []token.Token
	err  error
}

type tuEntry struct {
	cache *Cache
	key   string
	deps  []Dep
	val   *TU
	// tokBytes and treeBytes split the entry's estimated resident size,
	// charged to Stats.ResidentBytes: the token share for as long as the
	// entry is cached, the tree share only while val holds a tree. The cache
	// sets and releases val's tree under its lock, so the charge and the
	// slot always agree.
	tokBytes, treeBytes int
	// elem is the entry's node in the cache's LRU list (front = most
	// recently used); nil once evicted.
	elem *list.Element
}

// charge is the entry's current estimated resident size.
func (e *tuEntry) charge() int {
	if e.val.tree.Load() != nil {
		return e.tokBytes + e.treeBytes
	}
	return e.tokBytes
}

// Per-token shares of a TU's size estimate: the 40-byte Token struct
// (its spelling is counted separately), and the arena'd AST nodes a
// token typically expands into. An estimate is enough: ResidentBytes is
// a gauge, not an allocator.
const (
	tokenBytesPerToken = 40
	treeBytesPerToken  = 56
)

// tokenShare approximates the resident size of everything but the tree:
// the token stream (struct plus spelling bytes), the include and
// dependency strings, and a fixed slop.
func tokenShare(val *TU, deps []Dep) int {
	n := 512
	if val.Result != nil {
		res := val.Result
		n += len(res.Tokens) * tokenBytesPerToken
		for i := range res.Tokens {
			n += len(res.Tokens[i].Text)
		}
		for _, s := range res.Includes {
			n += len(s) + 16
		}
		for _, s := range res.AbsentDeps {
			n += len(s) + 16
		}
	}
	for _, d := range deps {
		n += len(d.Path) + len(d.Hash) + 32
	}
	return n
}

// treeShare approximates the size of the TU's parsed tree. The products
// memoized on a tree ride on it uncharged: its symbol table (about 18
// bytes per token) and its user views (a few pointers).
func treeShare(val *TU) int {
	if val.Result == nil {
		return 0
	}
	return len(val.Result.Tokens) * treeBytesPerToken
}

type flight struct {
	done chan struct{}
}

// instruments are the cache's registered metric handles. All fields are
// nil-safe no-ops until AttachMetrics resolves them, and they are
// incremented at exactly the sites the internal Stats counters are, so
// a metrics snapshot always matches Stats().
type instruments struct {
	tokenHits    *obs.Counter
	tokenMisses  *obs.Counter
	tuHits       *obs.Counter
	tuMisses     *obs.Counter
	evictions    *obs.Counter
	evictedBytes *obs.Counter
	bytesSaved   *obs.Counter
	tokensSaved  *obs.Counter
	singleflight *obs.Counter
	resident     *obs.Gauge

	remoteTokenHits *obs.Counter
	remoteTUHits    *obs.Counter
	remoteMisses    *obs.Counter
	remotePuts      *obs.Counter
	remoteErrors    *obs.Counter
	leaseGrants     *obs.Counter
	leaseWaits      *obs.Counter

	// Per-tier latency histograms (wall-clock ms): how long a TU
	// frontend took to come from the local tier, the remote tier, or a
	// compile. Recorded only when a remote Backend is attached, so the
	// metric goldens of remote-less runs stay byte-stable.
	tierL1      *obs.Histogram
	tierL2      *obs.Histogram
	tierCompile *obs.Histogram
}

// Cache is a process-wide build cache, safe for concurrent use. The zero
// value is not usable; call New.
type Cache struct {
	mu        sync.Mutex
	lex       map[string]*lexEntry
	tus       map[string][]*tuEntry
	tuLRU     *list.List // of *tuEntry; front = most recently used
	tuFlights map[string]*flight
	stats     Stats
	ins       instruments

	// maxTokenEntries bounds the token-stream map; when exceeded the
	// completed entries are flushed (a generational eviction, like
	// ccache's size-triggered cleanup). maxTUVariants bounds how many
	// differing-manifest variants are kept per configuration key (oldest
	// evicted first). New sets both; tests lower them.
	maxTokenEntries int
	maxTUVariants   int
	// MaxTUEntries, when > 0, caps the total number of cached translation
	// units across all configuration keys with least-recently-used
	// eviction (hits refresh recency). The default 0 keeps the historical
	// unbounded behavior — fine for one-shot harness runs, a real leak
	// for a long-lived daemon, which sets this. Set before first use.
	MaxTUEntries int
	// Remote, when set, is the shared L2 tier: local misses consult it
	// before building, local builds publish to it, and whole-TU misses
	// coordinate through its lease so a fleet-wide cold miss compiles
	// exactly once. Set before first use. Every Backend error degrades
	// to a local-only build; the cache never fails a request because
	// the remote tier is down.
	Remote Backend
}

// New returns an empty cache with default eviction bounds.
func New() *Cache {
	return &Cache{
		lex:             map[string]*lexEntry{},
		tus:             map[string][]*tuEntry{},
		tuLRU:           list.New(),
		tuFlights:       map[string]*flight{},
		maxTokenEntries: 8192,
		maxTUVariants:   8,
	}
}

var defaultCache = New()

// Default returns the shared process-wide cache.
func Default() *Cache { return defaultCache }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AttachMetrics registers the cache's named instruments
// (buildcache.token.hits, buildcache.tu.misses, …) in the handle's
// registry. Counters accumulate from attach time; attach before first
// use for totals that match Stats(). A nil handle detaches nothing and
// does nothing.
func (c *Cache) AttachMetrics(o *obs.Obs) {
	if o == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ins = instruments{
		tokenHits:    o.Counter("buildcache.token.hits"),
		tokenMisses:  o.Counter("buildcache.token.misses"),
		tuHits:       o.Counter("buildcache.tu.hits"),
		tuMisses:     o.Counter("buildcache.tu.misses"),
		evictions:    o.Counter("buildcache.evictions"),
		evictedBytes: o.Counter("buildcache.evicted_bytes"),
		bytesSaved:   o.Counter("buildcache.bytes_saved"),
		tokensSaved:  o.Counter("buildcache.tokens_saved"),
		singleflight: o.Counter("buildcache.singleflight.dedup"),
		resident:     o.Gauge("buildcache.resident_bytes"),
	}
	c.ins.resident.Set(int64(c.stats.ResidentBytes))
	if c.Remote != nil {
		// Remote-tier instruments exist only on tiered caches, so the
		// metric snapshots of remote-less runs are unchanged by the
		// farm's existence.
		c.ins.remoteTokenHits = o.Counter("buildcache.remote.token_hits")
		c.ins.remoteTUHits = o.Counter("buildcache.remote.tu_hits")
		c.ins.remoteMisses = o.Counter("buildcache.remote.misses")
		c.ins.remotePuts = o.Counter("buildcache.remote.puts")
		c.ins.remoteErrors = o.Counter("buildcache.remote.errors")
		c.ins.leaseGrants = o.Counter("buildcache.lease.grants")
		c.ins.leaseWaits = o.Counter("buildcache.lease.waits")
		c.ins.tierL1 = o.Metrics().Histogram("buildcache.tier.l1_ms")
		c.ins.tierL2 = o.Metrics().Histogram("buildcache.tier.l2_ms")
		c.ins.tierCompile = o.Metrics().Histogram("buildcache.tier.compile_ms")
	}
}

// FileKey is the content-addressed identity of one file: path and
// content both participate, so two files with equal content but
// different paths (whose tokens carry different positions) never share
// an entry, and a rewritten file under the same path never serves stale
// tokens.
func FileKey(path, content string) string {
	h := sha256.New()
	h.Write([]byte(path))
	h.Write([]byte{0})
	h.Write([]byte(content))
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigKey hashes an ordered list of configuration strings (main file,
// search paths, defines) into a TU cache key.
func ConfigKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Tokens returns the memoized token stream for (path, content), calling
// lex on the first request. Concurrent requests for the same file wait
// for the single in-flight lex (singleflight) instead of duplicating it.
// The returned slice is shared and must not be mutated.
func (c *Cache) Tokens(path, content string, lex func() ([]token.Token, error)) ([]token.Token, error) {
	key := FileKey(path, content)
	c.mu.Lock()
	if e, ok := c.lex[key]; ok {
		ins := c.ins
		c.mu.Unlock()
		select {
		case <-e.done:
		default:
			// In-flight elsewhere: we are a deduplicated waiter, not a
			// plain hit on a completed entry.
			ins.singleflight.Add(1)
		}
		<-e.done
		if e.err == nil {
			c.mu.Lock()
			c.stats.TokenHits++
			c.stats.BytesSaved += uint64(len(content))
			c.mu.Unlock()
			ins.tokenHits.Add(1)
			ins.bytesSaved.Add(uint64(len(content)))
			return e.toks, nil
		}
		return e.toks, e.err
	}
	c.evictTokensLocked()
	e := &lexEntry{done: make(chan struct{})}
	c.lex[key] = e
	c.stats.TokenMisses++
	c.ins.tokenMisses.Add(1)
	c.mu.Unlock()

	e.toks, e.err = c.lexOrRemote(key, lex)
	close(e.done)
	if e.err != nil {
		// Do not cache failures; a corpus fix under the same key must
		// re-lex. Waiters already hold the entry and see the error.
		c.mu.Lock()
		delete(c.lex, key)
		c.mu.Unlock()
	}
	return e.toks, e.err
}

// The count helpers keep the internal Stats field and its mirrored
// registry counter in lockstep, exactly like the inline sites for the
// local-tier counters.

func (c *Cache) countRemoteError() {
	c.mu.Lock()
	c.stats.RemoteErrors++
	ctr := c.ins.remoteErrors
	c.mu.Unlock()
	ctr.Add(1)
}

func (c *Cache) countRemoteMiss() {
	c.mu.Lock()
	c.stats.RemoteMisses++
	ctr := c.ins.remoteMisses
	c.mu.Unlock()
	ctr.Add(1)
}

func (c *Cache) countRemotePut() {
	c.mu.Lock()
	c.stats.RemotePuts++
	ctr := c.ins.remotePuts
	c.mu.Unlock()
	ctr.Add(1)
}

// lexOrRemote is the token-stream builder path: consult the remote tier
// before lexing, publish to it after. The key is content-addressed
// (path + content hash), so a remote payload that decodes cleanly is
// valid by construction — no manifest to check.
func (c *Cache) lexOrRemote(key string, lex func() ([]token.Token, error)) ([]token.Token, error) {
	if c.Remote == nil {
		return lex()
	}
	payload, ok, err := c.Remote.Get(NSTokens, key)
	switch {
	case err != nil:
		c.countRemoteError()
	case ok:
		toks, derr := DecodeTokens(payload)
		if derr == nil {
			c.mu.Lock()
			c.stats.RemoteTokenHits++
			ctr := c.ins.remoteTokenHits
			c.mu.Unlock()
			ctr.Add(1)
			return toks, nil
		}
		// Corrupt payload: count and fall through to a local lex.
		c.countRemoteError()
	default:
		c.countRemoteMiss()
	}
	toks, lerr := lex()
	if lerr == nil {
		if perr := c.Remote.Put(NSTokens, key, EncodeTokens(toks)); perr != nil {
			c.countRemoteError()
		} else {
			c.countRemotePut()
		}
	}
	return toks, lerr
}

// evictTokensLocked flushes completed token entries once the map exceeds
// its bound. In-flight entries are kept: their builders still hold them.
func (c *Cache) evictTokensLocked() {
	if len(c.lex) < c.maxTokenEntries {
		return
	}
	for k, e := range c.lex {
		select {
		case <-e.done:
			delete(c.lex, k)
			c.stats.Evictions++
			c.ins.evictions.Add(1)
		default:
		}
	}
}

// TranslationUnit returns a cached TU for the configuration key whose
// dependency manifest validates (every Dep with a Hash must report the
// same hash via valid; every Dep without one must still be absent), or
// builds one. build returns the TU plus the manifest to record. The
// returned bool reports whether the result came from the cache.
//
// Concurrent misses on the same key are deduplicated: one caller builds,
// the others wait and re-validate (their filesystems may differ, in
// which case they build their own variant).
func (c *Cache) TranslationUnit(key string, valid func(Dep) bool, build func() (*TU, []Dep, error)) (*TU, bool, error) {
	start := time.Now()
	for {
		c.mu.Lock()
		entries := append([]*tuEntry(nil), c.tus[key]...)
		fl := c.tuFlights[key]
		c.mu.Unlock()

		for _, e := range entries {
			if depsValid(e.deps, valid) {
				c.mu.Lock()
				c.stats.TUHits++
				if e.val.Result != nil {
					c.stats.TokensSaved += uint64(len(e.val.Result.Tokens))
				}
				if e.elem != nil {
					// Refresh recency; a no-op if the entry was evicted
					// between the snapshot above and taking the lock.
					c.tuLRU.MoveToFront(e.elem)
				}
				ins := c.ins
				c.mu.Unlock()
				ins.tuHits.Add(1)
				if e.val.Result != nil {
					ins.tokensSaved.Add(uint64(len(e.val.Result.Tokens)))
				}
				ins.tierL1.ObserveDuration(time.Since(start))
				return e.val, true, nil
			}
		}
		if fl != nil {
			c.mu.Lock()
			c.ins.singleflight.Add(1)
			c.mu.Unlock()
			<-fl.done
			continue // someone just built this key; re-validate
		}

		c.mu.Lock()
		if fl2 := c.tuFlights[key]; fl2 != nil {
			c.ins.singleflight.Add(1)
			c.mu.Unlock()
			<-fl2.done
			continue
		}
		mine := &flight{done: make(chan struct{})}
		c.tuFlights[key] = mine
		c.mu.Unlock()

		// This goroutine owns the node-local build for the key; with a
		// remote tier attached it first tries L2, and coordinates the
		// actual build through the fleet-wide lease.
		val, deps, fromRemote, err := c.buildOrRemoteTU(key, valid, build)
		c.mu.Lock()
		delete(c.tuFlights, key)
		if err == nil {
			if fromRemote {
				c.stats.RemoteTUHits++
				c.ins.remoteTUHits.Add(1)
			} else {
				c.stats.TUMisses++
				c.ins.tuMisses.Add(1)
			}
			val = c.insertLocked(key, deps, val)
		}
		c.mu.Unlock()
		close(mine.done)
		return val, fromRemote, err
	}
}

// remoteFetchTU tries to satisfy a TU miss from the remote tier: fetch,
// integrity-check, decode, then validate the embedded dependency
// manifest against the local filesystem. Any failure — transport,
// corruption, stale manifest — is a miss.
func (c *Cache) remoteFetchTU(key string, valid func(Dep) bool) (*TU, []Dep, bool) {
	start := time.Now()
	payload, ok, err := c.Remote.Get(NSTU, key)
	if err != nil {
		c.countRemoteError()
		return nil, nil, false
	}
	if !ok {
		c.countRemoteMiss()
		return nil, nil, false
	}
	tu, deps, err := DecodeTU(payload)
	if err != nil {
		c.countRemoteError()
		return nil, nil, false
	}
	if !depsValid(deps, valid) {
		// The fleet's entry was built against different file contents
		// (another session's overlay); for us it is a miss.
		c.countRemoteMiss()
		return nil, nil, false
	}
	c.mu.Lock()
	ins := c.ins
	c.mu.Unlock()
	ins.tierL2.ObserveDuration(time.Since(start))
	return tu, deps, true
}

// publishTU encodes and publishes a locally built entry. Publishing
// also releases the fleet lease on the key (Put implies release); if
// the entry cannot travel or the put fails, the lease is released
// explicitly so waiting nodes unblock and build their own.
func (c *Cache) publishTU(key string, val *TU, deps []Dep) {
	payload, err := EncodeTU(val, deps)
	if err == nil {
		if perr := c.Remote.Put(NSTU, key, payload); perr == nil {
			c.countRemotePut()
			return
		}
		c.countRemoteError()
	}
	if uerr := c.Remote.Unlease(NSTU, key); uerr != nil {
		c.countRemoteError()
	}
}

// buildOrRemoteTU resolves a node-local TU miss against the remote
// tier: L2 fetch first, then the fleet-wide lease — the winner builds
// and publishes, losers wait for the release and re-fetch, and every
// backend failure degrades to a plain local build.
func (c *Cache) buildOrRemoteTU(key string, valid func(Dep) bool, build func() (*TU, []Dep, error)) (*TU, []Dep, bool, error) {
	if c.Remote == nil {
		val, deps, err := build()
		return val, deps, false, err
	}
	if tu, deps, ok := c.remoteFetchTU(key, valid); ok {
		return tu, deps, true, nil
	}

	timedBuild := func() (*TU, []Dep, error) {
		start := time.Now()
		val, deps, err := build()
		if err == nil {
			c.mu.Lock()
			ins := c.ins
			c.mu.Unlock()
			ins.tierCompile.ObserveDuration(time.Since(start))
		}
		return val, deps, err
	}

	st, err := c.Remote.Lease(NSTU, key)
	if err != nil {
		c.countRemoteError()
		st = LeaseUnavailable
	}
	switch st {
	case LeaseGranted:
		c.mu.Lock()
		c.stats.LeaseGrants++
		ctr := c.ins.leaseGrants
		c.mu.Unlock()
		ctr.Add(1)
		val, deps, err := timedBuild()
		if err != nil {
			if uerr := c.Remote.Unlease(NSTU, key); uerr != nil {
				c.countRemoteError()
			}
			return nil, nil, false, err
		}
		c.publishTU(key, val, deps)
		return val, deps, false, nil

	case LeaseReleased:
		// Another node built while we waited: its compile, not ours.
		c.mu.Lock()
		c.stats.LeaseWaits++
		ctr := c.ins.leaseWaits
		c.mu.Unlock()
		ctr.Add(1)
		if tu, deps, ok := c.remoteFetchTU(key, valid); ok {
			return tu, deps, true, nil
		}
		// The published variant does not validate against our tree
		// (different overlay contents): build our own and publish it.
		val, deps, err := timedBuild()
		if err != nil {
			return nil, nil, false, err
		}
		c.publishTU(key, val, deps)
		return val, deps, false, nil

	default: // LeaseUnavailable
		val, deps, err := timedBuild()
		if err != nil {
			return nil, nil, false, err
		}
		c.publishTU(key, val, deps)
		return val, deps, false, nil
	}
}

// insertLocked caches val as a new variant of key, enforces the bounds,
// and returns the cached TU. The entry gets a TU of its own, sharing
// val's result, tree and Aux, so no builder-held TU ever aliases a cache
// slot. The key's other variants release their trees: this variant is
// the one the next lookup most likely validates. Caller holds c.mu.
func (c *Cache) insertLocked(key string, deps []Dep, val *TU) *TU {
	own := NewTU(val.Result, val.tree.Load(), val.Aux)
	e := &tuEntry{cache: c, key: key, deps: deps, val: own,
		tokBytes: tokenShare(own, deps), treeBytes: treeShare(own)}
	own.entry = e
	for _, x := range c.tus[key] {
		c.releaseTreeLocked(x)
	}
	e.elem = c.tuLRU.PushFront(e)
	c.tus[key] = append(c.tus[key], e)
	c.chargeLocked(e.charge())
	for len(c.tus[key]) > c.maxTUVariants {
		c.evictTULocked(c.tus[key][0]) // oldest variant first
	}
	for c.MaxTUEntries > 0 && c.tuLRU.Len() > c.MaxTUEntries {
		c.evictTULocked(c.tuLRU.Back().Value.(*tuEntry))
	}
	return own
}

// releaseTreeLocked drops e's tree, if it holds one, and its charge.
// Consumers that loaded the tree keep it. Caller holds c.mu.
func (c *Cache) releaseTreeLocked(e *tuEntry) {
	if e.val.tree.Swap(nil) != nil {
		c.chargeLocked(-e.treeBytes)
	}
}

// holdTree installs a tree Unit re-parsed for e's TU. The key keeps one
// tree, so its other variants release theirs and the re-parsed variant
// is charged the tree share. An evicted entry's TU keeps the tree for
// whoever still holds it, uncharged.
func (c *Cache) holdTree(e *tuEntry, tree *ast.TranslationUnit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.val.tree.Swap(tree) != nil || e.elem == nil {
		return
	}
	for _, x := range c.tus[e.key] {
		if x != e {
			c.releaseTreeLocked(x)
		}
	}
	c.chargeLocked(e.treeBytes)
}

// chargeLocked moves the resident-size estimate by delta bytes and
// mirrors it in the buildcache.resident_bytes gauge. Caller holds c.mu.
func (c *Cache) chargeLocked(delta int) {
	c.stats.ResidentBytes = uint64(int64(c.stats.ResidentBytes) + int64(delta))
	c.ins.resident.Set(int64(c.stats.ResidentBytes))
}

// evictTULocked removes one TU entry from the LRU list and its key's
// variant slice, counting the eviction. Caller holds c.mu.
func (c *Cache) evictTULocked(e *tuEntry) {
	if e.elem != nil {
		c.tuLRU.Remove(e.elem)
		e.elem = nil
	}
	s := c.tus[e.key]
	for i, x := range s {
		if x == e {
			c.tus[e.key] = append(s[:i], s[i+1:]...)
			break
		}
	}
	if len(c.tus[e.key]) == 0 {
		delete(c.tus, e.key)
	}
	n := e.charge()
	c.chargeLocked(-n)
	c.stats.Evictions++
	c.stats.EvictedBytes += uint64(n)
	c.ins.evictions.Add(1)
	c.ins.evictedBytes.Add(uint64(n))
}

func depsValid(deps []Dep, valid func(Dep) bool) bool {
	for _, d := range deps {
		if !valid(d) {
			return false
		}
	}
	return true
}

// Manifest records the dependency set of a preprocessor run: the main
// file and every include by content hash, plus every missed resolution
// probe as a negative (must-stay-absent) entry.
func Manifest(fs *vfs.FS, main string, res *preprocessor.Result) []Dep {
	deps := make([]Dep, 0, len(res.Includes)+len(res.AbsentDeps)+1)
	add := func(p string) {
		if h, ok := fs.ContentHash(p); ok {
			deps = append(deps, Dep{Path: p, Hash: h})
		}
	}
	add(vfs.Clean(main))
	for _, inc := range res.Includes {
		add(inc)
	}
	for _, p := range res.AbsentDeps {
		deps = append(deps, Dep{Path: p})
	}
	return deps
}

// Validator returns a Dep validator over fs: positive deps must hash to
// the recorded value, negative deps must still be absent.
func Validator(fs *vfs.FS) func(Dep) bool {
	return func(d Dep) bool {
		if d.Hash == "" {
			return !fs.Exists(d.Path)
		}
		h, ok := fs.ContentHash(d.Path)
		return ok && h == d.Hash
	}
}
