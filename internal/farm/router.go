package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Router is the farm's thin front door: it owns no session state, just
// a consistent-hash ring mapping session names to nodes. Every
// /v1/sessions request is forwarded to the session's owning node, so a
// client talks to one address while its session's vfs overlay, memo
// state, and L1 cache affinity all stay on one daemon. Idempotent
// requests (GET, HEAD, DELETE) are retried with backoff when a node
// fails mid-request; non-idempotent ones surface the failure (the
// client's own retry policy decides, knowing whether its call is safe
// to repeat).
type Router struct {
	o    *obs.Obs
	reg  *obs.Registry
	ring *Ring
	hc   *http.Client

	mu      sync.RWMutex
	nodes   map[string]*routerNode
	started time.Time

	retries int
	backoff time.Duration
}

// routerNode is one daemon behind the router.
type routerNode struct {
	ID  string
	URL string

	mu      sync.Mutex
	healthy bool
	lastErr string
	health  map[string]any // last /healthz body
}

// RouterConfig configures a router.
type RouterConfig struct {
	// Registry, when set, collects per-node forward counters.
	Registry *obs.Registry
	// ForwardTimeout bounds one forwarded request; <= 0 means 120s
	// (compute requests legitimately take a while under load).
	ForwardTimeout time.Duration
	// Retries is how many extra attempts an idempotent request gets;
	// < 0 means 0, default 2.
	Retries int
	// Backoff is the initial retry delay, doubling per attempt; <= 0
	// means 100ms.
	Backoff time.Duration
}

// NewRouter returns an empty router; add nodes with AddNode.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 120 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	return &Router{
		o:       obs.New(nil, cfg.Registry),
		reg:     cfg.Registry,
		ring:    NewRing(defaultReplicas),
		hc:      &http.Client{Timeout: cfg.ForwardTimeout},
		nodes:   map[string]*routerNode{},
		started: time.Now(),
		retries: cfg.Retries,
		backoff: cfg.Backoff,
	}
}

// AddNode joins a daemon to the fleet. Consistent hashing moves only
// ~1/n of the session keyspace onto the new node; sessions that stay
// put keep their warm state.
func (rt *Router) AddNode(id, url string) {
	rt.mu.Lock()
	if _, ok := rt.nodes[id]; !ok {
		rt.nodes[id] = &routerNode{ID: id, URL: strings.TrimSuffix(url, "/"), healthy: true}
	}
	rt.mu.Unlock()
	rt.ring.Add(id)
}

// RemoveNode leaves a daemon from the fleet; its share of the keyspace
// redistributes across the remaining nodes (those sessions re-prepare
// on their new owner at next use).
func (rt *Router) RemoveNode(id string) {
	rt.ring.Remove(id)
	rt.mu.Lock()
	delete(rt.nodes, id)
	rt.mu.Unlock()
}

// Nodes lists the fleet sorted by ID.
func (rt *Router) Nodes() []string { return rt.ring.Nodes() }

func (rt *Router) node(id string) *routerNode {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.nodes[id]
}

// Owner maps a session name to its owning node ID ("" on an empty
// fleet).
func (rt *Router) Owner(session string) string { return rt.ring.Get(session) }

// Handler returns the router's HTTP front door: the daemon's
// /v1/sessions API (forwarded), plus /healthz and /debug/dash for the
// fleet.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /debug/dash", rt.handleDash)
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions", rt.handleList)
	mux.HandleFunc("/v1/sessions/{name}", rt.forwardBySession)
	mux.HandleFunc("/v1/sessions/{name}/{rest...}", rt.forwardBySession)
	return mux
}

func writeRouterError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleCreate peeks the session name out of the body to route the
// create, then forwards the original bytes.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPayloadBytes))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		writeRouterError(w, http.StatusBadRequest, "create needs a JSON body with a session name")
		return
	}
	rt.forward(w, r, req.Name, body)
}

// handleList fans out to every node and merges the session lists, so
// the fleet looks like one daemon to a read-only client.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	type sessionList struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	var merged []json.RawMessage
	for _, id := range rt.ring.Nodes() {
		n := rt.node(id)
		if n == nil {
			continue
		}
		resp, err := rt.hc.Get(n.URL + "/v1/sessions")
		if err != nil {
			writeRouterError(w, http.StatusBadGateway, "node %s: %v", id, err)
			return
		}
		var sl sessionList
		err = json.NewDecoder(resp.Body).Decode(&sl)
		resp.Body.Close()
		if err != nil {
			writeRouterError(w, http.StatusBadGateway, "node %s: %v", id, err)
			return
		}
		merged = append(merged, sl.Sessions...)
	}
	// Session names are unique fleet-wide (one owner per name), and each
	// node returns its list name-sorted; sort the merge for a stable
	// fleet view.
	sort.Slice(merged, func(i, j int) bool { return string(merged[i]) < string(merged[j]) })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sessionList{Sessions: merged})
}

func (rt *Router) forwardBySession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxPayloadBytes))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	rt.forward(w, r, r.PathValue("name"), body)
}

// forward proxies one request to the session's owning node, retrying
// idempotent methods on transient failures.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, session string, body []byte) {
	id := rt.ring.Get(session)
	if id == "" {
		writeRouterError(w, http.StatusServiceUnavailable, "no nodes joined")
		return
	}
	n := rt.node(id)
	if n == nil {
		writeRouterError(w, http.StatusServiceUnavailable, "node %s left the fleet", id)
		return
	}
	rt.o.Counter("router.forwards").Add(1)
	rt.o.Counter("router.forwards." + id).Add(1)

	retries := 0
	if r.Method == http.MethodGet || r.Method == http.MethodHead || r.Method == http.MethodDelete {
		retries = rt.retries
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		sent, err := rt.attempt(w, r, n, body)
		if sent {
			return // response (success or node-authored error) relayed
		}
		lastErr = err
		rt.o.Counter("router.forward_errors").Add(1)
		n.noteError(err)
		if attempt >= retries {
			break
		}
		rt.o.Counter("router.retries").Add(1)
		time.Sleep(rt.backoff << attempt)
	}
	writeRouterError(w, http.StatusBadGateway, "node %s: %v", id, lastErr)
}

// attempt forwards once. sent reports that a response was relayed to
// the client (after which no retry is possible).
func (rt *Router) attempt(w http.ResponseWriter, r *http.Request, n *routerNode, body []byte) (sent bool, err error) {
	u := n.URL + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	n.noteOK()
	for _, h := range []string{"Content-Type", "X-Request-ID"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Farm-Node", n.ID)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true, nil
}

func (n *routerNode) noteError(err error) {
	n.mu.Lock()
	n.healthy = false
	if err != nil {
		n.lastErr = err.Error()
	}
	n.mu.Unlock()
}

func (n *routerNode) noteOK() {
	n.mu.Lock()
	n.healthy = true
	n.lastErr = ""
	n.mu.Unlock()
}

// ----------------------------------------------------------- health

// PollHealth probes every node's /healthz once (the router's health
// loop and tests call it; the dashboard renders the stored snapshots).
func (rt *Router) PollHealth() {
	hc := &http.Client{Timeout: 3 * time.Second}
	for _, id := range rt.ring.Nodes() {
		n := rt.node(id)
		if n == nil {
			continue
		}
		resp, err := hc.Get(n.URL + "/healthz")
		if err != nil {
			n.noteError(err)
			continue
		}
		var h map[string]any
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			n.noteError(err)
			continue
		}
		n.mu.Lock()
		n.healthy = resp.StatusCode == http.StatusOK
		n.health = h
		if n.healthy {
			n.lastErr = ""
		} else {
			n.lastErr = fmt.Sprintf("healthz %d", resp.StatusCode)
		}
		n.mu.Unlock()
	}
}

// RunHealthLoop polls node health every interval until ctx ends.
func (rt *Router) RunHealthLoop(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.PollHealth()
		}
	}
}

// nodeRow is one node's dashboard/healthz view.
type nodeRow struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	LastErr     string `json:"last_err,omitempty"`
	Sessions    int    `json:"sessions"`
	UptimeSec   int64  `json:"uptime_sec"`
	Draining    bool   `json:"draining"`
	RemoteCache string `json:"remote_cache,omitempty"`
	Forwards    uint64 `json:"forwards"`
}

func (rt *Router) nodeRows() []nodeRow {
	var snap obs.Snapshot
	if rt.reg != nil {
		snap = rt.reg.Snapshot()
	}
	rows := make([]nodeRow, 0)
	for _, id := range rt.ring.Nodes() {
		n := rt.node(id)
		if n == nil {
			continue
		}
		n.mu.Lock()
		row := nodeRow{ID: n.ID, URL: n.URL, Healthy: n.healthy, LastErr: n.lastErr}
		if h := n.health; h != nil {
			if v, ok := h["sessions"].(float64); ok {
				row.Sessions = int(v)
			}
			if v, ok := h["uptime_sec"].(float64); ok {
				row.UptimeSec = int64(v)
			}
			if v, ok := h["draining"].(bool); ok {
				row.Draining = v
			}
			if v, ok := h["remote_cache"].(string); ok {
				row.RemoteCache = v
			}
		}
		n.mu.Unlock()
		if snap.Counters != nil {
			row.Forwards = snap.Counters["router.forwards."+id]
		}
		rows = append(rows, row)
	}
	return rows
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rows := rt.nodeRows()
	healthy := 0
	for _, row := range rows {
		if row.Healthy {
			healthy++
		}
	}
	status := "ok"
	code := http.StatusOK
	if healthy == 0 {
		status = "down"
		code = http.StatusServiceUnavailable
	} else if healthy < len(rows) {
		status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":     status,
		"role":       "router",
		"nodes":      rows,
		"uptime_sec": int64(time.Since(rt.started).Seconds()),
	})
}

var routerDashTmpl = template.Must(template.New("routerdash").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>yallafarm router</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 64em; color: #24292e; }
h1 { font-size: 1.4em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 3px 10px; border-bottom: 1px solid #e1e4e8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.pill { display: inline-block; padding: 1px 10px; border-radius: 10px; color: #fff; font-size: 0.85em; }
.ok { background: #28a745; } .bad { background: #d73a49; }
.muted { color: #6a737d; }
</style>
</head>
<body>
<h1>yallafarm router <span class="muted" style="font-size:0.6em">{{len .Rows}} nodes · {{.Forwards}} forwards · {{.Retries}} retries · auto-refresh 2s</span></h1>
<table>
<tr><th>node</th><th>state</th><th class="num">sessions</th><th class="num">forwards</th><th>remote cache</th><th>last error</th><th>dash</th></tr>
{{range .Rows}}<tr>
<td>{{.ID}}</td>
<td>{{if .Draining}}<span class="pill bad">draining</span>{{else if .Healthy}}<span class="pill ok">healthy</span>{{else}}<span class="pill bad">unreachable</span>{{end}}</td>
<td class="num">{{.Sessions}}</td>
<td class="num">{{.Forwards}}</td>
<td>{{if .RemoteCache}}{{.RemoteCache}}{{else}}<span class="muted">none</span>{{end}}</td>
<td>{{if .LastErr}}{{.LastErr}}{{else}}<span class="muted">–</span>{{end}}</td>
<td><a href="{{.URL}}/debug/dash">/debug/dash</a></td>
</tr>{{end}}
</table>
</body>
</html>
`))

func (rt *Router) handleDash(w http.ResponseWriter, r *http.Request) {
	var forwards, retries uint64
	if rt.reg != nil {
		snap := rt.reg.Snapshot()
		forwards = snap.Counters["router.forwards"]
		retries = snap.Counters["router.retries"]
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	routerDashTmpl.Execute(w, struct {
		Rows     []nodeRow
		Forwards uint64
		Retries  uint64
	}{rt.nodeRows(), forwards, retries})
}
