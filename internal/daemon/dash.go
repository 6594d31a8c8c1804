package daemon

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The live dashboard: GET /debug/dash renders a self-contained HTML page
// — RED totals, per-route latency quantiles, cache hit rates, per-phase
// histograms, session state, flight-recorder occupancy, and an inline
// SVG sparkline of recent request latencies — with nothing but the
// stdlib. No javascript frameworks, no CDN assets: the page is a single
// template over a metrics snapshot, auto-refreshed by a <meta> tag, so
// it works on an air-gapped dev box and costs one request per refresh.

// latRingSize is how many completed requests the sparkline remembers —
// enough to show a couple of minutes of interactive editing without
// growing with uptime.
const latRingSize = 240

// sample is one completed request as the dashboard sees it.
type sample struct {
	route  string
	dur    time.Duration
	status int
}

// latRing is a fixed-size overwrite ring of recent request samples.
type latRing struct {
	mu   sync.Mutex
	buf  [latRingSize]sample
	next int
	n    int
}

func (r *latRing) add(s sample) {
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % latRingSize
	if r.n < latRingSize {
		r.n++
	}
	r.mu.Unlock()
}

// snapshot returns the retained samples oldest-first.
func (r *latRing) snapshot() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]sample, 0, r.n)
	start := r.next - r.n
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[((start+i)%latRingSize+latRingSize)%latRingSize])
	}
	return out
}

// ----------------------------------------------------------- dash data

type dashRow struct {
	Name  string
	Count uint64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

type dashCache struct {
	TokenHits   uint64
	TokenMisses uint64
	TokenRate   string
	TUHits      uint64
	TUMisses    uint64
	TURate      string
	Evictions   uint64
	BytesSaved  float64 // MB

	// Remote (L2) tier; HasRemote gates the dashboard section so a
	// remote-less daemon renders exactly as before.
	HasRemote       bool
	RemoteTokenHits uint64
	RemoteTUHits    uint64
	RemoteMisses    uint64
	RemoteRate      string
	RemotePuts      uint64
	RemoteErrors    uint64
	LeaseGrants     uint64
	LeaseWaits      uint64
}

// dashInval summarizes the decl-level invalidation planner: how many
// structural edits early cutoff proved benign (setup kept), how many
// needed only a wrapper TU recompile, and how much diff work that took.
type dashInval struct {
	Hits        uint64
	Wrappers    uint64
	DeclsDiffed uint64
}

type dashData struct {
	Now       string
	Node      string
	Uptime    string
	Draining  bool
	Workers   int
	Inflight  int64
	Requests  uint64
	Errors    uint64
	Routes    []dashRow
	Phases    []dashRow
	Cache     dashCache
	Inval     dashInval
	Sessions  []Info
	Flight    obs.FlightStats
	HasTracer bool
	Spark     template.HTML
	SparkN    int
	SparkMax  string
}

func hitRate(hits, misses uint64) string {
	if hits+misses == 0 {
		return "–"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(hits+misses))
}

func (s *Server) dashData() dashData {
	snap := s.reg.Snapshot()
	d := dashData{
		Now:       time.Now().Format("15:04:05"),
		Node:      s.cfg.NodeID,
		Uptime:    time.Since(s.started).Round(time.Second).String(),
		Draining:  s.draining.Load(),
		Workers:   s.cfg.Workers,
		Inflight:  s.inflight.Load(),
		Requests:  snap.Counters["daemon.requests"],
		Errors:    snap.Counters["daemon.errors"],
		Sessions:  s.Sessions(),
		HasTracer: s.tracer != nil,
		Inval: dashInval{
			Hits:        snap.Counters["inval.early_cutoff_hits"],
			Wrappers:    snap.Counters["inval.wrapper_recompiles_scheduled"],
			DeclsDiffed: snap.Counters["inval.decls_diffed"],
		},
	}
	if s.tracer != nil {
		d.Flight = s.tracer.FlightStats()
	}
	st := s.cache.Stats()
	d.Cache = dashCache{
		TokenHits: st.TokenHits, TokenMisses: st.TokenMisses,
		TokenRate: hitRate(st.TokenHits, st.TokenMisses),
		TUHits:    st.TUHits, TUMisses: st.TUMisses,
		TURate:    hitRate(st.TUHits, st.TUMisses),
		Evictions: st.Evictions, BytesSaved: float64(st.BytesSaved) / 1e6,
	}
	if s.cache.Remote != nil {
		remoteHits := st.RemoteTokenHits + st.RemoteTUHits
		d.Cache.HasRemote = true
		d.Cache.RemoteTokenHits = st.RemoteTokenHits
		d.Cache.RemoteTUHits = st.RemoteTUHits
		d.Cache.RemoteMisses = st.RemoteMisses
		d.Cache.RemoteRate = hitRate(remoteHits, st.RemoteMisses)
		d.Cache.RemotePuts = st.RemotePuts
		d.Cache.RemoteErrors = st.RemoteErrors
		d.Cache.LeaseGrants = st.LeaseGrants
		d.Cache.LeaseWaits = st.LeaseWaits
	}

	const routePrefix = "daemon.request_ms."
	for name, h := range snap.Histograms {
		row := dashRow{Name: name, Count: h.Count, P50: h.P50, P95: h.P95, P99: h.P99, Max: h.Max}
		if strings.HasPrefix(name, routePrefix) {
			row.Name = strings.TrimPrefix(name, routePrefix)
			d.Routes = append(d.Routes, row)
		} else if name != "daemon.request_ms" {
			d.Phases = append(d.Phases, row)
		}
	}
	sort.Slice(d.Routes, func(i, j int) bool { return d.Routes[i].Name < d.Routes[j].Name })
	sort.Slice(d.Phases, func(i, j int) bool { return d.Phases[i].Name < d.Phases[j].Name })

	samples := s.recent.snapshot()
	d.Spark = sparkline(samples)
	d.SparkN = len(samples)
	var max time.Duration
	for _, sm := range samples {
		if sm.dur > max {
			max = sm.dur
		}
	}
	d.SparkMax = max.Round(time.Microsecond).String()
	return d
}

// sparkline renders recent request latencies as an inline SVG polyline
// (log-free linear scale, newest on the right); error responses get a
// red marker. Empty input renders an empty frame.
func sparkline(samples []sample) template.HTML {
	const w, h = 600, 60
	var b strings.Builder
	fmt.Fprintf(&b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="recent request latencies">`, w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="#f6f8fa"/>`, w, h)
	if len(samples) > 0 {
		var max float64
		for _, s := range samples {
			if v := float64(s.dur.Nanoseconds()); v > max {
				max = v
			}
		}
		if max <= 0 {
			max = 1
		}
		step := float64(w) / float64(latRingSize)
		var pts strings.Builder
		for i, s := range samples {
			x := float64(w) - float64(len(samples)-i)*step
			y := float64(h-4) - float64(s.dur.Nanoseconds())/max*float64(h-8)
			fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
			if s.status >= 400 {
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="#d73a49"/>`, x, y)
			}
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#0366d6" stroke-width="1.5"/>`, strings.TrimSpace(pts.String()))
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

var dashTmpl = template.Must(template.New("dash").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>yallad dashboard</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto; max-width: 64em; color: #24292e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 3px 10px; border-bottom: 1px solid #e1e4e8; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.pill { display: inline-block; padding: 1px 10px; border-radius: 10px; color: #fff; font-size: 0.85em; }
.ok { background: #28a745; } .drain { background: #d73a49; }
.muted { color: #6a737d; }
.cards { display: flex; gap: 2.5em; flex-wrap: wrap; }
.card b { font-size: 1.3em; display: block; }
</style>
</head>
<body>
<h1>yallad{{if .Node}} <span class="muted">[{{.Node}}]</span>{{end}}
{{if .Draining}}<span class="pill drain">draining</span>{{else}}<span class="pill ok">serving</span>{{end}}
<span class="muted" style="font-size:0.6em">up {{.Uptime}} · {{.Now}} · auto-refresh 2s</span></h1>

<div class="cards">
<div class="card"><b>{{.Requests}}</b>requests</div>
<div class="card"><b>{{.Errors}}</b>errors</div>
<div class="card"><b>{{.Inflight}}</b>in flight</div>
<div class="card"><b>{{.Workers}}</b>workers</div>
</div>

<h2>Recent latency <span class="muted">({{.SparkN}} samples, peak {{.SparkMax}}; red dots are errors)</span></h2>
{{.Spark}}

<h2>Per-route latency (ms)</h2>
{{if .Routes}}<table>
<tr><th>route</th><th class="num">count</th><th class="num">p50</th><th class="num">p95</th><th class="num">p99</th><th class="num">max</th></tr>
{{range .Routes}}<tr><td>{{.Name}}</td><td class="num">{{.Count}}</td><td class="num">{{printf "%.2f" .P50}}</td><td class="num">{{printf "%.2f" .P95}}</td><td class="num">{{printf "%.2f" .P99}}</td><td class="num">{{printf "%.2f" .Max}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no requests yet</p>{{end}}

<h2>Build cache</h2>
<table>
<tr><th></th><th class="num">hits</th><th class="num">misses</th><th class="num">hit rate</th></tr>
<tr><td>tokens</td><td class="num">{{.Cache.TokenHits}}</td><td class="num">{{.Cache.TokenMisses}}</td><td class="num">{{.Cache.TokenRate}}</td></tr>
<tr><td>TUs</td><td class="num">{{.Cache.TUHits}}</td><td class="num">{{.Cache.TUMisses}}</td><td class="num">{{.Cache.TURate}}</td></tr>
{{if .Cache.HasRemote}}<tr><td>remote (L2) tokens</td><td class="num">{{.Cache.RemoteTokenHits}}</td><td class="num" rowspan="2">{{.Cache.RemoteMisses}}</td><td class="num" rowspan="2">{{.Cache.RemoteRate}}</td></tr>
<tr><td>remote (L2) TUs</td><td class="num">{{.Cache.RemoteTUHits}}</td></tr>{{end}}
</table>
<p class="muted">{{.Cache.Evictions}} evictions · {{printf "%.1f" .Cache.BytesSaved}} MB re-lex avoided{{if .Cache.HasRemote}} · remote: {{.Cache.RemotePuts}} puts, {{.Cache.RemoteErrors}} errors, leases {{.Cache.LeaseGrants}} won / {{.Cache.LeaseWaits}} waited{{end}}</p>

<h2>Pipeline phases (ms)</h2>
{{if .Phases}}<table>
<tr><th>histogram</th><th class="num">count</th><th class="num">p50</th><th class="num">p95</th><th class="num">p99</th><th class="num">max</th></tr>
{{range .Phases}}<tr><td>{{.Name}}</td><td class="num">{{.Count}}</td><td class="num">{{printf "%.2f" .P50}}</td><td class="num">{{printf "%.2f" .P95}}</td><td class="num">{{printf "%.2f" .P99}}</td><td class="num">{{printf "%.2f" .Max}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no phase histograms yet</p>{{end}}

<h2>Early cutoff</h2>
<div class="cards">
<div class="card"><b>{{.Inval.Hits}}</b>benign header edits kept the setup</div>
<div class="card"><b>{{.Inval.Wrappers}}</b>wrapper-only recompiles</div>
<div class="card"><b>{{.Inval.DeclsDiffed}}</b>decl interfaces diffed</div>
</div>

<h2>Sessions ({{len .Sessions}})</h2>
{{if .Sessions}}<table>
<tr><th>name</th><th>subject</th><th>mode</th><th class="num">edits</th><th class="num">cycles</th><th class="num">invalidations</th><th class="num">early cutoffs</th><th>state</th></tr>
{{range .Sessions}}<tr><td>{{.Name}}</td><td>{{.Subject}}</td><td>{{.Mode}}</td><td class="num">{{.Edits}}</td><td class="num">{{.Cycles}}</td><td class="num">{{.Invalidations}}</td><td class="num">{{.EarlyCutoffHits}}</td><td>{{if .Stale}}stale{{else if .Prepared}}prepared{{else}}new{{end}}</td></tr>
{{end}}</table>{{else}}<p class="muted">no sessions</p>{{end}}

<h2>Flight recorder</h2>
{{if .HasTracer}}<p>{{.Flight.Sealed}} / {{.Flight.Cap}} lanes retained · {{.Flight.Evicted}} evicted ·
<a href="/debug/flight?last=25">last 25 as Chrome trace</a> · <a href="/trace">full trace</a> · <a href="/metrics?format=text">metrics</a></p>
{{else}}<p class="muted">tracing disabled (start yallad with tracing to enable)</p>{{end}}
</body>
</html>
`))

func (s *Server) handleDash(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashTmpl.Execute(w, s.dashData()); err != nil {
		// Template executed partially; the refresh will retry.
		return
	}
}
