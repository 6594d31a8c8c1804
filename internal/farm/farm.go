package farm

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/buildcache"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// LocalConfig configures an in-process fleet (the farm-team benchmark,
// the farm tests, and `yallafarm serve` all start one).
type LocalConfig struct {
	// Nodes is the daemon count; <= 0 means 3.
	Nodes int
	// Workers sizes each node's worker pool; <= 0 means 4.
	Workers int
	// CacheMaxBytes caps the shared cache server; <= 0 means the server
	// default.
	CacheMaxBytes int
	// RouterAddr/CacheAddr pin the front-door and cache-server listen
	// addresses (yallafarm serve); empty means an ephemeral loopback
	// port, which is what benchmarks and tests want.
	RouterAddr string
	CacheAddr  string
}

// nodeQueueTimeout and nodeRequestTimeout are every node's daemon
// limits. They are generous because local fleets exist to be saturated
// by benchmarks and load tests, not to shed load.
const (
	nodeQueueTimeout   = 10 * time.Minute
	nodeRequestTimeout = 10 * time.Minute
)

// Node is one running daemon of a local fleet.
type Node struct {
	ID       string
	URL      string
	Server   *daemon.Server
	Registry *obs.Registry

	cancel context.CancelFunc
	done   chan error
}

// Farm is a running in-process fleet: one cache server, N daemon
// nodes (each with the shared remote as its L2 tier), and a router
// sharding sessions across them.
type Farm struct {
	Cache     *CacheServer
	CacheURL  string
	CacheReg  *obs.Registry
	Router    *Router
	RouterURL string
	RouterReg *obs.Registry
	Nodes     []*Node

	httpSrvs []*http.Server
	cancel   context.CancelFunc
}

// serveHTTP mounts a handler on a listener (an ephemeral loopback port
// when addr is empty) and serves it until Stop.
func (f *Farm) serveHTTP(h http.Handler, addr string) (string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	f.httpSrvs = append(f.httpSrvs, srv)
	return "http://" + ln.Addr().String(), nil
}

// StartLocal starts a fleet on loopback listeners. Call Stop when done.
func StartLocal(cfg LocalConfig) (*Farm, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}

	ctx, cancel := context.WithCancel(context.Background())
	f := &Farm{cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			f.Stop()
		}
	}()

	// The shared cache server comes up first: nodes probe it at boot.
	f.CacheReg = obs.NewRegistry()
	f.Cache = NewCacheServer(CacheServerConfig{MaxBytes: cfg.CacheMaxBytes, Registry: f.CacheReg})
	url, err := f.serveHTTP(f.Cache.Handler(), cfg.CacheAddr)
	if err != nil {
		return nil, fmt.Errorf("farm: cache server: %v", err)
	}
	f.CacheURL = url

	f.RouterReg = obs.NewRegistry()
	f.Router = NewRouter(RouterConfig{
		Registry: f.RouterReg,
		// A forwarded request may queue for the node's full queue budget
		// and then run for its full request budget; the router must not
		// hang up first.
		ForwardTimeout: nodeQueueTimeout + nodeRequestTimeout + 30*time.Second,
	})

	for i := 0; i < cfg.Nodes; i++ {
		id := fmt.Sprintf("node-%d", i)
		remote := NewRemote(f.CacheURL)
		reg := obs.NewRegistry()
		srv := daemon.New(daemon.Config{
			Workers:        cfg.Workers,
			QueueTimeout:   nodeQueueTimeout,
			RequestTimeout: nodeRequestTimeout,
			Cache:          buildcache.New(),
			Remote:         remote,
			NodeID:         id,
			RemoteProbe:    remote.Probe,
			Registry:       reg,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("farm: %s: %v", id, err)
		}
		nctx, ncancel := context.WithCancel(ctx)
		n := &Node{
			ID:       id,
			URL:      "http://" + ln.Addr().String(),
			Server:   srv,
			Registry: reg,
			cancel:   ncancel,
			done:     make(chan error, 1),
		}
		go func() { n.done <- srv.Serve(nctx, ln) }()
		f.Nodes = append(f.Nodes, n)
		f.Router.AddNode(id, n.URL)
	}

	url, err = f.serveHTTP(f.Router.Handler(), cfg.RouterAddr)
	if err != nil {
		return nil, fmt.Errorf("farm: router: %v", err)
	}
	f.RouterURL = url
	f.Router.PollHealth()
	go f.Router.RunHealthLoop(ctx, 5*time.Second)
	ok = true
	return f, nil
}

// Node returns the node owning a session name (the router's ring
// decides), or nil on an empty fleet.
func (f *Farm) Node(session string) *Node {
	id := f.Router.Owner(session)
	for _, n := range f.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Stop shuts the fleet down: nodes drain gracefully, then the router
// and cache server close.
func (f *Farm) Stop() {
	for _, n := range f.Nodes {
		n.cancel()
	}
	for _, n := range f.Nodes {
		<-n.done
	}
	f.cancel()
	for _, srv := range f.httpSrvs {
		srv.Close()
	}
}
