// Command yallafarm runs a multi-node Header Substitution build farm:
// one shared content-addressed cache server (the L2 tier behind every
// node's build cache), N daemon nodes, and a consistent-hash router
// that shards sessions across them. A fleet-wide cold miss compiles
// exactly once — the cache protocol's lease endpoint extends the build
// cache's singleflight across processes — and farm outputs are
// byte-identical to a single-node yallad and to the one-shot CLI.
//
// It starts an in-process fleet and blocks until SIGINT/SIGTERM:
//
//	yallafarm [-nodes 3] [-workers 4] [-addr 127.0.0.1:7800]
//	          [-cache-addr 127.0.0.1:7801] [-cache-max-bytes N]
//
// Clients point at the router address exactly as they would at a single
// yallad; GET /healthz and GET /debug/dash on the router show per-node
// health, session counts, and remote-cache reachability.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/farm"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 3, "daemon nodes in the fleet")
		workers  = flag.Int("workers", 4, "worker pool size per node")
		addr     = flag.String("addr", "127.0.0.1:7800", "router (front door) listen address")
		cacheAd  = flag.String("cache-addr", "127.0.0.1:7801", "cache server listen address")
		maxBytes = flag.Int("cache-max-bytes", 0, "cache server byte cap (0 = default 256 MB)")
	)
	flag.Parse()

	f, err := farm.StartLocal(farm.LocalConfig{
		Nodes:         *nodes,
		Workers:       *workers,
		CacheMaxBytes: *maxBytes,
		RouterAddr:    *addr,
		CacheAddr:     *cacheAd,
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("router:       %s (point clients here; /debug/dash for the fleet view)\n", f.RouterURL)
	fmt.Printf("cache server: %s\n", f.CacheURL)
	for _, n := range f.Nodes {
		fmt.Printf("  %-8s %s\n", n.ID, n.URL)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("draining fleet...")
	f.Stop()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "yallafarm: "+format+"\n", args...)
	os.Exit(1)
}
