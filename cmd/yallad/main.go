// Command yallad runs the Header Substitution daemon: a long-lived HTTP
// server holding named sessions (subject + mode + a copy-on-write file
// overlay) that serves edit, compile-cycle, and substitution requests
// incrementally over a shared build cache. Repeated iterations of the
// edit–compile–run cycle skip process startup and re-analysis — only
// work whose content hashes changed is redone.
//
// Usage:
//
//	yallad [-addr 127.0.0.1:7777] [-workers N] [-max-cached-tus N]
//	       [-node-id ID] [-remote-cache http://host:port]
//
// With -remote-cache the daemon joins a yallafarm fleet: the farm's
// shared cache server becomes the build cache's L2 tier (local cache
// stays L1) and /healthz reports the node's identity and remote-cache
// reachability.
//
// The daemon serves the JSON API documented on daemon.Handler, plus
// GET /metrics (RED metrics and pipeline counters with estimated
// p50/p95/p99), GET /trace (Chrome trace of completed requests),
// GET /debug/dash (a live HTML dashboard), and GET /debug/flight
// (the flight recorder's ring of recently sealed request lanes).
// SIGINT/SIGTERM drain gracefully: /healthz turns 503 and in-flight
// requests finish before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/farm"
	"repro/internal/obs"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7777", "listen address")
		workers = flag.Int("workers", 4, "concurrent compute requests")
		maxTUs  = flag.Int("max-cached-tus", 4096, "LRU cap on cached translation units (0 = unbounded)")
		reqTO   = flag.Duration("request-timeout", 60*time.Second, "per-request deadline")
		drainTO = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
		verbose = flag.Bool("v", false, "debug-level request logs on stderr")

		nodeID    = flag.String("node-id", "", "farm node identity reported on /healthz and the dashboard")
		remoteURL = flag.String("remote-cache", "", "farm cache server URL to attach as the build cache's L2 tier")
	)
	flag.Parse()

	log := obs.StderrLogger(*verbose).With("run", obs.NewRunID())
	cfg := daemon.Config{
		Addr:           *addr,
		Workers:        *workers,
		MaxCachedTUs:   *maxTUs,
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		NodeID:         *nodeID,
		Tracer:         obs.NewTracer(nil),
		Registry:       obs.NewRegistry(),
		Logger:         log,
	}
	if *remoteURL != "" {
		remote := farm.NewRemote(*remoteURL)
		cfg.Remote = remote
		cfg.RemoteProbe = remote.Probe
		log.Info("remote cache attached", "url", *remoteURL)
	}
	srv := daemon.New(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Info("dashboard", "url", "http://"+*addr+"/debug/dash")
	if err := srv.Run(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "yallad: "+format+"\n", args...)
	os.Exit(1)
}
