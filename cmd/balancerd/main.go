// Command balancerd is the hyperbal load-balancing service daemon: it
// serves the core.Balancer epoch lifecycle over HTTP, multiplexing many
// concurrent adaptive-application sessions over a bounded worker pool
// with admission control, TTL-evicted session state, and a
// fingerprint-keyed result memo that serves repeated solves and
// coalesces concurrent ones.
//
// Usage:
//
//	balancerd [-addr :8080] [-workers N] [-queue 256] [-session-ttl 15m]
//	          [-cache 4096] [-drain-timeout 30s] [-addr-file path] [-metrics-addr ""]
//	          [-self URL -peers URL,URL,...]
//	balancerd -gateway -replicas URL,URL,... [-addr :8080]
//
// The API mux itself serves /metrics and /metrics.json; -metrics-addr
// additionally starts the internal/obs debug server (with /debug/pprof)
// on a separate address. On SIGTERM/SIGINT the daemon drains: in-flight
// and queued epochs complete, new submissions get 503, the listener
// closes, and the process exits 0.
//
// Distributed serving: start N replicas, each with -self set to its own
// reachable URL and -peers to the full replica list, then a gateway with
// -gateway -replicas pointing at the same list. Replicas hand their
// sessions to a ring successor when drained; the gateway mints each
// session id onto the least-loaded accepting replica and routes every
// session request by consistent hashing of its id.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hyperbal/internal/obs"
	"hyperbal/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts driving :0)")
		workers  = flag.Int("workers", 0, "concurrently running partitioning jobs (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 256, "queued jobs beyond the running ones before 429 backpressure")
		ttl      = flag.Duration("session-ttl", 15*time.Minute, "evict sessions idle longer than this (<0 disables)")
		cache    = flag.Int("cache", 4096, "solved results kept for reuse (<0 keeps none; concurrent identical solves still coalesce)")
		maxBody  = flag.Int64("max-body", 64<<20, "maximum request body bytes")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "bound on completing in-flight epochs at shutdown")

		metricsAddr = flag.String("metrics-addr", "", "additionally serve the obs debug server (/metrics, /debug/pprof) on this address")

		self  = flag.String("self", "", "this replica's externally reachable base URL (enables drain handoff with -peers)")
		peers = flag.String("peers", "", "comma-separated replica base URLs, including -self")

		gateway  = flag.Bool("gateway", false, "run as a routing gateway over -replicas instead of a replica")
		replicas = flag.String("replicas", "", "gateway: comma-separated replica base URLs")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "balancerd: ", log.LstdFlags|log.Lmicroseconds)

	if *gateway {
		runGateway(logger, *addr, *addrFile, *replicas, *drainT)
		return
	}

	cfg := server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		SessionTTL:   *ttl,
		CacheEntries: *cache,
		MaxBodyBytes: *maxBody,
		Logf:         logger.Printf,
	}
	srv := server.New(cfg)
	defer srv.Close()
	if peers := splitURLs(*peers); *self != "" && len(peers) > 0 {
		logger.Printf("replica set: self=%s peers=%v", *self, peers)
		srv.SetPeering(*self, peers)
	}

	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			logger.Fatalf("metrics server: %v", err)
		}
		defer shutdown()
		logger.Printf("metrics on http://%s/metrics", bound)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	logger.Printf("serving on http://%s (workers=%d queue=%d ttl=%s cache=%d)",
		bound, cfgWorkers(cfg), *queue, *ttl, *cache)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatalf("addr-file: %v", err)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v; draining", s)
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("drain: %v (shutting down anyway)", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
		os.Exit(1)
	}
	logger.Printf("exited cleanly")
}

// cfgWorkers reports the effective worker count for the startup line.
func cfgWorkers(cfg server.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// splitURLs parses a comma-separated URL list, trimming trailing slashes.
func splitURLs(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimRight(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runGateway is the -gateway mode: a routing tier over -replicas.
func runGateway(logger *log.Logger, addr, addrFile, replicas string, drainT time.Duration) {
	urls := splitURLs(replicas)
	if len(urls) == 0 {
		logger.Fatalf("-gateway requires -replicas URL,URL,...")
	}
	gw, err := server.NewGateway(server.GatewayConfig{
		Replicas: urls,
		Logf:     logger.Printf,
	})
	if err != nil {
		logger.Fatalf("gateway: %v", err)
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("listen %s: %v", addr, err)
	}
	bound := ln.Addr().String()
	logger.Printf("gateway on http://%s over %d replicas %v", bound, len(urls), urls)
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			logger.Fatalf("addr-file: %v", err)
		}
	}

	httpSrv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Printf("received %v; shutting down", s)
	case err := <-serveErr:
		logger.Fatalf("serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainT)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	logger.Printf("exited cleanly")
}
