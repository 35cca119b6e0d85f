// Command cpgserve is a long-running HTTP scheduling server: it accepts v1
// problem documents and returns schedule tables, and executes shards of the
// Fig. 5/6 experiment sweep on behalf of a distributed coordinator, sharing
// one scheduling service (global worker budget and solved-problem memo)
// across all requests.
//
// Usage:
//
//	cpgserve [-addr :8080] [-workers N] [-cache N] [-max-body BYTES]
//	         [-limit-light N] [-limit-heavy N]
//
// The handlers live in internal/httpserver (see its package documentation
// for the endpoint list, the /metrics exposition and the admission-control
// conventions); this command only adds flags, logging and graceful shutdown.
// -workers is the number of worker tokens, one goroutine each: a schedule
// miss holds one and a sweep shard up to its workers' worth. -limit-light bounds concurrent schedule requests
// and -limit-heavy concurrent sweep shards; requests over a bound are shed
// with 429 + Retry-After (0 = budget-derived defaults, negative = unlimited).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpserver"
	"repro/internal/service"
)

func main() {
	fs := flag.NewFlagSet("cpgserve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "global worker budget shared by all requests, one goroutine per token; a schedule miss takes one (0 = all CPUs)")
	cache := fs.Int("cache", service.DefaultCacheSize, "capacity of the solved-problem memo (negative disables it)")
	maxBody := fs.Int64("max-body", 8<<20, "maximum request body size in bytes")
	limitLight := fs.Int("limit-light", 0, "max concurrent schedule requests before shedding 429 (0 = budget-derived default, negative = unlimited)")
	limitHeavy := fs.Int("limit-heavy", 0, "max concurrent sweep shards before shedding 429 (0 = budget-derived default, negative = unlimited)")
	fs.Parse(os.Args[1:])

	logger := log.New(os.Stderr, "cpgserve: ", log.LstdFlags)
	srv, err := httpserver.NewServer(httpserver.Options{
		Service:    service.Config{Workers: *workers, CacheSize: *cache},
		MaxBody:    *maxBody,
		LightLimit: *limitLight,
		HeavyLimit: *limitHeavy,
	})
	if err != nil {
		logger.Fatal(err)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Routes(logger),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Shutdown makes ListenAndServe return immediately, so main must wait
	// for the drain to finish or in-flight requests would be killed.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// Shed new work with 503 for the shutdown window: a sweep
		// coordinator retries a shed shard without evicting this backend,
		// and /healthz reports "draining".
		srv.SetDraining(true)
		logger.Print("draining: finishing in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	logger.Printf("listening on %s (workers=%d, cache=%d)", *addr, srv.Stats().Workers, *cache)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	stop()
	<-drained
	logger.Print("shut down")
}
