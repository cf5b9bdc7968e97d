// Command spcgd serves the solver stack over HTTP (see internal/service):
//
//	spcgd [-addr :8097] [-workers N] [-queue 64]
//	      [-cache-size 32] [-scale 100] [-pprof 127.0.0.1:6060]
//	      [-tune-store PATH] [-tune-entries 128]
//	      [-chaos-panic P] [-chaos-spmv P] [-chaos-seed N]
//
// Endpoints: POST /solve, GET /jobs/{id}, POST /jobs/{id}/cancel,
// GET /matrices, POST /tune, GET /tune/{matrix}, GET /metrics (Prometheus
// text; ?format=json for the structured view), GET /healthz. SIGINT/SIGTERM
// drain the queue, for up to drainTimeout, before exiting. A job without
// timeout_ms runs for at most 120 s (internal/service). -pprof serves
// net/http/pprof profiling endpoints on a separate listener (off by default;
// bind it to loopback).
//
// -tune-store persists method:"auto" tuning decisions across restarts
// (docs/TUNING.md); without it the autotuner still runs, memory-only.
//
// A solve that breaks down or stops making progress is reported to its
// client under the method it asked for (docs/RESILIENCE.md); the solver ends
// a stalled one itself, with no flag.
// The -chaos-* flags turn the daemon against itself for chaos testing —
// injected worker panics and solver soft errors. The in-process
// TestChaosHarness (internal/service) drives the same mix; CI sends the
// chaos-flagged binary a breakdown request with curl.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"spcg/internal/fault"
	"spcg/internal/service"
	"spcg/internal/tune"
)

// drainTimeout bounds the wait for queued and running jobs at shutdown.
const drainTimeout = 30 * time.Second

func main() {
	addr := flag.String("addr", ":8097", "listen address")
	workers := flag.Int("workers", 0, "solver pool size (0 = NumCPU, max 8)")
	queue := flag.Int("queue", 64, "max outstanding jobs before rejection")
	cacheSize := flag.Int("cache-size", 32, "setup-cache entries (matrix × preconditioner)")
	scale := flag.Int("scale", 100, "divide suite matrix sizes by this factor")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this address (empty = disabled)")
	tuneStore := flag.String("tune-store", "", "persist autotuning decisions to this JSON file (empty = memory-only)")
	tuneEntries := flag.Int("tune-entries", 128, "max tuning decisions retained (LRU)")
	chaosPanic := flag.Float64("chaos-panic", 0, "chaos: per-solve injected panic probability")
	chaosSpMV := flag.Float64("chaos-spmv", 0, "chaos: per-SpMV soft-error corruption probability")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos: seed for all injection streams")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "spcgd: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	cfg := service.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		CacheSize:   *cacheSize,
		Scale:       *scale,
		TuneEntries: *tuneEntries,
	}
	if *tuneStore != "" {
		// Open the store here so a corrupt or unreadable file is fatal at
		// startup instead of a silently memory-only daemon.
		st, err := tune.OpenStore(*tuneStore, *tuneEntries)
		if err != nil {
			log.Fatalf("spcgd: %v", err)
		}
		cfg.TuneStore = st
		log.Printf("spcgd: tune store %s (%d decisions)", *tuneStore, st.Len())
	}
	if *chaosPanic > 0 || *chaosSpMV > 0 {
		cfg.Chaos = &service.ChaosConfig{
			Seed:      *chaosSeed,
			PanicProb: *chaosPanic,
			Fault:     fault.Config{SpMVCorruptProb: *chaosSpMV},
		}
		log.Printf("spcgd: CHAOS MODE — panic=%.3g spmv=%.3g seed=%d",
			*chaosPanic, *chaosSpMV, *chaosSeed)
	}
	srv := service.New(cfg)
	// Slow-client protection: bound every phase of a connection's lifetime.
	// A sync solve holds its response for up to its job's deadline; the
	// service extends the write deadline of one whose timeout_ms outlives
	// WriteTimeout.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      service.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		// DefaultServeMux carries only the pprof registrations (the service
		// handler has its own mux), so this exposes nothing else. The write
		// timeout stays generous: profile captures stream for ?seconds=N.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           nil,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil {
				log.Printf("spcgd: pprof listener: %v", err)
			}
		}()
		log.Printf("spcgd: pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("spcgd listening on %s (workers=%d queue=%d)", *addr, *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("spcgd: %v: draining (up to %v)...", s, drainTimeout)
	case err := <-errCh:
		log.Fatalf("spcgd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("spcgd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("spcgd: http shutdown: %v", err)
	}
	log.Printf("spcgd: bye")
}
