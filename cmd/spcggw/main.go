// Command spcggw is the matrix-affinity gateway in front of a pool of spcgd
// backends (see internal/gateway and docs/SCALING.md). It routes each
// request by its matrix's key (a suite name or the canonical generator
// spec), computed locally, so no backend is asked where a matrix belongs:
//
//	spcggw -backends http://h1:8097,http://h2:8097 [-addr :8096]
//	       [-vnodes 64] [-probe-interval 1s] [-probe-timeout 2s]
//	       [-dead-after 2] [-retries 2] [-spill 1] [-retry-backoff 50ms]
//	       [-attempt-timeout 5m]
//
// Endpoints mirror the daemon's solve surface (POST /solve, GET /jobs/{id},
// POST /jobs/{id}/cancel, GET /matrices, POST /tune, GET /tune/{matrix})
// plus the gateway's own: GET /affinity/{matrix} (the key and replica walk),
// GET /backends (pool membership and ring shares), GET /metrics (spcggw_*),
// GET /healthz (503 once no backend is routable). SIGINT/SIGTERM stop the
// prober and close the listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spcg/internal/gateway"
)

func main() {
	addr := flag.String("addr", ":8096", "listen address")
	backends := flag.String("backends", "", "comma-separated spcgd base URLs (required)")
	vnodes := flag.Int("vnodes", 64, "hash-ring virtual nodes per backend")
	probeInterval := flag.Duration("probe-interval", time.Second, "health-probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	deadAfter := flag.Int("dead-after", 2, "consecutive probe failures before a backend is dead")
	retries := flag.Int("retries", 2, "failover budget: extra backends tried after transport failure or retryable 5xx")
	spill := flag.Int("spill", 1, "spill budget: replicas tried after a 429 before propagating backpressure")
	retryBackoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between failover attempts (doubles per attempt)")
	attemptTimeout := flag.Duration("attempt-timeout", 5*time.Minute, "per-backend-attempt timeout (covers a sync solve)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "spcggw: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "spcggw: -backends is required (comma-separated spcgd base URLs)")
		os.Exit(2)
	}

	gw, err := gateway.New(gateway.Config{
		Backends:       urls,
		VNodes:         *vnodes,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		DeadAfter:      *deadAfter,
		Retries:        *retries,
		SpillDepth:     *spill,
		RetryBackoff:   *retryBackoff,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		log.Fatalf("spcggw: %v", err)
	}

	// WriteTimeout covers a proxied sync solve plus the full failover walk.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *attemptTimeout*time.Duration(1+*retries+*spill) + 30*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("spcggw listening on %s (backends=%d vnodes=%d retries=%d spill=%d)",
		*addr, len(urls), *vnodes, *retries, *spill)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("spcggw: %v: shutting down...", s)
	case err := <-errCh:
		log.Fatalf("spcggw: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("spcggw: http shutdown: %v", err)
	}
	gw.Close()
	log.Printf("spcggw: bye")
}
