// Command spcggw is the matrix-affinity gateway in front of a pool of spcgd
// backends (see internal/gateway and docs/SCALING.md). It routes each
// request by its matrix's key (a suite name or the canonical generator
// spec), computed locally, so no backend is asked where a matrix belongs:
//
//	spcggw -backends http://h1:8097,http://h2:8097 [-addr :8096]
//
// The ring's size, the probe schedule, the failover and spill budgets and
// the per-attempt timeout are the gateway package's constants
// (docs/SCALING.md).
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

	gw, err := gateway.New(gateway.Config{Backends: urls})
	if err != nil {
		log.Fatalf("spcggw: %v", err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      gateway.WriteTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("spcggw listening on %s (backends=%d)", *addr, len(urls))

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
