// Command owlworker is one recording agent of an Owl detection cluster:
// a thin HTTP server that accepts record-batch requests, executes them on
// the vectorized pipeline over a bounded slot pool, and streams
// gob-encoded traces back as runs complete. Coordinators (owl -workers,
// owld -cluster) dispatch work against a fleet of these.
//
// Usage:
//
//	owlworker -addr :8091 -slots 4
//
//	curl -s localhost:8091/v1/readyz
//	curl -s localhost:8091/v1/metrics/prometheus
//
// SIGINT/SIGTERM drains gracefully: /v1/readyz flips to 503 so coordinators
// stop dispatching, in-flight batches finish (bounded by -drain-timeout),
// then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"owl/internal/cluster"
	olog "owl/internal/obs/log"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "owlworker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("owlworker", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8091", "HTTP listen address (use :0 for an ephemeral port)")
		slots        = fs.Int("slots", 0, "concurrent recording slots (0 = GOMAXPROCS)")
		cacheSize    = fs.Int("cache", 64, "shared report-cache capacity (reports; <= 0 disables)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight batches")
		logFormat    = fs.String("log-format", "text", "log encoding: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	format, err := olog.ParseFormat(*logFormat)
	if err != nil {
		return err
	}

	worker, err := cluster.NewWorker(*slots, *cacheSize)
	if err != nil {
		return err
	}

	// Listen before logging so a supervisor (or the e2e test) can parse
	// the bound address even when -addr :0 picked an ephemeral port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger := olog.New(os.Stderr, format,
		slog.String("component", "owlworker"),
		slog.String("worker", ln.Addr().String()))
	worker.SetLogger(logger)
	srv := &http.Server{Handler: worker.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info(fmt.Sprintf("listening on %s (%d slots)", ln.Addr(), worker.Slots()))
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Flip readiness first so coordinators steer new batches elsewhere;
	// Shutdown then waits out the in-flight record streams.
	worker.SetDraining(true)
	logger.Info("draining", slog.Duration("budget", *drainTimeout), slog.Int64("runs_served", worker.Runs()))
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
