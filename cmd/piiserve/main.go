// Command piiserve runs the study as a long-running, multi-tenant HTTP
// service: submitted job specs queue behind a bounded worker pool, every
// job runs checkpointed under the crash-only runtime, and results — the
// leak dataset plus the paper's Tables 1, 2 and 4 — are byte-identical
// to the same spec run via piicrawl.
//
// Usage:
//
//	piiserve -state DIR [-addr :8344] [-slots N] [-queue-depth N]
//	         [-job-timeout D] [-retry-after D] [-pprof addr]
//
// The service is crash-only end to end. Jobs live in an append-only
// JSONL WAL under -state; kill -9 the server and restart it, and queued
// jobs re-enqueue while interrupted jobs resume from their per-job
// checkpoint to byte-identical results. Saturation is shed, not
// buffered: once the queue holds -queue-depth jobs, submissions get
// 429 with a Retry-After tracking observed job durations.
//
// Shutdown mirrors piicrawl's signal contract: the first SIGINT/SIGTERM
// drains — admission stops, running jobs checkpoint and re-queue
// durably, and the process exits 0 with everything resumable. A second
// signal (or a drain overrun) hard-exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"piileak/internal/cliflags"
	"piileak/internal/serve"
)

const prog = "piiserve"

func main() {
	addr := flag.String("addr", "localhost:8344", "HTTP listen address")
	state := flag.String("state", "", "state directory: job WAL, per-job checkpoints and results (required)")
	slots := flag.Int("slots", 2, "concurrent study slots")
	queueDepth := flag.Int("queue-depth", 16, "max queued (not yet running) jobs before submissions get 429")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job watchdog budget; over-budget jobs are cancelled and marked failed (0 disables)")
	retryAfter := flag.Duration("retry-after", 5*time.Second, "Retry-After hint before any job duration has been observed")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (diagnostics only)")
	flag.Parse()

	if *state == "" {
		fatal(fmt.Errorf("-state is required (the durable job store lives there)"))
	}
	if *slots < 1 {
		fatal(fmt.Errorf("-slots %d: need at least one study slot", *slots))
	}
	if *queueDepth < 1 {
		fatal(fmt.Errorf("-queue-depth %d: need at least one queue slot", *queueDepth))
	}
	if err := cliflags.StartPprof(prog, *pprofAddr); err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Dir:        *state,
		Slots:      *slots,
		QueueDepth: *queueDepth,
		JobTimeout: *jobTimeout,
		RetryAfter: *retryAfter,
	})
	if err != nil {
		fatal(err)
	}
	if n := srv.Store().Recovered(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: recovered %d interrupted job(s); they resume from their checkpoints\n", prog, n)
	}
	if n := srv.Store().TornRecords(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: dropped %d torn job-store record(s) from a previous crash\n", prog, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	listenOn := ln.Addr().String() // a TCP listen address, not postal PII
	fmt.Fprintf(os.Stderr, "%s: serving on http://%s (state %s, %d slots, queue %d)\n",
		prog, listenOn, *state, *slots, *queueDepth)

	// Graceful drain, mirroring piicrawl's contract: first signal stops
	// admission and checkpoints everything, second hard-exits.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	//lint:allow goroleak the drain goroutine lives until process exit by design
	go func() {
		defer close(done)
		<-sigc
		fmt.Fprintf(os.Stderr, "%s: signal: draining — admission stopped, in-flight jobs checkpointing (signal again to hard-exit)\n", prog)
		go func() {
			// The second-signal escape hatch: a wedged drain must not
			// make the server unkillable-gracefully.
			<-sigc
			fmt.Fprintf(os.Stderr, "%s: second signal: hard exit\n", prog)
			os.Exit(130)
		}()
		srv.Drain()
		srv.Wait()
		//lint:allow detrand CLI shutdown grace is wall-clock by design; nothing reproducible depends on it
		shutdownCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		httpSrv.Shutdown(shutdownCtx) //nolint:errcheck // drain already persisted everything that matters
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: close store: %v\n", prog, err)
		}
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
	fmt.Fprintf(os.Stderr, "%s: drained: job store is consistent; restart to resume queued work\n", prog)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}
