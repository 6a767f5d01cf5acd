// Command huffduffd is the live campaign daemon: it accepts attack jobs
// over HTTP, runs them on a supervised bounded worker pool against freshly
// deployed simulated victims, and exposes the operator surface of a
// long-running service, serving each fact once: host cost on /metrics (the
// attacks' stage costs and victim-query counters beside the daemon's and
// store's own series) and, sliced by stage= and layer= pprof labels, on
// /debug/pprof; what each attack has learned on its campaign's convergence
// ledger (/campaigns/{id}/progress[/stream]); its device telemetry on
// /campaigns/{id}. /metrics carries no device quantity and no campaign's
// knowledge: a gauge shared by concurrent campaigns would hold whichever
// wrote last.
//
// With -data-dir the daemon is crash-safe: every submission and state
// transition is written, fsync'd, to an embedded segment log under
// <data-dir>/store before the daemon acts on it, and a restart on the same
// directory rebuilds the campaign table from one replay of the log,
// preserves campaign IDs and terminal results, and requeues whatever was
// queued, running, or waiting on a retry when the process died. A log that
// cannot be read back at start — a corrupt frame in a sealed segment, say —
// is fatal, since serving without it would reuse stored campaign IDs. A
// <data-dir>/journal directory left by an older build is ignored, so its
// in-flight campaigns are not resumed. The listing and the aggregate are
// folds of the campaign table, so they work with or without -data-dir:
//
//	curl 'localhost:9120/campaigns?model=smallcnn&state=done&limit=10'
//	curl 'localhost:9120/campaigns/aggregate?by=model'
//
// Usage:
//
//	huffduffd -addr 127.0.0.1:9120 -workers 2 -data-dir /var/lib/huffduffd
//
// Submit a campaign and watch it:
//
//	curl -d '{"model":"smallcnn","trials":8,"q":8}' localhost:9120/campaigns
//	curl localhost:9120/campaigns/1
//	curl localhost:9120/campaigns/1/progress
//	curl localhost:9120/metrics
//	curl localhost:9120/healthz
//
// Profile a running campaign, by pipeline stage:
//
//	go tool pprof -tagfocus stage=probe 'http://localhost:9120/debug/pprof/profile?seconds=10'
//
// SIGINT/SIGTERM drain the worker pool before exit; during the drain
// /healthz reports "draining" with 503 and new submissions are refused.
// Anything not finished by -drain stays requeueable in the log.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"github.com/huffduff/huffduff/cmd/internal/cli"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
	"github.com/huffduff/huffduff/internal/telemetry"
)

func main() {
	cli.Setup()
	var (
		addr      = flag.String("addr", "127.0.0.1:9120", "listen address")
		workers   = flag.Int("workers", 2, "concurrent campaign workers")
		queue     = flag.Int("queue", 16, "max queued (unstarted) campaigns; beyond it submissions get 429 + Retry-After")
		dataDir   = flag.String("data-dir", "", "durable state directory; empty runs ephemeral (no crash resume)")
		drain     = flag.Duration("drain", 10*time.Minute, "max time to wait for running campaigns on shutdown")
		jobTO     = flag.Duration("job-timeout", 0, "default per-campaign deadline (0 = none; jobs may override via timeout_seconds)")
		retryMax  = flag.Int("retry-attempts", 3, "max run attempts per campaign (panics, deadlines, and transient faults are retried)")
		retryBase = flag.Duration("retry-base", time.Second, "backoff before the second attempt; doubles per attempt")
	)
	flag.Parse()

	// Every campaign's attack allocates tens of MB of short-lived
	// activations and symbolic grids, while the daemon's live heap —
	// finished campaigns are plain snapshots — stays a few MB. At the
	// default GOGC=100 the collector then runs about a dozen times per
	// campaign (2,170 cycles over 160 daemon_mix-shaped SmallCNN campaigns,
	// 15-20% of campaign throughput on two cores); 400 cuts that to about
	// three (450 cycles) for a heap goal still near 100 MB. A GOGC set in
	// the environment wins.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	// col backs /metrics: every campaign's host cost and the daemon's and
	// store's own series.
	col := obs.NewCollector()

	// A log that cannot be read back is fatal: serving on would reuse
	// stored campaign IDs.
	var hist *store.Log
	storeDir := filepath.Join(*dataDir, "store")
	if *dataDir != "" {
		var err error
		hist, err = store.Open(storeDir, store.Config{Obs: col})
		cli.Check(err)
	}
	d, err := telemetry.NewDaemon(telemetry.DaemonConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		Recorder:   col,
		Store:      hist,
		JobTimeout: *jobTO,
		Retry:      telemetry.RetryPolicy{MaxAttempts: *retryMax, BaseDelay: *retryBase},
	})
	cli.Check(err)
	if hist != nil {
		restored := len(d.Campaigns())
		requeued := int(col.CounterValue("daemon.requeues", ""))
		st := hist.Stats()
		log.Printf("store %s: %d finished campaign(s), requeued %d interrupted; %d segment(s), %d torn record(s) skipped",
			storeDir, restored-requeued, requeued, st.Segments, st.TornRecords)
	}
	srv := telemetry.NewServer(d, col)

	l, err := net.Listen("tcp", *addr)
	cli.Check(err)
	log.Printf("huffduffd listening on http://%s (%d workers, queue %d)", l.Addr(), *workers, *queue)
	log.Printf("endpoints: /metrics /healthz /campaigns /campaigns/aggregate /campaigns/{id}/progress[/stream] /debug/pprof/")

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%s: draining campaigns (up to %s)...", s, *drain)
	case err := <-serveErr:
		log.Fatalf("serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (unfinished campaigns stay requeueable in the log)", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if hist != nil {
		if err := hist.Close(); err != nil {
			log.Printf("store: %v", err)
		}
	}
	log.Printf("huffduffd stopped")
}
