// Command huffduffd is the live campaign daemon: it accepts attack jobs
// over HTTP, runs them on a supervised bounded worker pool against freshly
// deployed simulated victims, and exposes the operator surface of a
// long-running service — Prometheus metrics, live per-campaign progress
// with device telemetry, a flight-recorder event dump, and pprof.
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
// in-flight campaigns are not resumed. The log also keeps each finished
// campaign's flight-recorder tail, which only a daemon with -data-dir
// serves; the listing and the aggregate work either way:
//
//	curl 'localhost:9120/campaigns?model=smallcnn&state=done&limit=10'
//	curl 'localhost:9120/campaigns/aggregate?by=model'
//	curl 'localhost:9120/campaigns/1/events'
//
// Usage:
//
//	huffduffd -addr 127.0.0.1:9120 -workers 2 -data-dir /var/lib/huffduffd
//
// Submit a campaign and watch it:
//
//	curl -d '{"model":"smallcnn","trials":8,"q":8}' localhost:9120/campaigns
//	curl localhost:9120/campaigns/1
//	curl localhost:9120/metrics
//	curl localhost:9120/healthz
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
	"github.com/huffduff/huffduff/internal/prof"
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
		flightN   = flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder capacity (events)")
		eventsOut = flag.String("events-out", "", "append every telemetry event to this JSONL file")
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

	col := obs.NewCollector()
	flight := obs.NewFlightRecorder(*flightN)
	var sink *obs.JSONLSink
	if *eventsOut != "" {
		f, err := os.OpenFile(*eventsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		cli.Check(err)
		defer f.Close()
		sink = obs.NewJSONLSink(f)
	}
	rec := newRecorder(col, flight, sink)

	// A log that cannot be read back is fatal: serving on would reuse
	// stored campaign IDs.
	var hist *store.Log
	storeDir := filepath.Join(*dataDir, "store")
	if *dataDir != "" {
		var err error
		hist, err = store.Open(storeDir, store.Config{Obs: rec})
		cli.Check(err)
	}
	d, err := telemetry.NewDaemon(telemetry.DaemonConfig{
		Workers:    *workers,
		QueueDepth: *queue,
		Recorder:   rec,
		Store:      hist,
		Flight:     flight,
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
	srv := telemetry.NewServer(telemetry.ServerOptions{
		Collector: col,
		Flight:    flight,
		Campaigns: d,
		Submitter: d,
		Health:    d,
		Progress:  d,
		Runtime:   prof.NewRuntimeSampler(),
	})

	l, err := net.Listen("tcp", *addr)
	cli.Check(err)
	log.Printf("huffduffd listening on http://%s (%d workers, queue %d)", l.Addr(), *workers, *queue)
	log.Printf("endpoints: /metrics /healthz /campaigns /campaigns/aggregate /campaigns/{id}/progress[/stream] /campaigns/{id}/events /events /debug/profile /debug/pprof/")

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
	if sink != nil {
		if err := sink.Err(); err != nil {
			log.Printf("events-out: %v", err)
		}
	}
	log.Printf("huffduffd stopped")
}

// newRecorder fans every campaign's instrumentation out to the daemon's
// sinks. col backs /metrics and gets metrics only: nothing reads a span back
// from it, and it would keep every span of every campaign. Spans go to the
// flight recorder behind /events and /debug/profile, and to sink when set.
func newRecorder(col *obs.Collector, flight *obs.FlightRecorder, sink *obs.JSONLSink) obs.Recorder {
	sinks := []obs.Recorder{obs.MetricsOnly(col), flight}
	if sink != nil {
		sinks = append(sinks, sink)
	}
	return obs.Fanout(sinks...)
}
