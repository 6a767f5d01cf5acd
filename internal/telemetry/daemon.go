// Package telemetry turns the post-hoc observability of internal/obs into a
// live service: a campaign daemon that runs attack jobs on a supervised,
// bounded worker pool — with the campaign store as its write-ahead log,
// crash-resume, per-campaign retries, and real backpressure — and an HTTP
// server exposing Prometheus metrics, live campaign progress (each
// campaign's convergence ledger and per-layer accelerator telemetry), and
// pprof — what an operator watches while campaigns run, instead of what a
// post-mortem reads after they end.
package telemetry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/faults"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/store"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// JobSpec is one campaign job as submitted over HTTP POST. Zero fields take
// the defaults below, so `{"model": "smallcnn"}` is a complete job.
type JobSpec struct {
	// Model is a registered model name (models.Names()).
	Model string `json:"model"`
	// Scale is the channel-width divisor (default 16).
	Scale int `json:"scale,omitempty"`
	// Keep is the fraction of weights kept after pruning (default 0.5).
	Keep float64 `json:"keep,omitempty"`
	// Trials and Q shape the probing campaign (defaults 16 and 16).
	Trials int `json:"trials,omitempty"`
	Q      int `json:"q,omitempty"`
	// Seed drives victim construction and probing (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Robust selects the fault-hardened pipeline configuration.
	Robust bool `json:"robust,omitempty"`
	// Chaos wraps the victim in the fault-injection layer with ChaosSeed.
	Chaos     bool  `json:"chaos,omitempty"`
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// TimeoutSeconds is the per-job deadline, propagated to the attack via
	// context; 0 uses the daemon's default (DaemonConfig.JobTimeout).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// withDefaults fills zero fields with the daemon defaults.
func (s JobSpec) withDefaults() JobSpec {
	if s.Scale == 0 {
		s.Scale = 16
	}
	if s.Keep == 0 {
		s.Keep = 0.5
	}
	if s.Trials == 0 {
		s.Trials = 16
	}
	if s.Q == 0 {
		s.Q = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.ChaosSeed == 0 {
		s.ChaosSeed = 1
	}
	return s
}

// Validate rejects specs the daemon could not run.
func (s JobSpec) Validate() error {
	if _, err := models.ByName(s.Model, s.Scale); err != nil {
		return fmt.Errorf("telemetry: spec: %w", err)
	}
	if s.Keep < 0 || s.Keep > 1 {
		return fmt.Errorf("telemetry: keep = %g, want (0, 1]", s.Keep)
	}
	if s.Trials < 1 || s.Q < 2 {
		return fmt.Errorf("telemetry: trials = %d, q = %d, want trials >= 1 and q >= 2", s.Trials, s.Q)
	}
	if s.TimeoutSeconds < 0 {
		return fmt.Errorf("telemetry: timeout_seconds = %g is negative", s.TimeoutSeconds)
	}
	return nil
}

// Campaign states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateRetrying = "retrying"
	StateDone     = "done"
	StateFailed   = "failed"
)

// CampaignSnapshot is the JSON view of one campaign that /campaigns serves:
// its spec, lifecycle timestamps, outcome, and — live while running, final
// once finished — the per-layer device telemetry the victim accelerator
// accumulated. Pipeline progress is the campaign's convergence ledger,
// served at /campaigns/{id}/progress.
type CampaignSnapshot struct {
	ID        int        `json:"id"`
	Spec      JobSpec    `json:"spec"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Attempts counts run attempts so far (1 on the first run); Resumed
	// marks a campaign restored from the store after a restart.
	Attempts int    `json:"attempts,omitempty"`
	Resumed  bool   `json:"resumed,omitempty"`
	Error    string `json:"error,omitempty"`
	// ErrorClass is the faults classification of Error (transient, panic,
	// deadline, config, ...), for failed and retrying campaigns.
	ErrorClass string `json:"error_class,omitempty"`
	// Outcome of a finished campaign.
	VictimQueries int  `json:"victim_queries,omitempty"`
	VictimRetries int  `json:"victim_retries,omitempty"`
	SolutionCount int  `json:"solution_count,omitempty"`
	Degraded      bool `json:"degraded,omitempty"`
	// Device is the victim-side telemetry (simulated device time, per-layer
	// DRAM/MAC/encode breakdown), snapshotted live from the machine and
	// frozen when the campaign finishes. It dies with the process unless a
	// campaign log persists the terminal snapshot, in which case a restart
	// restores it from there.
	Device *accel.CampaignStats `json:"device,omitempty"`
	// Converge is the convergence-ledger summary, attached when the campaign
	// reaches a terminal state (the §8.2 collapse endpoints and
	// queries-to-90% numbers, condensed for the stored history).
	Converge *converge.Summary `json:"converge,omitempty"`
}

// campaign is the daemon-internal mutable record behind a snapshot.
type campaign struct {
	mu sync.Mutex
	// snap is guarded by mu.
	snap CampaignSnapshot
	// machine is guarded by mu; set while running and dropped at the
	// terminal state (see settle). Its own stats are internally
	// lock-protected (accel.statsMu).
	machine *accel.Machine
	// ledger is the campaign's convergence ledger, created at submission
	// (or when restore requeues it) and closed when the campaign reaches a
	// terminal state — it stays open across retries, so a retried
	// campaign's stream shows the full history. Nil for a campaign restored
	// as terminal: its history died with the process that ran it. The
	// Ledger type is internally synchronized; the pointer itself is written
	// once before the campaign is published.
	ledger *converge.Ledger
	// queuedSlot marks a campaign occupying an externally-submitted queue
	// slot (backpressure accounting); requeues and retries do not count
	// against QueueDepth. Guarded by Daemon.mu.
	queuedSlot bool
}

// update mutates the record under its lock.
func (c *campaign) update(f func(*CampaignSnapshot)) {
	c.mu.Lock()
	f(&c.snap)
	c.mu.Unlock()
}

// settle applies a terminal transition under the record's lock, first
// copying the final device telemetry into the snapshot and dropping the
// victim machine: a finished campaign is a plain value, holding no victim
// network and copying no live stats on every snapshot.
func (c *campaign) settle(f func(*CampaignSnapshot)) {
	c.mu.Lock()
	if c.machine != nil {
		dev := c.machine.Campaign()
		c.snap.Device = &dev
		c.snap.VictimQueries = dev.Runs
		c.machine = nil
	}
	f(&c.snap)
	c.mu.Unlock()
}

// snapshot returns a consistent copy, with live device telemetry attached.
func (c *campaign) snapshot() CampaignSnapshot {
	c.mu.Lock()
	out := c.snap
	m := c.machine
	c.mu.Unlock()
	if m != nil {
		dev := m.Campaign() // concurrency-safe snapshot (accel.statsMu)
		out.Device = &dev
		out.VictimQueries = dev.Runs
	}
	return out
}

// RetryPolicy is the daemon's per-campaign retry policy: exponential
// backoff with jitter, capped attempts. Config errors and daemon-initiated
// cancellations are never retried.
type RetryPolicy struct {
	// MaxAttempts caps total run attempts per campaign, including the
	// first (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before attempt 2 (default 1s); it doubles
	// per attempt up to retryMaxDelay.
	BaseDelay time.Duration
}

const (
	// retryMaxDelay caps the backoff between attempts.
	retryMaxDelay = 30 * time.Second
	// retryJitter spreads each delay uniformly in ±retryJitter fraction,
	// so a burst of same-class failures does not retry in lockstep.
	retryJitter = 0.2
	// retrySeed drives the jitter randomness, keeping retry schedules
	// reproducible.
	retrySeed = 1
	// retryAfterSeconds is the backoff hint returned with queue-full and
	// draining rejections.
	retryAfterSeconds = 5
)

// withDefaults fills zero fields with the default policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Second
	}
	return p
}

// DaemonConfig sizes the campaign daemon.
type DaemonConfig struct {
	// Workers is the worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the submitted-but-unstarted backlog (default 16);
	// submissions beyond it are rejected (HTTP 429 with Retry-After)
	// rather than buffered without bound. Restart requeues and retries are
	// internal and exempt.
	QueueDepth int
	// Recorder receives every campaign's host-cost metrics and the
	// daemon's own counters — in huffduffd, the Collector behind /metrics.
	// Nil runs campaigns uninstrumented.
	Recorder obs.Recorder
	// Store is the daemon's durable log: every submission and state
	// transition is written to it as the campaign's latest record, and
	// NewDaemon rebuilds the campaign table from it. Nil runs the daemon
	// ephemeral: no durable writes. The daemon does not close the log —
	// the owner that opened it does.
	Store *store.Log
	// Retry is the per-campaign retry policy.
	Retry RetryPolicy
	// JobTimeout is the default per-job deadline propagated to the attack
	// via context; 0 means no deadline. JobSpec.TimeoutSeconds overrides
	// it per job.
	JobTimeout time.Duration
	// Faults, when set, injects daemon-level failures (worker panics,
	// stalled runs, store write errors) for chaos testing.
	Faults *chaos.DaemonFaults
}

// Daemon runs campaign jobs on a supervised bounded worker pool and retains
// every campaign record for /campaigns; a Server serves it over HTTP.
type Daemon struct {
	cfg    DaemonConfig
	jobs   chan *campaign
	wg     sync.WaitGroup
	ctx    context.Context // canceled by Kill and by Shutdown deadline expiry
	cancel context.CancelFunc

	mu sync.Mutex
	// closed is guarded by mu; draining: no new submissions.
	closed bool
	// queued is guarded by mu; externally-submitted jobs awaiting a worker.
	queued int
	// nextID is guarded by mu.
	nextID int
	// byID is guarded by mu.
	byID map[int]*campaign
	// campaigns is guarded by mu; ascending ID.
	campaigns []*campaign
	// retryRng is guarded by mu.
	retryRng *rand.Rand

	// wmu serializes durable writes with each other and with Kill. Lock
	// order: mu, then wmu.
	wmu sync.Mutex
	// killed is crash simulation: no state updates, no durable writes. Kill
	// sets it holding wmu, so no write is in progress once it is set.
	killed atomic.Bool
	// writeFailing is set while the most recent durable write failed.
	writeFailing atomic.Bool
	// writeErrors counts failed durable writes.
	writeErrors atomic.Uint64
}

// ErrQueueFull rejects submissions beyond the configured backlog.
var ErrQueueFull = errors.New("telemetry: job queue full")

// ErrShuttingDown rejects submissions after Shutdown began.
var ErrShuttingDown = errors.New("telemetry: daemon shutting down")

// NewDaemon starts the worker pool and returns the running daemon. The
// campaign table is first rebuilt from the store: terminal campaigns keep
// their IDs and results, and the rest are requeued ahead of any new
// submission. A store that cannot be read back is an error: the daemon
// never starts writing over a history it could not restore.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	cfg.Retry = cfg.Retry.withDefaults()
	d := &Daemon{
		cfg:      cfg,
		nextID:   1,
		byID:     map[int]*campaign{},
		retryRng: rand.New(rand.NewSource(retrySeed)),
	}
	requeue, err := d.restore()
	if err != nil {
		return nil, err
	}
	// The daemon owns the process-lifetime root context; Kill/Shutdown cancel it.
	d.ctx, d.cancel = context.WithCancel(context.Background())
	// Extra capacity beyond QueueDepth absorbs restart requeues and retry
	// re-enqueues, which bypass submission backpressure; retries that
	// still find the channel full simply reschedule their timer.
	d.jobs = make(chan *campaign, cfg.QueueDepth+len(requeue)+cfg.Workers+16)
	for _, c := range requeue {
		d.jobs <- c
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for c := range d.jobs {
				d.dequeued(c)
				d.run(c)
			}
		}()
	}
	return d, nil
}

// Submit validates, persists, and enqueues a job, returning its queued
// snapshot. The job runs as soon as a worker frees up. Beyond QueueDepth
// unstarted jobs, Submit rejects with ErrQueueFull — the backpressure the
// HTTP layer translates to 429 + Retry-After.
func (d *Daemon) Submit(spec JobSpec) (CampaignSnapshot, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return CampaignSnapshot{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return CampaignSnapshot{}, ErrShuttingDown
	}
	if d.queued >= d.cfg.QueueDepth {
		d.count("daemon.queue_rejections", "", 1)
		return CampaignSnapshot{}, ErrQueueFull
	}
	now := time.Now()
	c := &campaign{
		snap: CampaignSnapshot{
			ID:        d.nextID,
			Spec:      spec,
			State:     StateQueued,
			Submitted: now,
		},
		ledger:     converge.NewLedger(),
		queuedSlot: true,
	}
	select {
	case d.jobs <- c:
	default:
		// The channel has slack beyond QueueDepth, so this is unreachable
		// in practice; guard anyway rather than block under d.mu.
		d.count("daemon.queue_rejections", "", 1)
		return CampaignSnapshot{}, ErrQueueFull
	}
	// Persist before acknowledging: once the caller sees 202 the job
	// survives a crash. A failing store degrades durability, not
	// availability — the write error is counted and /healthz reports
	// degraded, but the job still runs. Holding d.mu keeps the worker's
	// running record behind this one.
	snap := c.snapshot()
	d.persist(snap)
	d.nextID++
	d.queued++
	d.byID[c.snap.ID] = c
	d.campaigns = append(d.campaigns, c)
	d.count("daemon.jobs_submitted", "", 1)
	d.gauge("daemon.queue_depth", float64(d.queued))
	return snap, nil
}

// dequeued releases c's backpressure slot as a worker picks it up.
func (d *Daemon) dequeued(c *campaign) {
	d.mu.Lock()
	if c.queuedSlot {
		c.queuedSlot = false
		d.queued--
		d.gauge("daemon.queue_depth", float64(d.queued))
	}
	d.mu.Unlock()
}

// Campaigns returns a snapshot of every campaign in ascending ID order:
// restore adds stored campaigns in the log's ascending-ID replay order, and
// Submit appends each new ID above them.
func (d *Daemon) Campaigns() []CampaignSnapshot {
	d.mu.Lock()
	list := append([]*campaign(nil), d.campaigns...)
	d.mu.Unlock()
	out := make([]CampaignSnapshot, len(list))
	for i, c := range list {
		out[i] = c.snapshot()
	}
	return out
}

// CampaignByID returns one campaign's snapshot.
func (d *Daemon) CampaignByID(id int) (CampaignSnapshot, bool) {
	d.mu.Lock()
	c, ok := d.byID[id]
	d.mu.Unlock()
	if !ok {
		return CampaignSnapshot{}, false
	}
	return c.snapshot(), true
}

// ProgressLedger returns a campaign's convergence ledger for the progress
// endpoints; ok is false for an unknown campaign. The ledger exists from
// submission (empty until the attack's first snapshot) and is closed —
// ending any streams — when the campaign reaches a terminal state. A
// campaign restored as terminal has none (nil, true).
func (d *Daemon) ProgressLedger(id int) (led *converge.Ledger, ok bool) {
	d.mu.Lock()
	c, ok := d.byID[id]
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return c.ledger, true
}

// Health is the liveness/readiness view /healthz serves.
type Health struct {
	// Status is "ok", "degraded" (the most recent durable write failed —
	// still serving, with durability at risk until a write succeeds), or
	// "draining" (Shutdown has begun; served with 503 so load-balancers
	// stop routing here).
	Status string `json:"status"`
	// Queued is the unstarted external backlog against QueueDepth.
	Queued     int `json:"queued"`
	QueueDepth int `json:"queue_depth"`
	Workers    int `json:"workers"`
	Campaigns  int `json:"campaigns"`
	// WriteErrors counts failed durable writes since start.
	WriteErrors uint64 `json:"write_errors,omitempty"`
}

// Health reports the daemon's current health classification.
func (d *Daemon) Health() Health {
	d.mu.Lock()
	h := Health{
		Status:     "ok",
		Queued:     d.queued,
		QueueDepth: d.cfg.QueueDepth,
		Workers:    d.cfg.Workers,
		Campaigns:  len(d.campaigns),
	}
	closed := d.closed
	d.mu.Unlock()
	h.WriteErrors = d.writeErrors.Load()
	if d.writeFailing.Load() {
		h.Status = "degraded"
	}
	if closed {
		h.Status = "draining"
	}
	return h
}

// Shutdown stops accepting jobs and lets the workers drain the queue and
// finish running campaigns — in-flight work is persisted at every
// transition, so anything still unfinished when ctx expires is requeueable
// on the next start rather than lost. On ctx expiry the per-job contexts
// are canceled so workers abandon their campaigns promptly (the campaigns
// stay non-terminal in the store), and Shutdown returns ctx's error.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.jobs)
	}
	d.mu.Unlock()
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline expired: abort running campaigns. Their run() sees a
	// canceled context during drain and parks them back to queued without
	// a terminal store record, so a restart resumes them.
	d.cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		// A worker stuck in non-preemptible compute is abandoned to the
		// process exit, exactly as before.
	}
	return fmt.Errorf("telemetry: shutdown: %w", ctx.Err())
}

// Kill simulates a crash, for restart testing: durable writes stop
// immediately (as if the process died mid-write), worker contexts are
// canceled, and workers are torn down without persisting any further
// transitions. Once Kill returns, nothing more reaches the store. The
// daemon is unusable afterwards; start a new one on the same store to
// resume.
func (d *Daemon) Kill() {
	d.mu.Lock()
	d.wmu.Lock()
	d.killed.Store(true)
	d.wmu.Unlock()
	if !d.closed {
		d.closed = true
		close(d.jobs)
	}
	d.mu.Unlock()
	d.cancel()
	d.wg.Wait()
}

// isDraining reports whether Shutdown has begun.
func (d *Daemon) isDraining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// count publishes a daemon-level counter when a recorder is configured.
func (d *Daemon) count(name, label string, v float64) {
	if d.cfg.Recorder != nil {
		d.cfg.Recorder.Count(name, label, v)
	}
}

// gauge publishes a daemon-level gauge when a recorder is configured.
func (d *Daemon) gauge(name string, v float64) {
	if d.cfg.Recorder != nil {
		d.cfg.Recorder.Gauge(name, "", v)
	}
}

// run executes one attempt of a campaign end to end, publishing progress
// into the campaign's ledger, transitions into the store, and host-cost
// metrics into the shared recorder; on a retryable failure it
// schedules the next attempt with exponential backoff.
func (d *Daemon) run(c *campaign) {
	if d.killed.Load() {
		return
	}
	started := time.Now()
	var attempt int
	c.update(func(s *CampaignSnapshot) {
		s.Attempts++
		attempt = s.Attempts
		s.State = StateRunning
		s.Started = &started
		s.Error, s.ErrorClass = "", ""
	})
	snap := c.snapshot()
	d.persist(snap)
	spec := snap.Spec
	d.count("daemon.jobs_started", "model="+spec.Model, 1)

	res, err := d.execute(c, spec)
	if d.killed.Load() {
		// Crash simulation: the process is "dead"; nothing more happened.
		return
	}
	if err != nil && d.isDraining() && errors.Is(err, context.Canceled) {
		// Aborted by the shutdown drain deadline, not failed: park the
		// campaign back to queued. The store's last record for it is
		// non-terminal, so the next start requeues it.
		c.update(func(s *CampaignSnapshot) { s.State = StateQueued })
		return
	}
	finished := time.Now()
	if err == nil {
		d.finishDone(c, res, started, finished, spec)
		return
	}
	class := faults.Class(err)
	if d.retryable(class) && attempt < d.cfg.Retry.MaxAttempts {
		d.scheduleRetry(c, attempt, err, class)
		return
	}
	d.finishFailed(c, err, class, started, finished, spec)
}

// retryable reports whether a failure class is worth another attempt:
// everything but configuration errors (retrying cannot help) and
// cancellations (the daemon itself initiated them).
func (d *Daemon) retryable(class string) bool {
	return class != faults.ClassConfig && class != faults.ClassCanceled
}

// finishDone records a successful campaign.
func (d *Daemon) finishDone(c *campaign, res *attack.Result, started, finished time.Time, spec JobSpec) {
	c.settle(func(s *CampaignSnapshot) {
		s.Finished = &finished
		s.State = StateDone
		s.SolutionCount = res.Space.Count()
		s.Degraded = res.Degraded
		s.VictimRetries = res.VictimRetries
	})
	c.ledger.Close()
	sum := c.ledger.Summary()
	c.update(func(s *CampaignSnapshot) { s.Converge = &sum })
	d.persist(c.snapshot())
	d.count("daemon.campaigns", "state=done", 1)
	if d.cfg.Recorder != nil {
		d.cfg.Recorder.Observe("daemon.campaign.seconds", "model="+spec.Model, finished.Sub(started).Seconds())
	}
}

// finishFailed records a permanently failed campaign.
func (d *Daemon) finishFailed(c *campaign, err error, class string, started, finished time.Time, spec JobSpec) {
	c.settle(func(s *CampaignSnapshot) {
		s.Finished = &finished
		s.State = StateFailed
		s.Error = err.Error()
		s.ErrorClass = class
	})
	c.ledger.Close()
	sum := c.ledger.Summary()
	c.update(func(s *CampaignSnapshot) { s.Converge = &sum })
	d.persist(c.snapshot())
	d.count("daemon.campaigns", "state=failed", 1)
	d.count("daemon.failures", "class="+class, 1)
	if d.cfg.Recorder != nil {
		d.cfg.Recorder.Observe("daemon.campaign.seconds", "model="+spec.Model, finished.Sub(started).Seconds())
	}
}

// scheduleRetry persists the retrying state and re-enqueues the campaign
// after an exponential-backoff delay with jitter.
func (d *Daemon) scheduleRetry(c *campaign, attempt int, err error, class string) {
	c.update(func(s *CampaignSnapshot) {
		s.State = StateRetrying
		s.Error = err.Error()
		s.ErrorClass = class
	})
	d.persist(c.snapshot())
	d.count("daemon.retries", "class="+class, 1)
	time.AfterFunc(d.backoff(attempt), func() { d.requeue(c) })
}

// backoff computes the delay before the attempt following `attempt`:
// BaseDelay doubled per completed attempt, capped at retryMaxDelay, spread
// by ±retryJitter from the daemon's seeded rng.
func (d *Daemon) backoff(attempt int) time.Duration {
	delay := d.cfg.Retry.BaseDelay
	for i := 1; i < attempt && delay < retryMaxDelay; i++ {
		delay *= 2
	}
	if delay > retryMaxDelay {
		delay = retryMaxDelay
	}
	d.mu.Lock()
	jitter := 1 + retryJitter*(2*d.retryRng.Float64()-1)
	d.mu.Unlock()
	if jitter < 0 {
		jitter = 0
	}
	return time.Duration(float64(delay) * jitter)
}

// requeue re-enqueues a retrying campaign. After shutdown began the
// campaign stays stored as retrying — requeueable on the next start. A
// full channel (transient, retries bypass backpressure accounting but not
// channel capacity) reschedules the attempt.
func (d *Daemon) requeue(c *campaign) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	select {
	case d.jobs <- c:
		d.mu.Unlock()
	default:
		d.mu.Unlock()
		time.AfterFunc(d.cfg.Retry.BaseDelay, func() { d.requeue(c) })
	}
}

// execute runs one attempt under supervision: a per-job deadline flows
// through context into every victim run, chaos daemon faults are injected
// when configured, and a panicking worker is recovered into a typed
// faults.ErrWorkerPanic instead of crashing the daemon.
func (d *Daemon) execute(c *campaign, spec JobSpec) (res *attack.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			d.count("daemon.worker_panics", "", 1)
			err = fmt.Errorf("telemetry: recovered worker panic: %v: %w", r, faults.ErrWorkerPanic)
		}
	}()
	ctx := d.ctx
	timeout := d.cfg.JobTimeout
	if spec.TimeoutSeconds > 0 {
		timeout = time.Duration(spec.TimeoutSeconds * float64(time.Second))
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return d.attack(ctx, c, spec)
}

// attack deploys the victim and runs the pipeline for one campaign attempt.
func (d *Daemon) attack(ctx context.Context, c *campaign, spec JobSpec) (*attack.Result, error) {
	arch, err := models.ByName(spec.Model, spec.Scale)
	if err != nil {
		return nil, fmt.Errorf("telemetry: campaign model: %w", err)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	bind, err := arch.Build(rng)
	if err != nil {
		return nil, fmt.Errorf("telemetry: building victim %s: %w", spec.Model, err)
	}
	if spec.Keep < 1 {
		prune.GlobalMagnitude(bind.Net.Params(), spec.Keep)
	}

	acfg := accel.DefaultConfig()
	acfg.Seed = spec.Seed
	machine := accel.NewMachine(acfg, arch, bind)
	c.mu.Lock()
	c.machine = machine
	c.mu.Unlock()

	var victim ctxVictim = machine
	if spec.Chaos {
		ccfg := chaos.DefaultConfig()
		ccfg.Seed = spec.ChaosSeed
		ccfg.Obs = d.cfg.Recorder
		victim = chaos.Wrap(machine, ccfg)
	}

	cfg := attack.DefaultConfig()
	if spec.Robust {
		cfg = attack.DefaultRobustConfig()
	}
	cfg.Probe.Trials = spec.Trials
	cfg.Probe.Q = spec.Q
	cfg.Probe.Seed = spec.Seed
	cfg.Obs = d.cfg.Recorder
	cfg.Ledger = c.ledger
	return attack.AttackContext(ctx, &supervisedVictim{inner: victim, faults: d.cfg.Faults}, cfg)
}

// ctxVictim is a victim that runs under its caller's context:
// accel.Machine and chaos.FaultyVictim.
type ctxVictim interface {
	RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error)
}

// supervisedVictim gates every victim run on the attack's context — so a
// deadline or a daemon teardown stops a campaign at the next inference —
// and injects daemon-level chaos faults (panics, stalls) when configured.
// It hands the context on to the wrapped victim, whose simulator then
// keeps the attack's stage= pprof label.
type supervisedVictim struct {
	inner  ctxVictim
	faults *chaos.DaemonFaults
}

// Run is RunCtx without a deadline. The attack calls RunCtx.
func (v *supervisedVictim) Run(img *tensor.Tensor) (*trace.Trace, error) {
	return v.RunCtx(context.Background(), img)
}

// RunCtx checks the job deadline in ctx, applies injected faults, and
// forwards to the wrapped victim.
func (v *supervisedVictim) RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, classifyCtx(err)
	}
	if v.faults != nil {
		if err := v.faults.BeforeRun(ctx); err != nil {
			return nil, fmt.Errorf("telemetry: injected daemon fault: %w", err)
		}
	}
	tr, err := v.inner.RunCtx(ctx, img)
	if err != nil {
		return nil, fmt.Errorf("telemetry: victim run: %w", err)
	}
	return tr, nil
}

// classifyCtx converts a context error into the faults taxonomy: deadline
// expiry becomes the typed ErrDeadline (retryable with a fresh deadline),
// cancellation stays context.Canceled (the daemon initiated it; never
// retried).
func classifyCtx(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("telemetry: job deadline exceeded: %w", faults.ErrDeadline)
	}
	return fmt.Errorf("telemetry: job canceled: %w", err)
}
