package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/huffduff/huffduff/internal/faults"
)

// DaemonFaultsConfig sets daemon-level fault intensities. Where the trace
// fault model (Config) corrupts what the attacker observes, this one breaks
// the campaign daemon itself: workers that panic mid-attack, device runs
// that stall past the job deadline, and durable writes that fail. The zero
// value injects nothing.
type DaemonFaultsConfig struct {
	// Seed drives all injection randomness.
	Seed int64
	// PanicProb is the per-victim-Run probability of panicking inside the
	// worker goroutine, exercising the daemon's supervisor (recover +
	// faults.ErrWorkerPanic + retry).
	PanicProb float64
	// StallProb is the per-victim-Run probability of blocking until the
	// job context is done — a device run that hangs past its deadline.
	StallProb float64
	// WriteErrProb is the per-write probability of failing a durable
	// write, exercising the degraded-but-running path.
	WriteErrProb float64
}

// DaemonStats counts injected daemon-level faults.
type DaemonStats struct {
	Runs, Panics, Stalls, WriteCalls, WriteErrs int
}

// DaemonFaults injects daemon-level failures per a seeded schedule. Safe
// for concurrent use.
type DaemonFaults struct {
	cfg DaemonFaultsConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats DaemonStats
}

// NewDaemonFaults builds a daemon-level fault injector.
func NewDaemonFaults(cfg DaemonFaultsConfig) *DaemonFaults {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &DaemonFaults{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the injected-fault counters so far.
func (f *DaemonFaults) Stats() DaemonStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// BeforeRun injects worker-level faults ahead of one victim inference: it
// may panic (a worker bug the daemon's supervisor must recover) or block
// until ctx is done (a stalled run that only the per-job deadline or a
// daemon shutdown unwedges), in which case it returns the wrapped context
// error. A nil return means the run may proceed.
func (f *DaemonFaults) BeforeRun(ctx context.Context) error {
	f.mu.Lock()
	f.stats.Runs++
	doPanic := f.cfg.PanicProb > 0 && f.rng.Float64() < f.cfg.PanicProb
	doStall := !doPanic && f.cfg.StallProb > 0 && f.rng.Float64() < f.cfg.StallProb
	if doPanic {
		f.stats.Panics++
	}
	if doStall {
		f.stats.Stalls++
	}
	f.mu.Unlock()
	if doPanic {
		panic("chaos: injected worker panic")
	}
	if doStall {
		<-ctx.Done()
		return fmt.Errorf("chaos: stalled run unwedged by context: %w", ctx.Err())
	}
	return nil
}

// WriteFault is consulted before every durable write the daemon makes: it
// returns an injected write error with probability WriteErrProb.
func (f *DaemonFaults) WriteFault() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.WriteCalls++
	if f.cfg.WriteErrProb > 0 && f.rng.Float64() < f.cfg.WriteErrProb {
		f.stats.WriteErrs++
		return fmt.Errorf("chaos: injected durable write failure: %w", faults.ErrTransient)
	}
	return nil
}
