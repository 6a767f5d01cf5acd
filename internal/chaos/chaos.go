// Package chaos is the fault-injection layer: it wraps a victim device and
// corrupts what the attacker observes, per a seeded, per-fault-class
// configuration. The wrapper models every noise source the hardened attack
// pipeline claims to survive:
//
//   - transient Run failures (a flaky probe rig or a busy device);
//   - Gaussian timing jitter on DRAM event cycles (measurement clock noise);
//   - dropped, duplicated, and reordered DRAM events (bus-sniffer losses);
//   - burst-truncated traces (capture buffer overruns);
//   - §9.1-style randomized-padding volume inflation, applied consistently
//     to a tensor's producing write and its consuming reads — the only
//     fault class that survives trace-consistency checks and must be
//     defeated statistically.
//
// All randomness flows from Config.Seed, so a faulty campaign is exactly
// reproducible. The wrapper never mutates the inner victim's trace.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// Victim is the device handle chaos wraps; it is structurally identical to
// the attack package's Victim interface, so accel.Machine and FaultyVictim
// both satisfy either.
type Victim interface {
	Run(img *tensor.Tensor) (*trace.Trace, error)
}

// ctxVictim is a Victim that also runs under its caller's context, as
// accel.Machine does.
type ctxVictim interface {
	RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error)
}

// Config sets per-fault-class intensities. The zero value injects nothing.
type Config struct {
	// Seed drives all injection randomness.
	Seed int64
	// TransientProb is the probability that a Run call fails outright with
	// faults.ErrTransient before touching the device.
	TransientProb float64
	// JitterStd is the standard deviation of the Gaussian perturbation
	// applied to every event timestamp, expressed as a fraction of the
	// trace's mean inter-event gap. Perturbed times are re-clamped to be
	// non-decreasing, so jitter warps intervals without reordering events.
	JitterStd float64
	// DropProb / DupProb / SwapProb are per-event probabilities of deleting
	// an event, emitting it twice, or swapping its payload (op, address,
	// size) with the next event's while keeping timestamps in place.
	DropProb, DupProb, SwapProb float64
	// TruncateProb is the per-trace probability of a capture overrun that
	// discards a uniform fraction (at most TruncateFracMax) of the tail.
	TruncateProb    float64
	TruncateFracMax float64
	// PadProb is the per-write-event probability of inflating that block by
	// 1..PadMaxBytes extra bytes. Reads of the same address are inflated
	// identically, mirroring a device that stores the tensor padded (§9.1's
	// randomized-padding defence as seen on the bus).
	PadProb     float64
	PadMaxBytes int
	// Obs, when set, receives `chaos.runs` and per-class `chaos.faults`
	// counters as faults are injected, so a campaign's metrics expose the
	// ground-truth fault load alongside the attack's retry counters.
	Obs obs.Recorder
}

// DefaultConfig enables every fault class at its default intensity: heavy
// enough that a fail-fast pipeline dies almost immediately, light enough
// that the hardened pipeline recovers the exact geometry (see the
// internal/huffduff robustness tests).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		TransientProb:   0.03,
		JitterStd:       0.5,
		DropProb:        0.0002,
		DupProb:         0.0002,
		SwapProb:        0.0002,
		TruncateProb:    0.02,
		TruncateFracMax: 0.5,
		PadProb:         0.001,
		PadMaxBytes:     48,
	}
}

// Stats counts injected faults, per class.
type Stats struct {
	Runs, Transients, Jittered, Dropped, Duplicated, Swapped, Truncated, Padded int
}

// FaultyVictim wraps a victim device with fault injection. It is safe for
// concurrent use (a single rng guarded by a mutex keeps runs reproducible
// only under sequential calls, which is how the attack drives it).
type FaultyVictim struct {
	inner Victim
	cfg   Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// Wrap builds a fault-injecting view of a victim.
func Wrap(v Victim, cfg Config) *FaultyVictim {
	return &FaultyVictim{inner: v, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats returns the injected-fault counters so far.
func (f *FaultyVictim) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// inject bumps one fault class's counter and mirrors it to the configured
// Recorder. Callers hold f.mu.
func (f *FaultyVictim) inject(counter *int, class string) {
	*counter++
	if f.cfg.Obs != nil {
		f.cfg.Obs.Count("chaos.faults", "class="+class, 1)
	}
}

// Run is RunCtx under context.Background.
func (f *FaultyVictim) Run(img *tensor.Tensor) (*trace.Trace, error) {
	return f.RunCtx(context.Background(), img)
}

// RunCtx executes one inference on the inner victim and corrupts the
// observed trace per the configured fault model. An inner victim that
// takes a context gets ctx, so the simulator's per-layer pprof labels merge
// into the caller's stage= label set instead of replacing it.
func (f *FaultyVictim) RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Runs++
	if f.cfg.Obs != nil {
		f.cfg.Obs.Count("chaos.runs", "", 1)
	}
	if f.cfg.TransientProb > 0 && f.rng.Float64() < f.cfg.TransientProb {
		f.inject(&f.stats.Transients, "transient")
		return nil, fmt.Errorf("chaos: injected device failure: %w", faults.ErrTransient)
	}
	var tr *trace.Trace
	var err error
	if cv, ok := f.inner.(ctxVictim); ok {
		tr, err = cv.RunCtx(ctx, img)
	} else {
		tr, err = f.inner.Run(img)
	}
	if err != nil {
		return nil, err
	}
	acc := append([]trace.Access(nil), tr.Accesses...)
	acc = f.pad(acc)
	acc = f.jitter(acc)
	acc = f.mangle(acc)
	acc = f.truncate(acc)
	return &trace.Trace{Accesses: acc}, nil
}

// pad inflates randomly chosen write blocks and, to stay consistent with a
// device that stores the tensor padded, every later read of the same block
// address by the same amount.
func (f *FaultyVictim) pad(acc []trace.Access) []trace.Access {
	if f.cfg.PadProb <= 0 || f.cfg.PadMaxBytes < 1 {
		return acc
	}
	extra := map[uint64]int{}
	for i := range acc {
		if acc[i].Op != trace.Write {
			continue
		}
		if f.rng.Float64() < f.cfg.PadProb {
			extra[acc[i].Addr] += 1 + f.rng.Intn(f.cfg.PadMaxBytes)
			f.inject(&f.stats.Padded, "padded")
		}
	}
	if len(extra) == 0 {
		return acc
	}
	for i := range acc {
		if e, ok := extra[acc[i].Addr]; ok {
			acc[i].Bytes += e
		}
	}
	return acc
}

// jitter perturbs each timestamp with Gaussian noise scaled to the mean
// inter-event gap, then clamps the sequence back to non-decreasing order.
func (f *FaultyVictim) jitter(acc []trace.Access) []trace.Access {
	if f.cfg.JitterStd <= 0 || len(acc) < 2 {
		return acc
	}
	gap := (acc[len(acc)-1].Time - acc[0].Time) / float64(len(acc)-1)
	if gap <= 0 {
		return acc
	}
	sigma := f.cfg.JitterStd * gap
	for i := range acc {
		acc[i].Time += f.rng.NormFloat64() * sigma
		if i > 0 && acc[i].Time < acc[i-1].Time {
			acc[i].Time = acc[i-1].Time
		}
	}
	f.inject(&f.stats.Jittered, "jittered")
	return acc
}

// mangle applies per-event drop, duplicate, and payload-swap faults.
func (f *FaultyVictim) mangle(acc []trace.Access) []trace.Access {
	if f.cfg.DropProb <= 0 && f.cfg.DupProb <= 0 && f.cfg.SwapProb <= 0 {
		return acc
	}
	out := make([]trace.Access, 0, len(acc))
	for i := 0; i < len(acc); i++ {
		if f.cfg.SwapProb > 0 && i+1 < len(acc) && f.rng.Float64() < f.cfg.SwapProb {
			// Swap payloads, keep the timeline: the sniffer attributed two
			// bus transactions to each other's slots.
			acc[i].Op, acc[i+1].Op = acc[i+1].Op, acc[i].Op
			acc[i].Addr, acc[i+1].Addr = acc[i+1].Addr, acc[i].Addr
			acc[i].Bytes, acc[i+1].Bytes = acc[i+1].Bytes, acc[i].Bytes
			f.inject(&f.stats.Swapped, "swapped")
		}
		if f.cfg.DropProb > 0 && f.rng.Float64() < f.cfg.DropProb {
			f.inject(&f.stats.Dropped, "dropped")
			continue
		}
		out = append(out, acc[i])
		if f.cfg.DupProb > 0 && f.rng.Float64() < f.cfg.DupProb {
			out = append(out, acc[i])
			f.inject(&f.stats.Duplicated, "duplicated")
		}
	}
	return out
}

// truncate models a capture-buffer overrun: the tail of the trace is lost.
func (f *FaultyVictim) truncate(acc []trace.Access) []trace.Access {
	if f.cfg.TruncateProb <= 0 || f.cfg.TruncateFracMax <= 0 {
		return acc
	}
	if f.rng.Float64() >= f.cfg.TruncateProb {
		return acc
	}
	cut := int(float64(len(acc)) * f.rng.Float64() * f.cfg.TruncateFracMax)
	if cut < 1 {
		cut = 1
	}
	if cut >= len(acc) {
		cut = len(acc) - 1
	}
	f.inject(&f.stats.Truncated, "truncated")
	return acc[:len(acc)-cut]
}
