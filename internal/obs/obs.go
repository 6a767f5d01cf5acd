// Package obs is the metrics registry for the attacker's host cost:
// counters, gauges and log-bucketed histograms behind the Recorder
// interface, with the in-memory Collector and its exports as the one sink.
// It has no dependencies outside the standard library and is safe for
// concurrent use.
//
// A Recorder travels through context.Context: WithRecorder attaches one,
// Count adds to a counter on it, and hot paths fetch it once with
// RecorderFrom. When no Recorder is attached, every entry point degrades to
// a single nil-check, so instrumented hot paths cost nothing on unobserved
// runs.
//
// Only host quantities enter a Recorder: wall-clock seconds, bytes and GC
// work the attacker's process spent, and counts of what it did. Simulated
// device time and traffic stay in accel.CampaignStats, and what the attack
// learned stays in its convergence ledger, so the two clocks never meet in
// one registry. See DESIGN.md "Observability".
package obs

import "context"

// Recorder is the pluggable metrics sink. Implementations must be safe for
// concurrent use; Collector is the standard in-memory implementation and
// nil is the universal "off switch" (helpers in this package treat a
// missing recorder as a no-op).
type Recorder interface {
	// Count adds delta to the counter name{label} ("" label = unlabelled).
	Count(name, label string, delta float64)
	// Gauge sets the gauge name{label} to v.
	Gauge(name, label string, v float64)
	// Observe adds v to the histogram name{label}.
	Observe(name, label string, v float64)
}

// noop is the do-nothing Recorder, for measuring pure dispatch overhead.
type noop struct{}

func (noop) Count(string, string, float64)   {}
func (noop) Gauge(string, string, float64)   {}
func (noop) Observe(string, string, float64) {}

// Noop returns a Recorder that discards everything. Unlike a nil recorder —
// which short-circuits before any interface dispatch — Noop exercises the
// full instrumentation path, which BenchmarkRecorderOverhead uses to price
// the instrumentation itself.
func Noop() Recorder { return noop{} }

// ctxKey keys the Recorder in a context.
type ctxKey struct{}

// WithRecorder attaches a Recorder to ctx. A nil rec returns ctx unchanged,
// keeping the one-nil-check fast path.
func WithRecorder(ctx context.Context, rec Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rec)
}

// RecorderFrom returns the Recorder attached to ctx, or nil. Hot loops fetch
// it once instead of paying the context lookup per iteration.
func RecorderFrom(ctx context.Context) Recorder {
	rec, _ := ctx.Value(ctxKey{}).(Recorder)
	return rec
}

// Count adds delta to counter name{label} on the recorder in ctx, if any.
func Count(ctx context.Context, name, label string, delta float64) {
	if rec := RecorderFrom(ctx); rec != nil {
		rec.Count(name, label, delta)
	}
}
