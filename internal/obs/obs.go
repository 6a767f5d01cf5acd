// Package obs is the attack-campaign observability layer: hierarchical
// wall-clock spans and a metrics registry (counters, gauges, log-bucketed
// histograms) behind the Recorder interface, with the in-memory Collector
// and its exports as the one sink. It has no dependencies outside the
// standard library and is safe for concurrent use.
//
// Spans travel through context.Context: obs.Start(ctx, "probe") opens a span
// parented to the one already in ctx and returns a derived context carrying
// the new span. When no Recorder is attached to the context, every entry
// point degrades to a single nil-check, so instrumented hot paths cost
// nothing on unobserved runs.
//
// Two clocks coexist in an instrumented campaign and must never be mixed:
// spans and stage metrics measure *host* wall-clock (how long the attacker's
// process spent), while the accelerator simulator reports *simulated* device
// time under `accel.`-prefixed metric names (what the victim hardware would
// have taken). See DESIGN.md "Observability".
package obs

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Recorder is the pluggable observability sink. Implementations must be safe
// for concurrent use; Collector is the standard in-memory implementation and
// nil is the universal "off switch" (helpers in this package treat a missing
// recorder as a no-op).
type Recorder interface {
	// SpanStart records the opening of span id under parent (0 = root).
	SpanStart(name string, id, parent uint64, start time.Time)
	// SpanEnd closes a previously started span.
	SpanEnd(id uint64, end time.Time)
	// Count adds delta to the counter name{label} ("" label = unlabelled).
	Count(name, label string, delta float64)
	// Gauge sets the gauge name{label} to v.
	Gauge(name, label string, v float64)
	// Observe adds v to the histogram name{label}.
	Observe(name, label string, v float64)
}

// noop is the do-nothing Recorder, for measuring pure dispatch overhead.
type noop struct{}

func (noop) SpanStart(string, uint64, uint64, time.Time) {}
func (noop) SpanEnd(uint64, time.Time)                   {}
func (noop) Count(string, string, float64)               {}
func (noop) Gauge(string, string, float64)               {}
func (noop) Observe(string, string, float64)             {}

// Noop returns a Recorder that discards everything. Unlike a nil recorder —
// which short-circuits before any interface dispatch — Noop exercises the
// full instrumentation path, which BenchmarkRecorderOverhead uses to price
// the instrumentation itself.
func Noop() Recorder { return noop{} }

// MetricsOnly returns a Recorder that passes rec's metrics through and drops
// its spans. A long-running process that serves a Collector's metrics but
// never exports its span tree wraps it in one; the Collector would
// otherwise keep every span it is sent.
func MetricsOnly(rec Recorder) Recorder { return metricsOnly{rec} }

type metricsOnly struct{ Recorder }

func (metricsOnly) SpanStart(string, uint64, uint64, time.Time) {}
func (metricsOnly) SpanEnd(uint64, time.Time)                   {}

// ctxKey keys the observability state in a context.
type ctxKey struct{}

// ctxState is what a context carries: the sink and the enclosing span.
type ctxState struct {
	rec  Recorder
	span uint64
}

// WithRecorder attaches a Recorder to ctx. A nil rec returns ctx unchanged,
// keeping the one-nil-check fast path.
func WithRecorder(ctx context.Context, rec Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &ctxState{rec: rec})
}

func stateFrom(ctx context.Context) *ctxState {
	s, _ := ctx.Value(ctxKey{}).(*ctxState)
	return s
}

// RecorderFrom returns the Recorder attached to ctx, or nil. Hot loops fetch
// it once instead of paying the context lookup per iteration.
func RecorderFrom(ctx context.Context) Recorder {
	if s := stateFrom(ctx); s != nil {
		return s.rec
	}
	return nil
}

// lastID hands out process-wide unique span IDs (0 is reserved for "root").
var lastID atomic.Uint64

// Span is one timed region of the campaign. The zero of *Span is nil, and
// nil.End() is a no-op, so call sites need no recorder checks.
type Span struct {
	rec   Recorder
	id    uint64
	ended atomic.Bool
}

// Start opens a span named name under the span already carried by ctx and
// returns a derived context carrying the new span. Without a Recorder in ctx
// it returns (ctx, nil) after a single lookup.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	s := stateFrom(ctx)
	if s == nil {
		return ctx, nil
	}
	id := lastID.Add(1)
	s.rec.SpanStart(name, id, s.span, time.Now())
	return context.WithValue(ctx, ctxKey{}, &ctxState{rec: s.rec, span: id}),
		&Span{rec: s.rec, id: id}
}

// Startf is Start with a formatted name; the formatting is skipped entirely
// when no Recorder is attached.
func Startf(ctx context.Context, format string, args ...any) (context.Context, *Span) {
	if stateFrom(ctx) == nil {
		return ctx, nil
	}
	return Start(ctx, fmt.Sprintf(format, args...))
}

// End closes the span. Safe on nil spans and idempotent.
func (sp *Span) End() {
	if sp == nil || sp.ended.Swap(true) {
		return
	}
	sp.rec.SpanEnd(sp.id, time.Now())
}

// Count adds delta to counter name{label} on the recorder in ctx, if any.
func Count(ctx context.Context, name, label string, delta float64) {
	if s := stateFrom(ctx); s != nil {
		s.rec.Count(name, label, delta)
	}
}

// Gauge sets gauge name{label} on the recorder in ctx, if any.
func Gauge(ctx context.Context, name, label string, v float64) {
	if s := stateFrom(ctx); s != nil {
		s.rec.Gauge(name, label, v)
	}
}

// Observe adds v to histogram name{label} on the recorder in ctx, if any.
func Observe(ctx context.Context, name, label string, v float64) {
	if s := stateFrom(ctx); s != nil {
		s.rec.Observe(name, label, v)
	}
}
