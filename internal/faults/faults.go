// Package faults defines the error taxonomy shared by the victim simulator,
// the trace analyzer, and the attack pipeline. Every failure an attack can
// hit falls into one of a few classes with very different handling:
//
//   - transient device failures are retried with bounded backoff;
//   - corrupt traces (dropped, duplicated, reordered, or truncated DRAM
//     events) are discarded and the inference is re-run;
//   - an unusable timing channel degrades the attack to the sparse-bound-only
//     solution space instead of failing it;
//   - configuration errors are permanent and surface immediately.
//
// Callers classify with errors.Is against the sentinels below and locate the
// failing pipeline stage with StageOf.
package faults

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel error classes. Wrap with fmt.Errorf("...: %w", ...) so errors.Is
// classification survives arbitrary nesting.
var (
	// ErrTransient marks a temporary victim-device failure; the operation
	// may succeed if retried.
	ErrTransient = errors.New("transient device failure")
	// ErrTraceCorrupt marks a DRAM trace that violates structural
	// invariants (byte accounting, ordering, segmentation); the trace is
	// unusable but a fresh inference may produce a clean one.
	ErrTraceCorrupt = errors.New("trace corrupt")
	// ErrTimingUnusable marks encoding-interval measurements too
	// inconsistent to pin channel ratios; the attack can still degrade to
	// the sparse-bound-only solution space.
	ErrTimingUnusable = errors.New("timing channel unusable")
	// ErrBadConfig marks an invalid configuration; retrying cannot help.
	ErrBadConfig = errors.New("invalid configuration")
	// ErrWorkerPanic marks a campaign worker that panicked mid-attack and
	// was recovered by the daemon's supervisor; the campaign is retryable
	// under the daemon's per-campaign retry policy.
	ErrWorkerPanic = errors.New("worker panic")
	// ErrDeadline marks a campaign that exceeded its per-job deadline (a
	// stalled device run or a pathologically slow solve); a retry gets a
	// fresh deadline.
	ErrDeadline = errors.New("job deadline exceeded")
)

// Fault classes as short metric-label-safe strings, returned by Class.
const (
	ClassTransient = "transient"
	ClassTrace     = "trace"
	ClassTiming    = "timing"
	ClassConfig    = "config"
	ClassPanic     = "panic"
	ClassDeadline  = "deadline"
	ClassCanceled  = "canceled"
	ClassUnknown   = "unknown"
)

// Class maps an error to its fault class, for metric labels, stored
// campaign records, and daemon retry decisions. Context deadline/cancel errors
// classify the same as the explicit sentinels, so a deadline that surfaced
// straight from context.Context still reads as ClassDeadline.
func Class(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrWorkerPanic):
		return ClassPanic
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return ClassDeadline
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	case errors.Is(err, ErrBadConfig):
		return ClassConfig
	case errors.Is(err, ErrTransient):
		return ClassTransient
	case errors.Is(err, ErrTraceCorrupt):
		return ClassTrace
	case errors.Is(err, ErrTimingUnusable):
		return ClassTiming
	default:
		return ClassUnknown
	}
}

// Retryable reports whether err is worth retrying: a transient device
// failure or a corrupt trace that a fresh inference may replace.
func Retryable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrTraceCorrupt)
}

// StageError attributes an error to a named attack-pipeline stage.
type StageError struct {
	// Stage names the pipeline stage that failed (e.g. "calibration").
	Stage string
	Err   error
}

// Error implements the error interface.
func (e *StageError) Error() string {
	return fmt.Sprintf("huffduff: stage %s: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Stage wraps err with the pipeline stage it occurred in; a nil err stays
// nil. Re-wrapping keeps the innermost stage (closest to the failure).
func Stage(stage string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// StageOf returns the pipeline stage an error was attributed to, if any.
func StageOf(err error) (string, bool) {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage, true
	}
	return "", false
}
