package prof

import (
	"context"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/obs"
)

// stageWork is a stand-in pipeline stage: a few hundred microseconds of
// deterministic arithmetic — still orders of magnitude below the attack's
// real stages, which run milliseconds to seconds. It deliberately allocates
// almost nothing, so the comparison below measures Stage's own cost (two
// runtime/metrics reads, two label swaps, one histogram insert — a few
// microseconds) rather than GC jitter.
func stageWork() float64 {
	acc := 0.0
	buf := make([]float64, 1024)
	for i := 0; i < 2000; i++ {
		for j := range buf {
			buf[j] = float64(i ^ j)
			acc += buf[j]
		}
	}
	return acc
}

// BenchmarkProfOverhead compares one instrumented stage against the same
// work under a no-op recorder. The acceptance budget is <5% overhead; run
// with -bench ProfOverhead and compare the two sub-benchmarks.
func BenchmarkProfOverhead(b *testing.B) {
	b.Run("noop", func(b *testing.B) {
		ctx := context.Background() // no recorder: Stage is one nil check
		sink := 0.0
		for i := 0; i < b.N; i++ {
			_, end := Stage(ctx, "bench")
			sink += stageWork()
			end()
		}
		_ = sink
	})
	b.Run("profiled", func(b *testing.B) {
		col := obs.NewCollector()
		ctx := obs.WithRecorder(context.Background(), col)
		sink := 0.0
		for i := 0; i < b.N; i++ {
			_, end := Stage(ctx, "bench")
			sink += stageWork()
			end()
		}
		_ = sink
	})
}

// stageAttempt times iters stages of stageWork under ctx. It is never
// inlined, so the no-op and profiled sides of TestProfOverheadBudget run the
// same machine code: two inlined copies of the loop can differ by 10-20%
// from code alignment alone.
//
//go:noinline
func stageAttempt(ctx context.Context, iters int) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		_, end := Stage(ctx, "bench")
		stageWork()
		end()
	}
	return time.Since(start)
}

// TestProfOverheadBudget enforces the <5% acceptance budget directly:
// profiled stages must cost no more than 1.05x the no-op path. Timing a
// timer is inherently noisy, so each side takes the minimum of several
// attempts (minimums converge on the true cost; means absorb scheduler
// noise) and the test skips under -short.
func TestProfOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive budget test")
	}
	const (
		iters    = 50
		attempts = 7
	)
	// Warm both paths once so first-use costs (metric map growth, code
	// paging) do not land inside a measurement, then interleave attempts so
	// frequency drift and background load hit both paths alike. Each side
	// keeps its minimum.
	noopCtx := context.Background()
	profCtx := obs.WithRecorder(context.Background(), obs.NewCollector())
	stageAttempt(noopCtx, iters)
	stageAttempt(profCtx, iters)
	measure := func() float64 {
		base, profiled := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for a := 0; a < attempts; a++ {
			if d := stageAttempt(noopCtx, iters); d < base {
				base = d
			}
			if d := stageAttempt(profCtx, iters); d < profiled {
				profiled = d
			}
		}
		ratio := float64(profiled) / float64(base)
		t.Logf("noop %v, profiled %v, ratio %.3f", base, profiled, ratio)
		return ratio
	}
	// One retry: a single background-load spike on a shared CI machine can
	// push an honest ~2% overhead over the line; a true budget violation
	// fails both rounds.
	ratio := measure()
	if ratio > 1.05 {
		ratio = measure()
	}
	if ratio > 1.05 {
		t.Errorf("profiling overhead %.1f%% exceeds the 5%% budget", 100*(ratio-1))
	}
}
