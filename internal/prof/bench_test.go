package prof

import (
	"context"
	"slices"
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
	for i := 0; i < 1000; i++ {
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
// profiled stages must cost no more than 1.05x the no-op path. Each pair
// times one no-op stage and one profiled stage back to back, alternating
// which runs first, and the estimate is the median of the per-pair ratios.
// A preemption or a burst of co-scheduled load lands on a few pairs, which
// the median ignores, and both halves of a pair see the same machine
// state; per-side minimums taken over separate attempts drifted apart
// under load. The test skips under -short.
func TestProfOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive budget test")
	}
	const pairs = 400
	noopCtx := context.Background()
	profCtx := obs.WithRecorder(context.Background(), obs.NewCollector())
	// Warm both paths once so first-use costs (metric map growth, code
	// paging) do not land inside a measurement.
	stageAttempt(noopCtx, 1)
	stageAttempt(profCtx, 1)
	measure := func() float64 {
		ratios := make([]float64, pairs)
		for i := range ratios {
			var base, profiled time.Duration
			if i%2 == 0 {
				base = stageAttempt(noopCtx, 1)
				profiled = stageAttempt(profCtx, 1)
			} else {
				profiled = stageAttempt(profCtx, 1)
				base = stageAttempt(noopCtx, 1)
			}
			ratios[i] = float64(profiled) / float64(base)
		}
		slices.Sort(ratios)
		ratio := ratios[pairs/2]
		t.Logf("median ratio %.3f over %d pairs (quartiles %.3f, %.3f)", ratio, pairs, ratios[pairs/4], ratios[3*pairs/4])
		return ratio
	}
	// One retry: a true budget violation fails both rounds.
	ratio := measure()
	if ratio > 1.05 {
		ratio = measure()
	}
	if ratio > 1.05 {
		t.Errorf("profiling overhead %.1f%% exceeds the 5%% budget", 100*(ratio-1))
	}
}
