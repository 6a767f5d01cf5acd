package prof

import (
	"context"
	"runtime"
	"runtime/pprof"
	"testing"

	"github.com/huffduff/huffduff/internal/obs"
)

func TestStageWithoutRecorderIsNoop(t *testing.T) {
	ctx := context.Background()
	sctx, end := Stage(ctx, "probe")
	if sctx != ctx {
		t.Fatal("unobserved Stage should return the caller's context unchanged")
	}
	end() // must not panic
	if v, ok := pprof.Label(sctx, "stage"); ok {
		t.Fatalf("unobserved Stage set a pprof label: %q", v)
	}
}

func TestStageEmitsAttributedMetrics(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.WithRecorder(context.Background(), col)

	sctx, end := Stage(ctx, "solve")
	if v, ok := pprof.Label(sctx, "stage"); !ok || v != "solve" {
		t.Fatalf("stage label = %q, %v; want solve", v, ok)
	}
	// Allocate enough that the alloc counter must move even if the runtime
	// batches per-P allocation accounting.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.KeepAlive(sink)
	end()

	snap := col.Metrics()
	h, ok := snap.Histograms["stage.seconds{stage=solve}"]
	if !ok || h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("stage.seconds missing or empty: %+v (have %v)", h, keys(snap.Histograms))
	}
	if alloc := snap.Counters["prof.stage.alloc_bytes{stage=solve}"]; alloc < 64*(64<<10) {
		t.Errorf("alloc_bytes = %v, want >= %v", alloc, 64*(64<<10))
	}
	for _, c := range []string{"prof.stage.gc_cycles{stage=solve}", "prof.stage.gc_cpu_seconds{stage=solve}"} {
		if _, ok := snap.Counters[c]; !ok {
			t.Errorf("counter %s not recorded", c)
		}
	}
}

func TestStageRestoresCallerLabels(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.WithRecorder(context.Background(), col)
	outer := pprof.WithLabels(ctx, pprof.Labels("stage", "outer"))
	pprof.SetGoroutineLabels(outer)
	defer pprof.SetGoroutineLabels(context.Background())

	_, end := Stage(outer, "inner")
	end()

	// After the inner stage closes, a fresh child of `outer` still sees the
	// outer label (the goroutine label set was restored from outer).
	got := map[string]string{}
	pprof.ForLabels(outer, func(k, v string) bool {
		got[k] = v
		return true
	})
	if got["stage"] != "outer" {
		t.Fatalf("outer ctx labels corrupted: %v", got)
	}
}

func TestNestedStagesMergeLabels(t *testing.T) {
	col := obs.NewCollector()
	ctx := obs.WithRecorder(context.Background(), col)
	sctx, endOuter := Stage(ctx, "probe")
	lctx := pprof.WithLabels(sctx, pprof.Labels("layer", "conv1"))
	if v, _ := pprof.Label(lctx, "stage"); v != "probe" {
		t.Fatalf("stage label lost under layer label: %q", v)
	}
	if v, _ := pprof.Label(lctx, "layer"); v != "conv1" {
		t.Fatalf("layer label missing: %q", v)
	}
	endOuter()
}

func TestRuntimeSamplerGauges(t *testing.T) {
	col := obs.NewCollector()
	s := NewRuntimeSampler()
	s.Sample(col)
	snap := col.Metrics()
	for _, g := range []string{
		"runtime.goroutines",
		"runtime.heap_alloc_bytes",
		"runtime.total_alloc_bytes",
		"runtime.gc_cycles",
	} {
		if snap.Gauges[g] <= 0 {
			t.Errorf("%s = %v, want > 0", g, snap.Gauges[g])
		}
	}
	s.Sample(nil) // nil recorder must be a no-op, not a panic
}

func TestRuntimeSamplerPausesDoNotDoubleCount(t *testing.T) {
	col := obs.NewCollector()
	s := NewRuntimeSampler()
	if s.pauseName == "" {
		t.Skip("runtime exposes no GC pause histogram")
	}
	runtime.GC()
	s.Sample(col)
	first := col.Metrics().Histograms["runtime.gc_pause_seconds"]
	// No GC between scrapes: the second sample must add zero observations.
	s.Sample(col)
	second := col.Metrics().Histograms["runtime.gc_pause_seconds"]
	if second.Count != first.Count {
		t.Fatalf("pause observations grew without a GC: %d -> %d", first.Count, second.Count)
	}
	runtime.GC()
	s.Sample(col)
	third := col.Metrics().Histograms["runtime.gc_pause_seconds"]
	if third.Count <= second.Count {
		t.Fatalf("GC cycle produced no pause observations: %d -> %d", second.Count, third.Count)
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
