package obs

import (
	"context"
	"sync"
	"testing"
)

func TestNilRecorderIsNoop(t *testing.T) {
	ctx := context.Background()
	Count(ctx, "c", "", 1) // must not panic
	if WithRecorder(ctx, nil) != ctx {
		t.Fatalf("WithRecorder(nil) derived a new context")
	}
	if RecorderFrom(ctx) != nil {
		t.Fatalf("RecorderFrom on bare context is non-nil")
	}
}

func TestSpanHierarchyAndMetrics(t *testing.T) {
	col := NewCollector()
	ctx := WithRecorder(context.Background(), col)

	Count(ctx, "victim.inferences", "", 2)
	for q := 0; q < 3; q++ {
		Count(ctx, "probe.positions", "", 1)
	}
	rec := RecorderFrom(ctx)
	rec.Observe("stage.seconds", "stage=probe", 0.25)
	rec.Gauge("runtime.goroutines", "", 12)

	if got := col.CounterValue("victim.inferences", ""); got != 2 {
		t.Fatalf("victim.inferences = %v, want 2", got)
	}
	if got := col.CounterValue("probe.positions", ""); got != 3 {
		t.Fatalf("probe.positions = %v, want 3", got)
	}
	if got := col.GaugeValue("runtime.goroutines", ""); got != 12 {
		t.Fatalf("runtime.goroutines = %v, want 12", got)
	}
	snap := col.Metrics()
	h, ok := snap.Histograms["stage.seconds{stage=probe}"]
	if !ok {
		t.Fatalf("missing stage.seconds histogram; have %v", snap.Histograms)
	}
	if h.Count != 1 || h.Sum != 0.25 {
		t.Fatalf("histogram = %+v, want count 1 sum 0.25", h)
	}
	// 0.25 lands exactly on the 2^-2 bucket boundary.
	if n := h.Buckets["0.25"]; n != 1 {
		t.Fatalf("bucket 0.25 = %d, want 1; buckets %v", n, h.Buckets)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, minBucket},
		{-3, minBucket},
		{1e-300, minBucket},
		{0.25, -2},
		{0.3, -1},
		{1, 0},
		{1.5, 1},
		{1024, 10},
		{1e300, maxBucket},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	h := &histogram{buckets: map[int]uint64{}}
	for _, v := range []float64{1, 2, 4, 1000} {
		h.observe(v)
	}
	if h.count != 4 || h.sum != 1007 || h.min != 1 || h.max != 1000 {
		t.Fatalf("histogram summary wrong: %+v", h)
	}
}

func TestNoopRecorder(t *testing.T) {
	ctx := WithRecorder(context.Background(), Noop())
	rec := RecorderFrom(ctx)
	if rec == nil {
		t.Fatalf("Noop recorder not attached")
	}
	Count(ctx, "c", "", 1)
	rec.Gauge("g", "", 1)
	rec.Observe("h", "", 1)
}

// TestRecorderConcurrent exercises the Collector from concurrent goroutines;
// it exists to run under -race (the Recorder contract requires thread
// safety — metrics may arrive from concurrent campaigns).
func TestRecorderConcurrent(t *testing.T) {
	col := NewCollector()
	ctx := WithRecorder(context.Background(), col)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Count(ctx, "iters", "", 1)
				RecorderFrom(ctx).Observe("latency", "", float64(i+1)*1e-6)
			}
		}()
	}
	wg.Wait()
	if got := col.CounterValue("iters", ""); got != 1000 {
		t.Fatalf("iters = %v, want 1000", got)
	}
	snap := col.Metrics()
	if h := snap.Histograms["latency"]; h.Count != 1000 {
		t.Fatalf("latency histogram count = %d, want 1000", h.Count)
	}
}
