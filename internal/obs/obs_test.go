package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "root")
	if sp != nil {
		t.Fatalf("Start without a recorder returned a span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a recorder derived a new context")
	}
	sp.End() // must not panic
	Count(ctx, "c", "", 1)
	Gauge(ctx, "g", "", 1)
	Observe(ctx, "h", "", 1)
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

	ctx, root := Start(ctx, "attack")
	cctx, cal := Start(ctx, "calibrate")
	Count(cctx, "victim.inferences", "", 2)
	cal.End()
	pctx, probe := Start(ctx, "probe")
	for q := 0; q < 3; q++ {
		_, p := Startf(pctx, "pos")
		Count(pctx, "probe.positions", "", 1)
		p.End()
	}
	probe.End()
	Observe(ctx, "stage.seconds", "stage=probe", 0.25)
	Gauge(ctx, "solution.space.count", "", 12)
	root.End()
	root.End() // idempotent

	if got := col.CounterValue("victim.inferences", ""); got != 2 {
		t.Fatalf("victim.inferences = %v, want 2", got)
	}
	if got := col.CounterValue("probe.positions", ""); got != 3 {
		t.Fatalf("probe.positions = %v, want 3", got)
	}
	if got := col.GaugeValue("solution.space.count", ""); got != 12 {
		t.Fatalf("solution.space.count = %v, want 12", got)
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

	tree := col.Tree()
	for _, want := range []string{"attack", "calibrate", "probe"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestTraceJSONNesting validates the Chrome-trace export: a traceEvents
// array whose B/E events are properly nested per tid.
func TestTraceJSONNesting(t *testing.T) {
	col := NewCollector()
	ctx := WithRecorder(context.Background(), col)
	ctx, root := Start(ctx, "attack")
	for _, stage := range []string{"calibrate", "probe", "solve", "timing"} {
		sctx, sp := Start(ctx, stage)
		_, inner := Start(sctx, stage+".inner")
		inner.End()
		sp.End()
	}
	root.End()

	raw, err := col.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 2*(1+4+4) {
		t.Fatalf("got %d events, want %d", len(doc.TraceEvents), 2*(1+4+4))
	}
	// B/E must balance like parentheses, with E matching the innermost B.
	var stack []string
	lastTS := -1.0
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.TS < lastTS {
			t.Fatalf("timestamps regress at %q (%v < %v)", ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		switch ev.Phase {
		case "B":
			stack = append(stack, ev.Name)
			seen[ev.Name] = true
		case "E":
			if len(stack) == 0 || stack[len(stack)-1] != ev.Name {
				t.Fatalf("unbalanced E %q with stack %v", ev.Name, stack)
			}
			stack = stack[:len(stack)-1]
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed spans %v", stack)
	}
	for _, stage := range []string{"calibrate", "probe", "solve", "timing"} {
		if !seen[stage] {
			t.Fatalf("trace missing stage span %q", stage)
		}
	}
}

func TestUnendedSpanExports(t *testing.T) {
	col := NewCollector()
	ctx := WithRecorder(context.Background(), col)
	_, sp := Start(ctx, "dangling")
	_ = sp // never ended
	time.Sleep(time.Millisecond)
	raw, err := col.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "dangling") {
		t.Fatalf("unended span missing from trace: %s", raw)
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
	ctx, sp := Start(ctx, "x")
	if sp == nil {
		t.Fatalf("Noop recorder suppressed span creation")
	}
	Count(ctx, "c", "", 1)
	sp.End()
}

func TestMetricsOnlyDropsSpans(t *testing.T) {
	col := NewCollector()
	ctx := WithRecorder(context.Background(), MetricsOnly(col))
	ctx, sp := Start(ctx, "campaign")
	Count(ctx, "x", "", 2)
	sp.End()
	if col.CounterValue("x", "") != 2 {
		t.Fatal("metric did not pass through")
	}
	if tree := col.Tree(); tree != "" {
		t.Fatalf("span kept:\n%s", tree)
	}
}

// TestRecorderConcurrent exercises the Collector from concurrent goroutines;
// it exists to run under -race (the Recorder contract requires thread
// safety — spans and metrics may arrive from parallel probe workers).
func TestRecorderConcurrent(t *testing.T) {
	col := NewCollector()
	base := WithRecorder(context.Background(), col)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, root := Startf(base, "worker%d", g)
			for i := 0; i < 500; i++ {
				ictx, sp := Start(ctx, "iter")
				Count(ictx, "iters", "", 1)
				Observe(ictx, "latency", "", float64(i+1)*1e-6)
				sp.End()
			}
			root.End()
		}(g)
	}
	wg.Wait()
	if got := col.CounterValue("iters", ""); got != 1000 {
		t.Fatalf("iters = %v, want 1000", got)
	}
	snap := col.Metrics()
	if h := snap.Histograms["latency"]; h.Count != 1000 {
		t.Fatalf("latency histogram count = %d, want 1000", h.Count)
	}
	if _, err := col.TraceJSON(); err != nil {
		t.Fatalf("trace export after concurrent recording: %v", err)
	}
}
