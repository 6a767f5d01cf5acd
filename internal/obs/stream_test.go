package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestJSONLSinkStreamsEvents drives a JSONL sink through the normal
// context-based instrumentation and checks that every event arrives as one
// parseable JSON line, in order, as it happens.
func TestJSONLSinkStreamsEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	ctx := WithRecorder(context.Background(), sink)

	ctx, root := Start(ctx, "attack")
	Count(ctx, "victim.inferences", "", 2)
	Gauge(ctx, "solution.space.count", "", 5)
	Observe(ctx, "stage.seconds", "stage=probe", 0.25)
	root.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	kinds := []string{EventSpanStart, EventCount, EventGauge, EventObserve, EventSpanEnd}
	if len(events) != len(kinds) {
		t.Fatalf("got %d events, want %d: %+v", len(events), len(kinds), events)
	}
	for i, want := range kinds {
		if events[i].Kind != want {
			t.Fatalf("event %d kind = %q, want %q", i, events[i].Kind, want)
		}
		if events[i].TS == 0 {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	if events[0].Name != "attack" || events[0].Span == 0 {
		t.Fatalf("span_start event malformed: %+v", events[0])
	}
	if events[4].Span != events[0].Span {
		t.Fatalf("span_end id %d does not match span_start id %d", events[4].Span, events[0].Span)
	}
	if events[3].Label != "stage=probe" || events[3].Value != 0.25 {
		t.Fatalf("observe event malformed: %+v", events[3])
	}
}

// errWriter fails after n writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	sink := NewJSONLSink(&errWriter{n: 1})
	sink.Count("a", "", 1)
	if sink.Err() != nil {
		t.Fatalf("first write failed: %v", sink.Err())
	}
	sink.Count("b", "", 1)
	err := sink.Err()
	if err == nil {
		t.Fatal("write error not retained")
	}
	sink.Count("c", "", 1) // must not panic, must keep the first error
	if sink.Err() != err {
		t.Fatalf("retained error changed: %v -> %v", err, sink.Err())
	}
}

// TestFlightRecorderRing checks the bounded ring: it retains exactly the
// last N events, oldest first, while counting everything it has seen.
func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Count("seq", "", float64(i))
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := float64(6 + i); ev.Value != want {
			t.Fatalf("event %d value = %v, want %v (oldest-first order)", i, ev.Value, want)
		}
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}

	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 4 {
		t.Fatalf("WriteJSONL wrote %d lines, want 4", n)
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewFlightRecorder(8)
	f.SpanStart("a", 1, 0, time.Now())
	f.SpanEnd(1, time.Now())
	evs := f.Events()
	if len(evs) != 2 || evs[0].Kind != EventSpanStart || evs[1].Kind != EventSpanEnd {
		t.Fatalf("partial ring malformed: %+v", evs)
	}
}

func TestFanout(t *testing.T) {
	if Fanout() != nil || Fanout(nil, nil) != nil {
		t.Fatal("empty fanout must collapse to nil (the off switch)")
	}
	col := NewCollector()
	if Fanout(nil, col, nil) != Recorder(col) {
		t.Fatal("single-sink fanout must return the sink unwrapped")
	}
	other := NewCollector()
	multi := Fanout(col, other)
	multi.Count("x", "", 2)
	multi.Gauge("g", "", 1)
	multi.Observe("h", "", 1)
	multi.SpanStart("s", 1, 0, time.Now())
	multi.SpanEnd(1, time.Now())
	for _, c := range []*Collector{col, other} {
		if c.CounterValue("x", "") != 2 {
			t.Fatal("fanout did not reach every sink")
		}
	}
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

// TestStreamSinksConcurrentRecorders hammers a JSONLSink and a
// FlightRecorder through one Fanout from many goroutines at once — the
// daemon's steady state, where worker campaigns, the scrape handler, and the
// runtime sampler all record concurrently. Every JSONL line must still be
// one complete JSON object (no interleaved writes), and the flight ring must
// account for exactly every event.
func TestStreamSinksConcurrentRecorders(t *testing.T) {
	const (
		workers = 8
		each    = 250
		ringCap = 64
	)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	flight := NewFlightRecorder(ringCap)
	rec := Fanout(sink, flight)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithRecorder(context.Background(), rec)
			for i := 0; i < each; i++ {
				sctx, sp := Start(ctx, "work")
				Count(sctx, "events", "worker="+strconv.Itoa(w), 1)
				Observe(sctx, "lat", "", float64(i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()

	// 4 events per iteration: span_start, count, observe, span_end.
	wantEvents := uint64(workers * each * 4)
	if got := flight.Total(); got != wantEvents {
		t.Errorf("flight recorder saw %d events, want %d", got, wantEvents)
	}
	if got := len(flight.Events()); got != ringCap {
		t.Errorf("flight ring holds %d events, want cap %d", got, ringCap)
	}
	// Every retained event is fully formed — a torn ring write under
	// concurrency would surface as a zero-valued Event. (Timestamps are
	// sampled before the ring lock, so strict TS order across goroutines is
	// deliberately not guaranteed and not asserted.)
	for i, ev := range flight.Events() {
		if ev.Kind == "" || ev.TS == 0 {
			t.Errorf("flight event %d torn or empty: %+v", i, ev)
		}
	}

	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d is not one JSON event (interleaved write?): %v: %q", lines, err, sc.Text())
		}
		if ev.Kind == "" {
			t.Fatalf("line %d lost its kind: %q", lines, sc.Text())
		}
		lines++
	}
	if uint64(lines) != wantEvents {
		t.Errorf("JSONL sink wrote %d lines, want %d", lines, wantEvents)
	}
}
