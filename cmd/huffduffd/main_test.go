package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/telemetry"
)

// TestDaemonKeepsNoSpans runs campaigns through the daemon's recorder: once
// they finish, the Collector behind /metrics holds no span, while /metrics
// counters have advanced and /events still shows the campaigns' spans.
func TestDaemonKeepsNoSpans(t *testing.T) {
	col := obs.NewCollector()
	flight := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	d, err := telemetry.NewDaemon(telemetry.DaemonConfig{Workers: 1, Recorder: newRecorder(col, flight, nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.NewServer(telemetry.ServerOptions{
		Collector: col, Flight: flight, Campaigns: d, Submitter: d, Health: d,
	}).Handler())
	defer srv.Close()
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	inferences := func() float64 {
		for _, line := range strings.Split(get("/metrics"), "\n") {
			if v, ok := strings.CutPrefix(line, "victim_inferences "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		return 0
	}

	before := inferences()
	for i := 0; i < 2; i++ {
		if _, err := d.Submit(telemetry.JobSpec{Model: "smallcnn", Trials: 1, Q: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(4 * time.Minute); ; time.Sleep(50 * time.Millisecond) {
		done := 0
		for _, c := range d.Campaigns() {
			if c.State == telemetry.StateFailed {
				t.Fatalf("campaign %d failed: %s", c.ID, c.Error)
			}
			if c.State == telemetry.StateDone {
				done++
			}
		}
		if done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaigns did not finish")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if after := inferences(); after <= before {
		t.Fatalf("victim_inferences went from %v to %v", before, after)
	}
	if events := get("/events?n=100000"); !strings.Contains(events, `"kind":"`+obs.EventSpanStart+`"`) {
		t.Fatal("/events shows no span events")
	}
	if tree := col.Tree(); tree != "" {
		t.Fatalf("the Collector kept spans:\n%s", tree)
	}
}
