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

// TestDaemonKeepsNoSpans runs campaigns through the daemon's recorder, the
// Collector behind /metrics as main wires it: once they finish, /metrics
// counters have advanced. The Collector keeps metric series only.
func TestDaemonKeepsNoSpans(t *testing.T) {
	col := obs.NewCollector()
	d, err := telemetry.NewDaemon(telemetry.DaemonConfig{Workers: 1, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetry.NewServer(d, col).Handler())
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
}
