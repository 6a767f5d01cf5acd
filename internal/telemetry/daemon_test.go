package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/obs"
)

// tinySpec is a smallcnn campaign small enough that two of them finish in a
// few seconds (tens of seconds under -race) yet still exercise the full
// pipeline: probe, solve, geometry, timing, finalize.
func tinySpec() JobSpec {
	return JobSpec{Model: "smallcnn", Trials: 2, Q: 6}
}

// newTestDaemon starts a daemon on cfg, failing the test if its store
// cannot be restored.
func newTestDaemon(t *testing.T, cfg DaemonConfig) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonEndToEnd is the live-telemetry integration test: it starts the
// daemon and HTTP server on a loopback port, submits two concurrent
// campaigns, and watches them through the same endpoints an operator would
// use — /metrics (Prometheus text with advancing counters), /campaigns
// (per-layer device telemetry), /events (JSONL), and pprof — then shuts the
// daemon down and checks that the workers drained cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	col := obs.NewCollector()
	flight := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	rec := obs.Fanout(col, flight)

	d := newTestDaemon(t, DaemonConfig{Workers: 2, QueueDepth: 8, Recorder: rec})
	srv := NewServer(ServerOptions{
		Collector: col,
		Flight:    flight,
		Campaigns: d,
		Submitter: d,
		Health:    d,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	// First scrape: before any campaign runs.
	before := scrapeProm(t, base)

	// Submit two concurrent campaigns over HTTP, as a client would.
	for i := 0; i < 2; i++ {
		snap := postJob(t, base, tinySpec())
		if snap.ID != i+1 || snap.State != StateQueued {
			t.Fatalf("submitted campaign %d: got id=%d state=%q", i+1, snap.ID, snap.State)
		}
	}

	// Poll /campaigns until both finish.
	deadline := time.Now().Add(4 * time.Minute)
	var finished []CampaignSnapshot
	for {
		finished = finished[:0]
		for _, c := range getCampaigns(t, base) {
			if c.State == StateDone || c.State == StateFailed {
				finished = append(finished, c)
			}
		}
		if len(finished) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns did not finish in time: %+v", getCampaigns(t, base))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, c := range finished {
		if c.State != StateDone {
			t.Fatalf("campaign %d failed: %s", c.ID, c.Error)
		}
		if c.Started == nil || c.Finished == nil {
			t.Fatalf("campaign %d missing lifecycle timestamps: %+v", c.ID, c)
		}
		if c.Stage != "finalize" {
			t.Errorf("campaign %d final stage = %q, want finalize", c.ID, c.Stage)
		}
		if c.ProbeTotal == 0 || c.ProbeDone != c.ProbeTotal {
			t.Errorf("campaign %d probe progress %d/%d, want complete", c.ID, c.ProbeDone, c.ProbeTotal)
		}
		if c.SolutionCount < 1 {
			t.Errorf("campaign %d has no solutions", c.ID)
		}
		// Per-layer device telemetry must be attached to a finished campaign.
		if c.Device == nil || c.Device.Runs == 0 || len(c.Device.Layers) == 0 {
			t.Fatalf("campaign %d missing device telemetry: %+v", c.ID, c.Device)
		}
		if c.VictimQueries != c.Device.Runs {
			t.Errorf("campaign %d victim_queries = %d, device runs = %d", c.ID, c.VictimQueries, c.Device.Runs)
		}
		for _, l := range c.Device.Layers {
			if l.Name == "" {
				t.Errorf("campaign %d has an unnamed device layer: %+v", c.ID, l)
			}
		}
	}

	// /campaigns/{id} serves the same snapshot individually.
	one := getCampaign(t, base, 1)
	if one.ID != 1 || one.State != StateDone {
		t.Fatalf("/campaigns/1 = %+v", one)
	}
	if resp, err := http.Get(base + "/campaigns/99"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/campaigns/99: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	// Second scrape: counters must have advanced while staying parseable.
	after := scrapeProm(t, base)
	advanced := false
	for _, name := range []string{"victim_inferences", "daemon_jobs_submitted"} {
		b, a := before[name], after[name]
		if a > b {
			advanced = true
		}
		if a < b {
			t.Errorf("counter %s regressed between scrapes: %v -> %v", name, b, a)
		}
	}
	if !advanced {
		t.Fatalf("no counter advanced between scrapes:\nbefore=%v\nafter=%v", before, after)
	}
	for _, name := range []string{
		"daemon_jobs_submitted", "daemon_jobs_started", "daemon_campaigns",
		"victim_inferences", "stage_seconds_bucket", "daemon_campaign_seconds_count",
	} {
		if _, ok := after[name]; !ok {
			t.Errorf("metric %s missing from /metrics after campaigns ran", name)
		}
	}

	// /events yields the retained event tail as parseable JSONL.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/events Content-Type = %q", ct)
	}
	events := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("/events line %q: %v", sc.Text(), err)
		}
		if ev.Kind == "" || ev.TS == 0 {
			t.Fatalf("/events malformed event: %+v", ev)
		}
		events++
	}
	if events == 0 {
		t.Fatal("/events returned no events after two campaigns")
	}

	// pprof answers on the same mux.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %s", resp.Status)
	}

	// /healthz serves the structured health view while healthy.
	if h, code := getHealth(t, base); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("/healthz = %d %+v, want 200 ok", code, h)
	}

	// Graceful shutdown: workers drain, late submissions are refused, and
	// /healthz flips to draining with 503 so load-balancers stop routing
	// to the dying node.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
	if _, err := d.Submit(tinySpec()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after shutdown = %v, want ErrShuttingDown", err)
	}
	if h, code := getHealth(t, base); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("/healthz during drain = %d %+v, want 503 draining", code, h)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("server shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	d := newTestDaemon(t, DaemonConfig{Workers: 1})
	defer d.Shutdown(context.Background())
	for _, spec := range []JobSpec{
		{Model: "nonesuch"},
		{Model: "smallcnn", Keep: 2},
		{Model: "smallcnn", Trials: -1},
		{Model: "smallcnn", Q: 1},
	} {
		if _, err := d.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
}

func TestQueueFull(t *testing.T) {
	// One worker, wedged forever on its first job by a chaos stall, and a
	// queue of depth 1: the third submission must be rejected. Over HTTP
	// the rejection is 429 with both a Retry-After header and a structured
	// JSON body, so clients can back off programmatically.
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 1, Faults: stall, RetryAfter: 7 * time.Second})
	defer d.Kill()
	srv := NewServer(ServerOptions{Campaigns: d, Submitter: d, Health: d, DisablePprof: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())
	base := "http://" + l.Addr().String()

	body, _ := json.Marshal(tinySpec())
	var resp *http.Response
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /campaigns = %s, want 202 or 429", resp.Status)
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("queue of depth 1 never returned 429")
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After header = %q, want %q", got, "7")
	}
	var apiErr APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("429 body is not structured JSON: %v", err)
	}
	if !strings.Contains(apiErr.Error, "queue full") {
		t.Errorf("429 body error = %q, want a queue-full message", apiErr.Error)
	}
	if apiErr.RetryAfterSeconds != 7 {
		t.Errorf("429 body retry_after_seconds = %d, want 7", apiErr.RetryAfterSeconds)
	}

	// The daemon-level sentinel backs the HTTP translation.
	if _, err := d.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Submit on full queue = %v, want ErrQueueFull", err)
	}
}

func TestServerWithoutSources(t *testing.T) {
	srv := NewServer(ServerOptions{DisablePprof: true})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Shutdown(context.Background())
	base := "http://" + l.Addr().String()

	for path, want := range map[string]int{
		"/metrics":             http.StatusNotFound,
		"/events":              http.StatusNotFound,
		"/campaigns":           http.StatusOK, // empty list, not an error
		"/debug/pprof/cmdline": http.StatusNotFound,
		"/healthz":             http.StatusOK,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(`{"model":"smallcnn"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /campaigns without submitter = %d, want 405", resp.StatusCode)
	}
}

// scrapeProm fetches /metrics and returns every sample's value by bare
// metric name (labels stripped, label variants summed), failing the test on
// anything that is not valid Prometheus text exposition.
func scrapeProm(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed metrics line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v float64
		if _, err := fmt.Sscanf(line[sp+1:], "%g", &v); err != nil {
			t.Fatalf("malformed metrics value in %q: %v", line, err)
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJob(t *testing.T, base string, spec JobSpec) CampaignSnapshot {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /campaigns: %s: %s", resp.Status, msg)
	}
	var snap CampaignSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func getCampaigns(t *testing.T, base string) []CampaignSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []CampaignSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// getHealth fetches /healthz and returns the parsed body plus status code.
func getHealth(t *testing.T, base string) (Health, int) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	return h, resp.StatusCode
}

func getCampaign(t *testing.T, base string, id int) CampaignSnapshot {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/campaigns/%d", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out CampaignSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}
