package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/chaos"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
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
// (per-layer device telemetry), and pprof — then shuts the daemon down and
// checks that the workers drained cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	col := obs.NewCollector()
	d := newTestDaemon(t, DaemonConfig{Workers: 2, QueueDepth: 8, Recorder: col})
	srv := NewServer(d, col)
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
		// The campaign's ledger is its progress record: it ends on the
		// finalize snapshot, and its last probe snapshot is the campaign's
		// last probe position.
		led, ok := d.ProgressLedger(c.ID)
		if !ok {
			t.Fatalf("campaign %d has no ledger", c.ID)
		}
		snaps := led.Snapshots()
		if len(snaps) == 0 || snaps[len(snaps)-1].Stage != "finalize" || !snaps[len(snaps)-1].Done {
			t.Errorf("campaign %d ledger does not end on a done finalize snapshot: %d snapshots", c.ID, len(snaps))
		}
		lastProbe := ""
		for _, s := range snaps {
			if s.Stage == "probe" {
				lastProbe = s.Note
			}
		}
		total := c.Spec.Trials * 4 * c.Spec.Q
		if want := fmt.Sprintf("positions=%d/%d", total, total); lastProbe != want {
			t.Errorf("campaign %d last probe note = %q, want %q", c.ID, lastProbe, want)
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
		// A finished campaign is a plain value: its final device telemetry
		// lives in the snapshot, and its record no longer holds the victim.
		d.mu.Lock()
		rec := d.byID[c.ID]
		d.mu.Unlock()
		rec.mu.Lock()
		holdsMachine := rec.machine != nil
		rec.mu.Unlock()
		if holdsMachine {
			t.Errorf("finished campaign %d still holds its victim machine", c.ID)
		}
		for _, l := range c.Device.Layers {
			if l.Name == "" {
				t.Errorf("campaign %d has an unnamed device layer: %+v", c.ID, l)
			}
		}
	}

	// This daemon is ephemeral: the aggregate is folded from its table. No
	// route serves per-campaign events.
	var aggs []ModelAggregate
	if body, code := getRaw(t, base, "/campaigns/aggregate?by=model"); code != http.StatusOK {
		t.Fatalf("/campaigns/aggregate = %d: %s", code, body)
	} else if err := json.Unmarshal(body, &aggs); err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || aggs[0].Model != "smallcnn" || aggs[0].Done != 2 || aggs[0].TotalQueries == 0 {
		t.Errorf("ephemeral aggregate = %+v, want 2 smallcnn campaigns done", aggs)
	}
	if _, code := getRaw(t, base, "/campaigns/1/events"); code != http.StatusNotFound {
		t.Errorf("/campaigns/1/events = %d, want 404", code)
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

	// The daemon serves no raw event stream and no profile bundle: host
	// cost is /metrics and /debug/pprof, progress the campaign ledgers.
	for _, path := range []string{"/events", "/debug/profile?seconds=1"} {
		if _, code := getRaw(t, base, path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}

	// pprof answers on the same mux.
	resp, err := http.Get(base + "/debug/pprof/cmdline")
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
	d := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 1, Faults: stall})
	defer d.Kill()
	base, stop := startServer(t, d, obs.NewCollector())
	defer stop()

	body, _ := json.Marshal(tinySpec())
	var resp *http.Response
	var err error
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
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("Retry-After header = %q, want %q", got, "5")
	}
	var apiErr APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("429 body is not structured JSON: %v", err)
	}
	if !strings.Contains(apiErr.Error, "queue full") {
		t.Errorf("429 body error = %q, want a queue-full message", apiErr.Error)
	}
	if apiErr.RetryAfterSeconds != 5 {
		t.Errorf("429 body retry_after_seconds = %d, want 5", apiErr.RetryAfterSeconds)
	}

	// The daemon-level sentinel backs the HTTP translation.
	if _, err := d.Submit(tinySpec()); !errors.Is(err, ErrQueueFull) {
		t.Errorf("Submit on full queue = %v, want ErrQueueFull", err)
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

// stageLabelVictim runs each inference through inner as the attack runs its
// victim — under the attack's context when inner takes one — and counts the
// probe-stage runs and those after which the goroutine still carries the
// stage=probe pprof label.
type stageLabelVictim struct {
	t           *testing.T
	inner       attack.Victim
	probe, kept int
}

func (v *stageLabelVictim) Run(img *tensor.Tensor) (*trace.Trace, error) {
	return v.RunCtx(context.Background(), img)
}

func (v *stageLabelVictim) RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error) {
	var tr *trace.Trace
	var err error
	if cv, ok := v.inner.(ctxVictim); ok {
		tr, err = cv.RunCtx(ctx, img)
	} else {
		tr, err = v.inner.Run(img)
	}
	if stage, _ := pprof.Label(ctx, "stage"); stage == "probe" {
		v.probe++
		if strings.Contains(v.ownLabels(), `"stage":"probe"`) {
			v.kept++
		}
	}
	return tr, err
}

// ownLabels returns the calling goroutine's pprof label set as the goroutine
// profile prints it, found by this method's frame on its stack ("" when the
// goroutine carries no labels).
func (v *stageLabelVictim) ownLabels() string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		v.t.Fatal(err)
	}
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(rec, "(*stageLabelVictim).ownLabels") {
			continue
		}
		for _, line := range strings.Split(rec, "\n") {
			if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
				return labels
			}
		}
		return ""
	}
	v.t.Fatalf("no goroutine in ownLabels in the goroutine profile:\n%s", buf.String())
	return ""
}

// TestStageLabelSurvivesWrappedVictims runs a T=1 Q=2 SmallCNN attack with a
// recorder through each victim wrapper huffduffd composes. After every
// probe-stage inference the goroutine must still carry stage=probe, or the
// CPU samples /debug/pprof/profile takes lose their stage: the simulator
// restores the label set of the context it runs under, which is none when a
// wrapper calls it without the attack's.
func TestStageLabelSurvivesWrappedVictims(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*accel.Machine) attack.Victim
	}{
		{"supervised", func(m *accel.Machine) attack.Victim { return &supervisedVictim{inner: m} }},
		{"chaos", func(m *accel.Machine) attack.Victim { return chaos.Wrap(m, chaos.Config{}) }},
		{"supervised_chaos", func(m *accel.Machine) attack.Victim {
			return &supervisedVictim{inner: chaos.Wrap(m, chaos.Config{})}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewCollector()
			arch, err := models.ByName("smallcnn", 16)
			if err != nil {
				t.Fatal(err)
			}
			bind, err := arch.Build(rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			prune.GlobalMagnitude(bind.Net.Params(), 0.5)
			v := &stageLabelVictim{t: t, inner: tc.wrap(accel.NewMachine(accel.DefaultConfig(), arch, bind))}
			cfg := attack.DefaultConfig()
			cfg.Probe.Trials, cfg.Probe.Q = 1, 2
			cfg.Obs = rec
			if _, err := attack.AttackContext(context.Background(), v, cfg); err != nil {
				t.Fatal(err)
			}
			if v.probe != 8 || v.kept != v.probe {
				t.Errorf("stage=probe kept after %d of %d probe-stage runs, want 8 of 8", v.kept, v.probe)
			}
		})
	}
}
