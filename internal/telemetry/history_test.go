package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
)

// getRaw fetches one path and returns the body and status code.
func getRaw(t *testing.T, base, path string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// listCampaigns fetches GET /campaigns with a query string and decodes it.
func listCampaigns(t *testing.T, base, query string) []CampaignSnapshot {
	t.Helper()
	body, code := getRaw(t, base, "/campaigns"+query)
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns%s: %d: %s", query, code, body)
	}
	var out []CampaignSnapshot
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET /campaigns%s: %v", query, err)
	}
	return out
}

// normalizeResumed clears the Resumed flag — the one field that legitimately
// differs between a pre-crash listing and its post-restart restoration — and
// re-marshals for byte comparison.
func normalizeResumed(t *testing.T, snaps []CampaignSnapshot) string {
	t.Helper()
	for i := range snaps {
		snaps[i].Resumed = false
	}
	raw, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStoreKillRestart is the acceptance-criterion integration test: a
// daemon with a campaign log runs three campaigns to done and one to
// failed, is killed, and a restart on the same log must serve the full
// pre-crash history — filtered listings and per-model aggregates —
// identically.
func TestStoreKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full smallcnn campaigns; skipped in -short (CI runs it in a dedicated race step)")
	}
	storeDir := t.TempDir()

	// Phase 1: run campaigns to terminal states with everything wired.
	col1 := obs.NewCollector()
	s1, err := store.Open(storeDir, store.Config{Obs: col1})
	if err != nil {
		t.Fatal(err)
	}
	d1 := newTestDaemon(t, DaemonConfig{
		Workers: 2, QueueDepth: 8,
		Recorder: col1, Store: s1,
		Retry: RetryPolicy{MaxAttempts: 1, BaseDelay: 5 * time.Millisecond},
	})
	base1, stop1 := startServer(t, d1, col1)

	for i := 0; i < 3; i++ {
		postJob(t, base1, tinySpec())
	}
	// Campaign 4 fails deterministically: a deadline far below any real run.
	doomed := tinySpec()
	doomed.TimeoutSeconds = 0.000001
	postJob(t, base1, doomed)
	for id := 1; id <= 3; id++ {
		waitState(t, d1, id, 4*time.Minute, StateDone)
	}
	waitState(t, d1, 4, 30*time.Second, StateFailed)

	// The terminal snapshots carry their convergence summaries, and the
	// log has all four campaigns.
	for _, c := range listCampaigns(t, base1, "?state=done") {
		if c.Converge == nil || c.Converge.TotalQueries == 0 {
			t.Errorf("campaign %d finished without a convergence summary: %+v", c.ID, c.Converge)
		}
	}
	if st := s1.Stats(); st.Records != 4 {
		t.Fatalf("store holds %d records after 4 terminal campaigns", st.Records)
	}

	// Pre-crash reference responses.
	wantDone := normalizeResumed(t, listCampaigns(t, base1, "?model=smallcnn&state=done&limit=2"))
	wantAgg, code := getRaw(t, base1, "/campaigns/aggregate?by=model")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/aggregate: %d: %s", code, wantAgg)
	}
	metrics1 := scrapeProm(t, base1)
	for _, name := range []string{"store_appends", "store_append_bytes", "store_records", "store_live_bytes", "store_segments"} {
		if metrics1[name] <= 0 {
			t.Errorf("metric %s missing or zero before crash: %v", name, metrics1[name])
		}
	}

	// Crash.
	d1.Kill()
	stop1()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: restart on the same data dir. The full history must be
	// served from the store — filtered, paginated and aggregated —
	// byte-identically (modulo the Resumed mark).
	col2 := obs.NewCollector()
	s2, err := store.Open(storeDir, store.Config{Obs: col2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d2 := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 8, Recorder: col2, Store: s2})
	defer d2.Kill()
	base2, stop2 := startServer(t, d2, col2)
	defer stop2()

	restored := listCampaigns(t, base2, "?model=smallcnn&state=done&limit=2")
	if len(restored) != 2 {
		t.Fatalf("restored filtered listing has %d campaigns, want 2", len(restored))
	}
	for _, c := range restored {
		if !c.Resumed {
			t.Errorf("restored campaign %d not marked resumed", c.ID)
		}
		if c.Device == nil {
			t.Errorf("restored campaign %d lost its device telemetry (store payload should carry it)", c.ID)
		}
		if c.Converge == nil {
			t.Errorf("restored campaign %d lost its convergence summary", c.ID)
		}
	}
	if got := normalizeResumed(t, restored); got != wantDone {
		t.Errorf("restored filtered listing diverged from pre-crash:\n got %s\nwant %s", got, wantDone)
	}
	gotAgg, code := getRaw(t, base2, "/campaigns/aggregate?by=model")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/aggregate after restart: %d: %s", code, gotAgg)
	}
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("aggregate diverged across restart:\n got %s\nwant %s", gotAgg, wantAgg)
	}
	var aggs []ModelAggregate
	if err := json.Unmarshal(gotAgg, &aggs); err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || aggs[0].Model != "smallcnn" || aggs[0].Campaigns != 4 ||
		aggs[0].Done != 3 || aggs[0].Failed != 1 || aggs[0].TotalQueries == 0 {
		t.Errorf("aggregate content wrong: %+v", aggs)
	}

	// Time-range filter: everything since the newest finish time is exactly
	// the campaigns finishing at that instant; a nanosecond later is empty.
	all := listCampaigns(t, base2, "")
	if len(all) != 4 {
		t.Fatalf("unfiltered listing has %d campaigns, want 4", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatalf("listing not in ascending-ID order: %d then %d", all[i-1].ID, all[i].ID)
		}
	}
	var maxFin int64
	for _, c := range all {
		if c.Finished == nil {
			t.Fatalf("campaign %d restored non-terminal: %q", c.ID, c.State)
		}
		if ns := c.Finished.UnixNano(); ns > maxFin {
			maxFin = ns
		}
	}
	since := listCampaigns(t, base2, fmt.Sprintf("?since=%d", maxFin))
	if len(since) < 1 {
		t.Errorf("since=max-finish returned %d campaigns, want >= 1", len(since))
	}
	if after := listCampaigns(t, base2, fmt.Sprintf("?since=%d", maxFin+1)); len(after) != 0 {
		t.Errorf("since=max-finish+1 returned %d campaigns, want 0", len(after))
	}
	// Pagination windows tile the listing without overlap.
	page1 := listCampaigns(t, base2, "?limit=3")
	page2 := listCampaigns(t, base2, "?offset=3&limit=3")
	if len(page1) != 3 || len(page2) != 1 || page1[2].ID >= page2[0].ID {
		t.Errorf("pagination windows wrong: %d + %d campaigns", len(page1), len(page2))
	}

	// The restarted log publishes its gauges on /metrics.
	metrics2 := scrapeProm(t, base2)
	if metrics2["store_records"] < 4 {
		t.Errorf("store_records after restart = %v, want >= 4", metrics2["store_records"])
	}

	// New submissions continue above the stored high-water mark.
	snap := postJob(t, base2, tinySpec())
	if snap.ID != 5 {
		t.Fatalf("post-restart submission got ID %d, want 5", snap.ID)
	}
	waitState(t, d2, 5, 4*time.Minute, StateDone)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d2.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// fixedSnapshot builds a deterministic terminal snapshot (fixed timestamps).
func fixedSnapshot(id int, model, state string, fin time.Time, queries int, degraded bool) CampaignSnapshot {
	started := fin.Add(-3 * time.Second)
	submitted := started.Add(-time.Second)
	return CampaignSnapshot{
		ID:            id,
		Spec:          JobSpec{Model: model, Scale: 16, Keep: 0.5, Trials: 2, Q: 6, Seed: 1, ChaosSeed: 1},
		State:         state,
		Submitted:     submitted,
		Started:       &started,
		Finished:      &fin,
		Attempts:      1,
		VictimQueries: queries,
		SolutionCount: 4,
		Degraded:      degraded,
	}
}

// putSnapshots writes each snapshot to the log the way the daemon's write
// path does: its JSON as the campaign's latest payload.
func putSnapshots(t *testing.T, l *store.Log, snaps ...CampaignSnapshot) {
	t.Helper()
	for _, snap := range snaps {
		payload, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Put(snap.ID, payload); err != nil {
			t.Fatal(err)
		}
	}
}

// storedSnapshots replays the log into its latest snapshot per campaign.
func storedSnapshots(t *testing.T, l *store.Log) map[int]CampaignSnapshot {
	t.Helper()
	out := map[int]CampaignSnapshot{}
	if err := l.Replay(func(id int, payload json.RawMessage) error {
		var snap CampaignSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			return err
		}
		out[id] = snap
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// fixedAggregate is the /campaigns/aggregate?by=model body for the twelve
// snapshots of TestBackendsServeIdenticalResponses, as served when the
// campaign store computed the aggregate from its own filter columns. The
// daemon's fold of its table must serve the same bytes.
const fixedAggregate = `[
 {
  "model": "smallcnn",
  "campaigns": 6,
  "done": 3,
  "failed": 3,
  "degraded": 1,
  "degraded_rate": 0.16666666666666666,
  "p50_wall_seconds": 3,
  "p95_wall_seconds": 3,
  "total_queries": 4200
 },
 {
  "model": "vggs",
  "campaigns": 6,
  "done": 6,
  "failed": 0,
  "degraded": 1,
  "degraded_rate": 0.16666666666666666,
  "p50_wall_seconds": 3,
  "p95_wall_seconds": 3,
  "total_queries": 3600
 }
]
`

// TestBackendsServeIdenticalResponses restores a daemon from a log holding
// twelve fixed terminal campaigns and requires its HTTP responses to match a
// reference backend: every listing query serves, in ascending order, the IDs
// a plain filter of the snapshots gives, and the aggregate body is
// byte-identical to the one the campaign store's column-based aggregate
// served for the same campaigns.
func TestBackendsServeIdenticalResponses(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	var snaps []CampaignSnapshot
	models := []string{"smallcnn", "vggs"}
	for i := 1; i <= 12; i++ {
		state := StateDone
		if i%4 == 0 {
			state = StateFailed
		}
		snaps = append(snaps, fixedSnapshot(
			i, models[i%2], state, base.Add(time.Duration(i)*time.Minute), 100*i, i%5 == 0))
	}
	l, err := store.Open(t.TempDir(), store.Config{NoSync: true, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	putSnapshots(t, l, snaps...)
	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: l})
	defer d.Kill()
	b, stop := startServer(t, d, obs.NewCollector())
	defer stop()

	since6, since3 := base.Add(6*time.Minute), base.Add(3*time.Minute)
	for _, tc := range []struct {
		query         string
		keep          func(CampaignSnapshot) bool
		offset, limit int
	}{
		{"", nil, 0, 0},
		{"?state=done", func(s CampaignSnapshot) bool { return s.State == StateDone }, 0, 0},
		{"?state=failed", func(s CampaignSnapshot) bool { return s.State == StateFailed }, 0, 0},
		{"?model=vggs", func(s CampaignSnapshot) bool { return s.Spec.Model == "vggs" }, 0, 0},
		{"?model=vggs&state=done", func(s CampaignSnapshot) bool { return s.Spec.Model == "vggs" && s.State == StateDone }, 0, 0},
		{"?limit=4", nil, 0, 4},
		{"?offset=3&limit=4", nil, 3, 4},
		{"?offset=100", nil, 100, 0},
		{fmt.Sprintf("?since=%d", since6.UnixNano()), func(s CampaignSnapshot) bool { return !s.Finished.Before(since6) }, 0, 0},
		{fmt.Sprintf("?state=done&since=%d&limit=2&offset=1", since3.UnixNano()),
			func(s CampaignSnapshot) bool { return s.State == StateDone && !s.Finished.Before(since3) }, 1, 2},
	} {
		var want []int
		for _, s := range snaps {
			if tc.keep == nil || tc.keep(s) {
				want = append(want, s.ID)
			}
		}
		want = want[min(tc.offset, len(want)):]
		if tc.limit > 0 && tc.limit < len(want) {
			want = want[:tc.limit]
		}
		var got []int
		for _, s := range listCampaigns(t, b, tc.query) {
			got = append(got, s.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("/campaigns%s served IDs %v, want %v", tc.query, got, want)
		}
	}
	if agg, code := getRaw(t, b, "/campaigns/aggregate?by=model"); code != http.StatusOK || string(agg) != fixedAggregate {
		t.Errorf("aggregate = %d:\n%s\nwant 200:\n%s", code, agg, fixedAggregate)
	}

	// Bad query parameters are rejected.
	for _, q := range []string{"?state=bogus", "?limit=x", "?limit=-2", "?offset=x", "?since=tuesday"} {
		if _, code := getRaw(t, b, "/campaigns"+q); code != http.StatusBadRequest {
			t.Errorf("GET /campaigns%s = %d, want 400", q, code)
		}
	}
	if _, code := getRaw(t, b, "/campaigns/aggregate?by=color"); code != http.StatusBadRequest {
		t.Errorf("aggregate?by=color accepted; want 400")
	}
	if _, code := getRaw(t, b, "/campaigns/1/events"); code != http.StatusNotFound {
		t.Errorf("GET /campaigns/1/events = %d, want 404: no route serves per-campaign events", code)
	}
}

// foldJSON is the aggregate fold of snaps, marshaled for byte comparison.
func foldJSON(t *testing.T, snaps ...CampaignSnapshot) string {
	t.Helper()
	raw, err := json.Marshal(aggregateByModel(snaps))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestRecordFromSnapshot pins what the aggregate fold records from each
// snapshot. A live campaign is not history yet and folds to nothing (an
// empty fold is [], not null). A terminal one without a start time must not
// derive wall seconds from the zero time — finished.Sub(zero) is ~54 years,
// which would permanently skew the per-model p50/p95 aggregates. And a
// snapshot whose times carry a monotonic reading, as a live campaign's do,
// folds to the same bytes as its JSON round trip, which has lost it.
func TestRecordFromSnapshot(t *testing.T) {
	fin := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	done := fixedSnapshot(1, "smallcnn", StateDone, fin, 100, true)
	zeroStart := fixedSnapshot(2, "smallcnn", StateDone, fin, 100, false)
	zeroStart.Started = nil
	running := fixedSnapshot(3, "vggs", StateRunning, fin, 7, false)
	running.Finished = nil
	for _, tc := range []struct {
		snap CampaignSnapshot
		want string
	}{
		{done, `[{"model":"smallcnn","campaigns":1,"done":1,"failed":0,"degraded":1,"degraded_rate":1,"p50_wall_seconds":3,"p95_wall_seconds":3,"total_queries":100}]`},
		{zeroStart, `[{"model":"smallcnn","campaigns":1,"done":1,"failed":0,"degraded":0,"degraded_rate":0,"p50_wall_seconds":0,"p95_wall_seconds":0,"total_queries":100}]`},
		{running, `[]`},
	} {
		if got := foldJSON(t, tc.snap); got != tc.want {
			t.Errorf("campaign %d folds to %s, want %s", tc.snap.ID, got, tc.want)
		}
	}

	started := time.Now()
	finished := started.Add(1500 * time.Millisecond)
	live := CampaignSnapshot{ID: 4, Spec: JobSpec{Model: "smallcnn"}, State: StateDone,
		Started: &started, Finished: &finished, VictimQueries: 9}
	raw, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var restored CampaignSnapshot
	if err := json.Unmarshal(raw, &restored); err != nil {
		t.Fatal(err)
	}
	if a, b := foldJSON(t, live), foldJSON(t, restored); a != b {
		t.Errorf("live and restored snapshots fold differently:\n live %s\n restored %s", a, b)
	}
}
