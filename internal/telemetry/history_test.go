package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
// daemon with a segment store and a flight recorder runs three campaigns to
// done and one to failed, is killed, and a restart on the same store must
// serve the full pre-crash history — filtered listings, per-model
// aggregates, and per-campaign stored event tails — identically.
func TestStoreKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full smallcnn campaigns; skipped in -short (CI runs it in a dedicated race step)")
	}
	storeDir := t.TempDir()

	// Phase 1: run campaigns to terminal states with everything wired.
	col1 := obs.NewCollector()
	flight1 := obs.NewFlightRecorder(obs.DefaultFlightEvents)
	rec1 := obs.Fanout(col1, flight1)
	s1, err := store.Open(storeDir, store.SegmentConfig{Obs: rec1})
	if err != nil {
		t.Fatal(err)
	}
	d1 := newTestDaemon(t, DaemonConfig{
		Workers: 2, QueueDepth: 8,
		Recorder: rec1, Store: s1, Flight: flight1,
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
	// store has all four campaigns.
	for _, c := range listCampaigns(t, base1, "?state=done") {
		if c.Converge == nil || c.Converge.TotalQueries == 0 {
			t.Errorf("campaign %d finished without a convergence summary: %+v", c.ID, c.Converge)
		}
	}
	if st := d1.StoreStats(); st.Records != 4 {
		t.Fatalf("store holds %d records after 4 terminal campaigns", st.Records)
	}

	// Pre-crash reference responses.
	wantDone := normalizeResumed(t, listCampaigns(t, base1, "?model=smallcnn&state=done&limit=2"))
	wantAgg, code := getRaw(t, base1, "/campaigns/aggregate?by=model")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/aggregate: %d: %s", code, wantAgg)
	}
	wantEvents, code := getRaw(t, base1, "/campaigns/1/events")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/1/events: %d: %s", code, wantEvents)
	}
	var batch store.EventBatch
	if err := json.Unmarshal(wantEvents, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.CampaignID != 1 || len(batch.Events) == 0 || batch.FirstNS > batch.LastNS {
		t.Fatalf("stored event batch malformed: id=%d events=%dB [%d,%d]",
			batch.CampaignID, len(batch.Events), batch.FirstNS, batch.LastNS)
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
	// served from the store — filtered, paginated, aggregated, and with the
	// stored event tails — byte-identically (modulo the Resumed mark).
	col2 := obs.NewCollector()
	rec2 := obs.Fanout(col2)
	s2, err := store.Open(storeDir, store.SegmentConfig{Obs: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d2 := newTestDaemon(t, DaemonConfig{Workers: 1, QueueDepth: 8, Recorder: rec2, Store: s2})
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
	var aggs []store.ModelAggregate
	if err := json.Unmarshal(gotAgg, &aggs); err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || aggs[0].Model != "smallcnn" || aggs[0].Campaigns != 4 ||
		aggs[0].Done != 3 || aggs[0].Failed != 1 || aggs[0].TotalQueries == 0 {
		t.Errorf("aggregate content wrong: %+v", aggs)
	}
	gotEvents, code := getRaw(t, base2, "/campaigns/1/events")
	if code != http.StatusOK {
		t.Fatalf("GET /campaigns/1/events after restart: %d", code)
	}
	if string(gotEvents) != string(wantEvents) {
		t.Errorf("stored event tail diverged across restart:\n got %s\nwant %s", gotEvents, wantEvents)
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

	// The restarted store publishes its gauges, and the read paths record
	// latency histograms on /metrics.
	metrics2 := scrapeProm(t, base2)
	if metrics2["store_records"] < 4 {
		t.Errorf("store_records after restart = %v, want >= 4", metrics2["store_records"])
	}
	if metrics2["store_read_seconds_count"] <= 0 {
		t.Errorf("store read-latency histogram missing after queried reads: %v", metrics2["store_read_seconds_count"])
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

// fixedSnapshot builds a deterministic terminal snapshot (fixed timestamps)
// for backend-comparability tests.
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

// TestBackendsServeIdenticalResponses pre-populates a memory store and a
// segment store with identical terminal campaigns, fronts each with a
// daemon+server, and requires byte-identical HTTP responses for the whole
// query matrix — listings, filters, pagination, and aggregates.
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

	mem := store.NewMemory()
	defer mem.Close()
	seg, err := store.Open(t.TempDir(), store.SegmentConfig{SegmentBytes: 2048, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for _, s := range []store.Store{mem, seg} {
		for _, snap := range snaps {
			rec, err := recordFromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.PutCampaign(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	dMem := newTestDaemon(t, DaemonConfig{Workers: 1, Store: mem})
	defer dMem.Kill()
	dSeg := newTestDaemon(t, DaemonConfig{Workers: 1, Store: seg})
	defer dSeg.Kill()
	baseMem, stopMem := startServer(t, dMem, nil)
	defer stopMem()
	baseSeg, stopSeg := startServer(t, dSeg, nil)
	defer stopSeg()

	queries := []string{
		"",
		"?state=done",
		"?state=failed",
		"?model=vggs",
		"?model=vggs&state=done",
		"?limit=4",
		"?offset=3&limit=4",
		"?offset=100",
		fmt.Sprintf("?since=%d", base.Add(6*time.Minute).UnixNano()),
		fmt.Sprintf("?state=done&since=%d&limit=2&offset=1", base.Add(3*time.Minute).UnixNano()),
	}
	for _, q := range queries {
		gotMem, codeMem := getRaw(t, baseMem, "/campaigns"+q)
		gotSeg, codeSeg := getRaw(t, baseSeg, "/campaigns"+q)
		if codeMem != http.StatusOK || codeSeg != http.StatusOK {
			t.Fatalf("GET /campaigns%s: memory %d, segment %d", q, codeMem, codeSeg)
		}
		if string(gotMem) != string(gotSeg) {
			t.Errorf("backends diverge on /campaigns%s:\n memory: %s\nsegment: %s", q, gotMem, gotSeg)
		}
		var snaps []CampaignSnapshot
		if err := json.Unmarshal(gotMem, &snaps); err != nil {
			t.Fatalf("GET /campaigns%s: %v", q, err)
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i].ID <= snaps[i-1].ID {
				t.Errorf("/campaigns%s not ascending: %d then %d", q, snaps[i-1].ID, snaps[i].ID)
			}
		}
	}
	aggMem, _ := getRaw(t, baseMem, "/campaigns/aggregate?by=model")
	aggSeg, _ := getRaw(t, baseSeg, "/campaigns/aggregate?by=model")
	if string(aggMem) != string(aggSeg) {
		t.Errorf("backends diverge on aggregate:\n memory: %s\nsegment: %s", aggMem, aggSeg)
	}
	var aggs []store.ModelAggregate
	if err := json.Unmarshal(aggMem, &aggs); err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 || aggs[0].Model != "smallcnn" || aggs[1].Model != "vggs" {
		t.Errorf("aggregate models wrong (want sorted smallcnn, vggs): %+v", aggs)
	}

	// Bad query parameters are rejected identically.
	for _, q := range []string{"?state=bogus", "?limit=x", "?limit=-2", "?offset=x", "?since=tuesday"} {
		if _, code := getRaw(t, baseMem, "/campaigns"+q); code != http.StatusBadRequest {
			t.Errorf("GET /campaigns%s = %d, want 400", q, code)
		}
	}
	if _, code := getRaw(t, baseMem, "/campaigns/aggregate?by=color"); code != http.StatusBadRequest {
		t.Errorf("aggregate?by=color accepted; want 400")
	}
	if _, code := getRaw(t, baseMem, "/campaigns/99/events"); code != http.StatusNotFound {
		t.Errorf("events for unknown campaign should 404")
	}
}

// TestRecordFromSnapshot pins the store columns extracted from snapshots
// the daemon writes: a live campaign is not finished and has no wall time,
// and a terminal one without a start time (the zero-start case) must not
// derive wall seconds from the zero time — finished.Sub(zero) is ~54 years,
// which would permanently skew the per-model p50/p95 aggregates.
func TestRecordFromSnapshot(t *testing.T) {
	fin := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	done := fixedSnapshot(1, "smallcnn", StateDone, fin, 100, true)
	zeroStart := fixedSnapshot(2, "smallcnn", StateDone, fin, 100, false)
	zeroStart.Started = nil
	running := fixedSnapshot(3, "vggs", StateRunning, fin, 7, false)
	running.Finished = nil
	for _, tc := range []struct {
		snap       CampaignSnapshot
		finishedNS int64
		wall       float64
	}{
		{done, fin.UnixNano(), 3},
		{zeroStart, fin.UnixNano(), 0},
		{running, 0, 0},
	} {
		rec, err := recordFromSnapshot(tc.snap)
		if err != nil {
			t.Fatal(err)
		}
		s := tc.snap
		if rec.ID != s.ID || rec.Model != s.Spec.Model || rec.State != s.State ||
			rec.Queries != int64(s.VictimQueries) || rec.Degraded != s.Degraded {
			t.Errorf("campaign %d: columns %+v do not match the snapshot", s.ID, rec)
		}
		if rec.FinishedNS != tc.finishedNS || rec.WallSeconds != tc.wall {
			t.Errorf("campaign %d: finished_ns %d, wall %v; want %d, %v",
				s.ID, rec.FinishedNS, rec.WallSeconds, tc.finishedNS, tc.wall)
		}
	}
}

// TestEventsQueryParams pins the /events tail-limit and since filters: ?n=
// keeps the newest n events, ?since= keeps events at or after the timestamp,
// and combined they mean "the last n since T". Malformed values are 400s.
func TestEventsQueryParams(t *testing.T) {
	flight := obs.NewFlightRecorder(64)
	for i := 0; i < 10; i++ {
		flight.Count("tick", fmt.Sprintf("i=%d", i), float64(i))
	}
	srv := NewServer(ServerOptions{Flight: flight})

	get := func(query string) ([]obs.Event, int) {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/events"+query, nil))
		if w.Code != http.StatusOK {
			return nil, w.Code
		}
		var events []obs.Event
		for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
			if line == "" {
				continue
			}
			var ev obs.Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad JSONL line %q: %v", line, err)
			}
			events = append(events, ev)
		}
		return events, w.Code
	}

	all, _ := get("")
	if len(all) != 10 {
		t.Fatalf("unfiltered /events returned %d events, want 10", len(all))
	}

	tail, _ := get("?n=3")
	if len(tail) != 3 {
		t.Fatalf("/events?n=3 returned %d events", len(tail))
	}
	if tail[0].Label != all[7].Label || tail[2].Label != all[9].Label {
		t.Errorf("?n=3 did not keep the newest 3: %+v", tail)
	}

	cut := all[6].TS
	sinceEvents, _ := get(fmt.Sprintf("?since=%d", cut))
	wantSince := 0
	for _, ev := range all {
		if ev.TS >= cut {
			wantSince++
		}
	}
	if len(sinceEvents) != wantSince {
		t.Errorf("?since=%d returned %d events, want %d", cut, len(sinceEvents), wantSince)
	}
	for _, ev := range sinceEvents {
		if ev.TS < cut {
			t.Errorf("?since returned event before the cut: %+v", ev)
		}
	}

	comb, _ := get(fmt.Sprintf("?since=%d&n=2", cut))
	if len(comb) != 2 {
		t.Errorf("?since&n=2 returned %d events", len(comb))
	}
	if len(comb) == 2 && comb[1].Label != all[9].Label {
		t.Errorf("?since&n kept the wrong tail: %+v", comb)
	}

	if huge, _ := get("?n=1000"); len(huge) != 10 {
		t.Errorf("?n beyond the ring returned %d events, want all 10", len(huge))
	}

	for _, q := range []string{"?n=x", "?n=-1", "?since=x", "?since=-5"} {
		if _, code := get(q); code != http.StatusBadRequest {
			t.Errorf("GET /events%s = %d, want 400", q, code)
		}
	}
}
