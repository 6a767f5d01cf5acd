package store

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// snapshotReads captures everything a store serves — the full listing, the
// aggregate, and every event batch — as one comparable JSON string.
func snapshotReads(t *testing.T, s Store) string {
	t.Helper()
	recs, err := s.Campaigns(Query{})
	if err != nil {
		t.Fatalf("Campaigns: %v", err)
	}
	aggs, err := s.AggregateByModel()
	if err != nil {
		t.Fatalf("AggregateByModel: %v", err)
	}
	events := map[int]EventBatch{}
	for _, rec := range recs {
		if b, ok, err := s.Events(rec.ID); err != nil {
			t.Fatalf("Events(%d): %v", rec.ID, err)
		} else if ok {
			events[rec.ID] = b
		}
	}
	return mustJSON(t, map[string]any{"recs": recs, "aggs": aggs, "events": events})
}

// TestReopenEquivalence closes and reopens a populated store and requires the
// reopened reads to match, both via sidecar indexes and — with the sidecars
// deleted — via full frame rescans. The history corpus also pins the shape
// of the reopened store.
func TestReopenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   SegmentConfig
		fill  func(t *testing.T, s Store)
		shape func(t *testing.T, s *Segment) // nil: no shape pinned
	}{
		{"corpus", SegmentConfig{SegmentBytes: 512, CompactAfter: -1},
			func(t *testing.T, s Store) { fillStore(t, s, testCorpus()) }, nil},
		{"history", SegmentConfig{SegmentBytes: 256 << 10, CompactAfter: -1, NoSync: true},
			fillHistory, checkHistoryShape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.fill(t, s)
			want := snapshotReads(t, s)
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			s2, err := Open(dir, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotReads(t, s2); got != want {
				t.Errorf("reopen via sidecars diverged:\n got %s\nwant %s", got, want)
			}
			if tc.shape != nil {
				tc.shape(t, s2)
			}
			s2.Close()

			// Delete every sidecar: recovery must rescan frames and converge
			// to the same state, rewriting the sidecars as it goes.
			idxs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
			if err != nil {
				t.Fatal(err)
			}
			if len(idxs) == 0 {
				t.Fatal("no sidecars on disk; test corpus too small to rotate")
			}
			for _, p := range idxs {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
			s3, err := Open(dir, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if got := snapshotReads(t, s3); got != want {
				t.Errorf("reopen via frame rescan diverged:\n got %s\nwant %s", got, want)
			}
			rewritten, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
			if err != nil {
				t.Fatal(err)
			}
			// One sidecar belonged to s2's empty active segment, which the
			// reopen deletes rather than rescans.
			if len(rewritten) < len(idxs)-1 {
				t.Errorf("rescan rewrote %d sidecars, want >= %d", len(rewritten), len(idxs)-1)
			}
		})
	}
}

// The history corpus is 4,000 seeded terminal campaigns over five models,
// about 10% failed, with fixed finish times one second apart from
// historyBaseNS and one event batch per 100 campaigns. EXPERIMENTS.md's
// store read-path timings were taken on it.
const (
	historyCampaigns = 4000
	historyBaseNS    = int64(1_760_000_000_000_000_000)
)

func fillHistory(t *testing.T, s Store) {
	t.Helper()
	models := []string{"smallcnn", "vggs", "resnet18", "alexnet", "mobilenetv2"}
	rng := rand.New(rand.NewSource(42))
	for i := 1; i <= historyCampaigns; i++ {
		model := models[rng.Intn(len(models))]
		state := "done"
		if rng.Float64() < 0.1 {
			state = "failed"
		}
		finished := historyBaseNS + int64(i)*int64(time.Second)
		wall := 1 + 30*rng.Float64()
		queries := int64(200 + rng.Intn(2000))
		payload := mustJSON(t, map[string]any{
			"id": i, "spec": map[string]any{"model": model, "trials": 8, "q": 8},
			"state": state, "victim_queries": queries, "solution_count": 4,
		})
		rec := CampaignRecord{
			ID: i, Model: model, State: state,
			FinishedNS: finished, WallSeconds: wall,
			Queries: queries, Degraded: rng.Float64() < 0.05,
			Payload: json.RawMessage(payload),
		}
		if err := s.PutCampaign(rec); err != nil {
			t.Fatalf("PutCampaign(%d): %v", i, err)
		}
		if i%100 == 0 {
			events := mustJSON(t, []map[string]any{
				{"ts": finished - int64(time.Second), "kind": "count", "name": "probe.runs", "value": 1},
				{"ts": finished, "kind": "gauge", "name": "converge.log10_volume", "value": 3.5},
			})
			batch := EventBatch{
				CampaignID: i, FirstNS: finished - int64(time.Second), LastNS: finished,
				Events: json.RawMessage(events),
			}
			if err := s.PutEvents(batch); err != nil {
				t.Fatalf("PutEvents(%d): %v", i, err)
			}
		}
	}
}

// checkHistoryShape pins the reopened history store. The seeded corpus makes
// every count deterministic: record, scan-match and model counts must be
// exact, because a lower count is a lost or misfiltered record, while live
// bytes and segments may grow by at most 10% over the values measured when
// the pins were set.
func checkHistoryShape(t *testing.T, s *Segment) {
	t.Helper()
	st := s.Stats()
	if st.Records != historyCampaigns {
		t.Errorf("records = %d, want %d", st.Records, historyCampaigns)
	}
	// The GET /campaigns shape: one model, done only, newest quarter.
	matches, err := s.Campaigns(Query{
		Model: "smallcnn", State: "done",
		SinceNS: historyBaseNS + historyCampaigns*3/4*int64(time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 210 {
		t.Errorf("scan matches = %d, want 210", len(matches))
	}
	aggs, err := s.AggregateByModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 5 {
		t.Errorf("aggregate models = %d, want 5", len(aggs))
	}
	if float64(st.LiveBytes) > 1.1*1_273_462 {
		t.Errorf("live bytes = %d, above its pin 1,273,462 x 1.1", st.LiveBytes)
	}
	if float64(st.Segments) > 1.1*6 {
		t.Errorf("segments = %d, above its pin 6 x 1.1", st.Segments)
	}
}

// TestTornTail appends garbage to the newest sealed segment — the shape a
// crash mid-write leaves — and requires recovery to keep every intact record,
// count the torn one, and accept appends afterwards.
func TestTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"truncated-frame", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage-tail", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-crc", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xff // flip a byte in the last frame's body
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, SegmentConfig{SegmentBytes: 1 << 20, CompactAfter: -1, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				if err := s.PutCampaign(testRec(i, "m", "done", int64(i), 1, 1, false)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
			if err != nil || len(logs) == 0 {
				t.Fatalf("glob: %v (%d logs)", err, len(logs))
			}
			target := logs[len(logs)-1]
			tc.tear(t, target)
			// The sidecar predates the tear only in the garbage-tail case; drop
			// it so recovery must judge the frames themselves.
			os.Remove(strings.TrimSuffix(target, ".log") + ".idx")

			s2, err := Open(dir, SegmentConfig{SegmentBytes: 1 << 20, CompactAfter: -1, NoSync: true})
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer s2.Close()
			st := s2.Stats()
			if st.TornRecords != 1 {
				t.Errorf("TornRecords = %d, want 1", st.TornRecords)
			}
			wantRecords := 5
			if tc.name != "garbage-tail" {
				wantRecords = 4 // the last frame itself was destroyed
			}
			recs, err := s2.Campaigns(Query{})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != wantRecords {
				t.Errorf("recovered %d records, want %d", len(recs), wantRecords)
			}
			for _, rec := range recs {
				if rec.Model != "m" || rec.State != "done" {
					t.Errorf("recovered record corrupted: %+v", rec)
				}
			}
			// The store must still accept appends after a torn recovery.
			if err := s2.PutCampaign(testRec(99, "m", "done", 99, 1, 1, false)); err != nil {
				t.Fatalf("append after torn recovery: %v", err)
			}
			if got, ok, err := s2.Campaign(99); err != nil || !ok || got.ID != 99 {
				t.Errorf("post-recovery append unreadable: ok=%v err=%v rec=%+v", ok, err, got)
			}
		})
	}
}

// TestTornOnlySegment reproduces a crash during the very first append to a
// fresh active segment: the file the next open would name for its active
// segment exists and holds nothing but a torn frame. Recovery must drop it —
// keeping it would reuse its name, landing O_APPEND frames after the torn
// bytes while offsets count from zero, so an acknowledged append reads back
// corrupt and a restart silently loses every record in the file.
func TestTornOnlySegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SegmentConfig{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := s.PutCampaign(testRec(i, "m", "done", int64(i), 1, 1, false)); err != nil {
			t.Fatal(err)
		}
	}
	next := s.nextLSN
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn frame: a length word promising 32 body bytes, then a crash.
	torn := filepath.Join(dir, fmt.Sprintf("seg-%016d.log", next))
	if err := os.WriteFile(torn, []byte{32, 0, 0, 0, 0xde, 0xad}, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SegmentConfig{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatalf("reopen over torn-only segment: %v", err)
	}
	if st := s2.Stats(); st.TornRecords != 1 {
		t.Errorf("TornRecords = %d, want 1", st.TornRecords)
	}
	recs, err := s2.Campaigns(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("recovered %d records, want 5", len(recs))
	}
	// An acknowledged append must read back immediately...
	if err := s2.PutCampaign(testRec(99, "m", "done", 99, 1, 1, false)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Campaign(99); err != nil || !ok || got.ID != 99 {
		t.Fatalf("append after torn-only recovery unreadable: ok=%v err=%v rec=%+v", ok, err, got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and survive a restart of the same directory.
	s3, err := Open(dir, SegmentConfig{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	recs, err = s3.Campaigns(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Errorf("restart lost acknowledged records: %d, want 6", len(recs))
	}
	if got, ok, err := s3.Campaign(99); err != nil || !ok || got.ID != 99 {
		t.Errorf("acknowledged record lost across restart: ok=%v err=%v rec=%+v", ok, err, got)
	}
}

// TestFailedAppendSealsActive exercises the failed-write recovery path: a
// partial frame lands at the active segment's tail (what an interrupted
// Write leaves), failActiveLocked runs, and the store must keep accepting
// appends whose records read back live and survive a restart — the sealed
// segment's sidecar covers only the valid prefix.
func TestFailedAppendSealsActive(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SegmentConfig{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.PutCampaign(testRec(i, "m", "done", int64(i), 1, 1, false)); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	if _, err := s.activeW.Write([]byte{32, 0, 0, 0, 0xde, 0xad}); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	segsBefore := len(s.segs)
	s.failActiveLocked()
	if s.activeW == nil {
		s.mu.Unlock()
		t.Fatal("failActiveLocked left no active write handle")
	}
	if len(s.segs) != segsBefore+1 {
		s.mu.Unlock()
		t.Fatalf("failActiveLocked did not open a fresh segment: %d segs, want %d", len(s.segs), segsBefore+1)
	}
	s.mu.Unlock()

	// Appends after the failure land in the fresh segment and read back.
	if err := s.PutCampaign(testRec(4, "m", "done", 4, 1, 1, false)); err != nil {
		t.Fatalf("append after failed-write recovery: %v", err)
	}
	if got, ok, err := s.Campaign(4); err != nil || !ok || got.ID != 4 {
		t.Fatalf("post-failure append unreadable: ok=%v err=%v rec=%+v", ok, err, got)
	}
	recs, err := s.Campaigns(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("%d records live, want 4", len(recs))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SegmentConfig{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatalf("reopen after failed-write recovery: %v", err)
	}
	defer s2.Close()
	recs, err = s2.Campaigns(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Errorf("restart lost records written after a failed append: %d, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.Model != "m" || rec.State != "done" {
			t.Errorf("record corrupted across restart: %+v", rec)
		}
	}
}

// TestStaleSidecarRescan corrupts a sidecar (and separately leaves one whose
// size mismatches) and requires recovery to ignore it and rescan.
func TestStaleSidecarRescan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, testCorpus())
	want := snapshotReads(t, s)
	s.Close()

	idxs, err := filepath.Glob(filepath.Join(dir, "seg-*.idx"))
	if err != nil || len(idxs) < 2 {
		t.Fatalf("need >=2 sidecars, got %d (err %v)", len(idxs), err)
	}
	// One sidecar is syntactic garbage; another lies about the log size.
	if err := os.WriteFile(idxs[0], []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sc sidecar
	raw, err := os.ReadFile(idxs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	sc.Bytes += 7
	raw, err = json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshotReads(t, s2); got != want {
		t.Errorf("recovery trusted a stale sidecar:\n got %s\nwant %s", got, want)
	}
}

// TestCompaction drives an explicit pass over a store with superseded
// records: reads must be unchanged, the segment count must drop, and the
// dropped-record accounting must add up.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := testCorpus()
	fillStore(t, s, recs)
	// Supersede a third of the corpus so compaction has records to drop.
	for _, rec := range recs {
		if rec.ID%3 == 0 {
			rec.WallSeconds += 100
			rec.Degraded = true
			if err := s.PutCampaign(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := snapshotReads(t, s)
	before := s.Stats()
	if before.Segments < 3 {
		t.Fatalf("corpus spans %d segments, too few to exercise a merge", before.Segments)
	}

	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Segments != 2 { // merged + active
		t.Errorf("Segments = %d after compaction, want 2", after.Segments)
	}
	if after.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1", after.Compactions)
	}
	if after.CompactedRecords == 0 {
		t.Error("CompactedRecords = 0, want > 0: corpus had superseded records")
	}
	if after.LiveBytes >= before.LiveBytes {
		t.Errorf("LiveBytes did not shrink: %d -> %d", before.LiveBytes, after.LiveBytes)
	}
	if got := snapshotReads(t, s); got != want {
		t.Errorf("compaction changed reads:\n got %s\nwant %s", got, want)
	}

	// And the compacted store must reopen to the same state.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := snapshotReads(t, s2); got != want {
		t.Errorf("post-compaction reopen diverged:\n got %s\nwant %s", got, want)
	}
}

// TestBackgroundCompaction lets rotation trigger the compactor and waits for
// a pass to land.
func TestBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fillStore(t, s, testCorpus())
	// The compactor runs asynchronously; Compact() serializes behind any
	// in-flight pass via s.mu, so one explicit call flushes the backlog.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Compactions == 0 {
		t.Error("no compaction pass ran despite CompactAfter=2 and many rotations")
	} else if st.Segments > 3 {
		t.Errorf("Segments = %d after compaction flush, want <= 3", st.Segments)
	}
}

// TestKillMidCompaction aborts a compaction pass at each crash window and
// requires a reopen of the directory to serve exactly the pre-compaction
// contents.
func TestKillMidCompaction(t *testing.T) {
	for _, stage := range []string{"merged-written", "renamed", "reopened"} {
		t.Run(stage, func(t *testing.T) {
			dir := t.TempDir()
			cfg := SegmentConfig{SegmentBytes: 512, CompactAfter: -1}
			cfg.compactHook = func(got string) bool { return got != stage }
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := testCorpus()
			fillStore(t, s, recs)
			for _, rec := range recs { // supersede everything once
				rec.Queries++
				if err := s.PutCampaign(rec); err != nil {
					t.Fatal(err)
				}
			}
			want := snapshotReads(t, s)

			if err := s.Compact(); err != nil {
				t.Fatalf("aborted Compact returned error: %v", err)
			}
			// The aborted pass must not have perturbed the running store's
			// reads (old file handles keep serving even renamed-over inputs).
			if got := snapshotReads(t, s); got != want {
				t.Errorf("aborted compaction changed live reads:\n got %s\nwant %s", got, want)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, SegmentConfig{SegmentBytes: 512, CompactAfter: -1})
			if err != nil {
				t.Fatalf("reopen after simulated crash: %v", err)
			}
			defer s2.Close()
			if got := snapshotReads(t, s2); got != want {
				t.Errorf("crash at %q lost or duplicated records:\n got %s\nwant %s", stage, got, want)
			}
			// No .tmp leftovers may survive the reopen.
			tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			if len(tmps) != 0 {
				t.Errorf("leftover tmp files after recovery: %v", tmps)
			}
			// And the next compaction over the recovered state must succeed.
			if err := s2.Compact(); err != nil {
				t.Fatalf("compaction after crash recovery: %v", err)
			}
			if got := snapshotReads(t, s2); got != want {
				t.Errorf("post-recovery compaction diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestEmptySegmentCleanup reopens an untouched store repeatedly: empty active
// segments from prior opens must be dropped, not accumulate.
func TestEmptySegmentCleanup(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		s, err := Open(dir, SegmentConfig{CompactAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := s.PutCampaign(testRec(1, "m", "done", 1, 1, 1, false)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	// One sealed segment with the record, plus at most the final open's
	// (empty, just-created) active segment left behind by Close.
	if len(logs) > 2 {
		t.Errorf("%d segment files after 4 reopens, want <= 2: %v", len(logs), logs)
	}
	s, err := Open(dir, SegmentConfig{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if recs, err := s.Campaigns(Query{}); err != nil || len(recs) != 1 {
		t.Errorf("record lost across reopens: %d recs, err %v", len(recs), err)
	}
}

// TestConcurrentReadWrite hammers the store from writers and readers at once;
// run under -race this is the store's data-race check.
func TestConcurrentReadWrite(t *testing.T) {
	s := newSegmentStore(t, SegmentConfig{SegmentBytes: 2048, CompactAfter: 2, NoSync: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := w*100 + i
				if err := s.PutCampaign(testRec(id, "m", "done", int64(id), 1, 1, false)); err != nil {
					t.Errorf("PutCampaign(%d): %v", id, err)
					return
				}
				if id%5 == 0 {
					if err := s.PutEvents(EventBatch{CampaignID: id, Events: json.RawMessage(`[]`)}); err != nil {
						t.Errorf("PutEvents(%d): %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := s.Campaigns(Query{Model: "m", Limit: 10}); err != nil {
					t.Errorf("Campaigns: %v", err)
					return
				}
				if _, err := s.AggregateByModel(); err != nil {
					t.Errorf("AggregateByModel: %v", err)
					return
				}
				s.Stats()
			}
		}()
	}
	wg.Wait()
	recs, err := s.Campaigns(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Errorf("lost writes under concurrency: %d records, want 200", len(recs))
	}
}
