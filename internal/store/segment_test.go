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
)

// TestReopenEquivalence closes and reopens a populated log and requires the
// reopened reads to match. The history corpus also pins the shape of the
// reopened log.
func TestReopenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		fill  func(t *testing.T, l *Log)
		shape func(t *testing.T, l *Log) // nil: no shape pinned
	}{
		{"corpus", Config{SegmentBytes: 512, CompactAfter: -1},
			func(t *testing.T, l *Log) { putCorpus(t, l, testCorpus()) }, nil},
		{"history", Config{SegmentBytes: 256 << 10, CompactAfter: -1, NoSync: true},
			fillHistory, checkHistoryShape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.fill(t, l)
			want := snapshotReads(t, l)
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			l2, err := Open(dir, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := snapshotReads(t, l2); got != want {
				t.Errorf("reopen diverged:\n got %s\nwant %s", got, want)
			}
			if st := l2.Stats(); st.Segments < 2 {
				t.Errorf("%d segments: corpus too small to rotate", st.Segments)
			}
			if tc.shape != nil {
				tc.shape(t, l2)
			}
		})
	}
}

// The history corpus is 4,000 seeded terminal campaigns over five models,
// about 10% failed, with fixed finish times one second apart.
// EXPERIMENTS.md's store read-path timings were taken on it, when each
// record also carried filter columns and every hundredth campaign an event
// batch; the payloads are the same bytes. internal/telemetry's
// TestHistoryCorpusRestore draws the same corpus as daemon snapshots.
const historyCampaigns = 4000

func fillHistory(t *testing.T, l *Log) {
	t.Helper()
	models := []string{"smallcnn", "vggs", "resnet18", "alexnet", "mobilenetv2"}
	rng := rand.New(rand.NewSource(42))
	for i := 1; i <= historyCampaigns; i++ {
		model := models[rng.Intn(len(models))]
		state := "done"
		if rng.Float64() < 0.1 {
			state = "failed"
		}
		rng.Float64() // wall seconds, drawn to keep the seeded sequence
		queries := int64(200 + rng.Intn(2000))
		payload := mustJSON(t, map[string]any{
			"id": i, "spec": map[string]any{"model": model, "trials": 8, "q": 8},
			"state": state, "victim_queries": queries, "solution_count": 4,
		})
		rng.Float64() // degraded flag, drawn to keep the seeded sequence
		if err := l.Put(i, []byte(payload)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
}

// checkHistoryShape pins the reopened history log. The seeded corpus makes
// the record count deterministic, and it must be exact, because a lower
// count is a lost record; live bytes and segments may grow by at most 10%
// over the values measured when the pins were set, with filter columns and
// event batches in the log.
func checkHistoryShape(t *testing.T, l *Log) {
	t.Helper()
	st := l.Stats()
	if st.Records != historyCampaigns {
		t.Errorf("records = %d, want %d", st.Records, historyCampaigns)
	}
	if float64(st.LiveBytes) > 1.1*1_273_462 {
		t.Errorf("live bytes = %d, above its pin 1,273,462 x 1.1", st.LiveBytes)
	}
	if float64(st.Segments) > 1.1*6 {
		t.Errorf("segments = %d, above its pin 6 x 1.1", st.Segments)
	}
}

// tornLog puts five campaigns and crashes, returning the directory and its
// one segment — unsealed, the shape a killed process leaves.
func tornLog(t *testing.T) (dir, segPath string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Put(i, testPayload(i, "m", "done")); err != nil {
			t.Fatal(err)
		}
	}
	crash(l)
	logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("glob: %v (%d logs, want 1)", err, len(logs))
	}
	return dir, logs[0]
}

// TestTornTail damages the tail of an unsealed segment — the shape a crash
// mid-write leaves — and requires recovery to keep every intact record,
// count the torn one, and accept appends afterwards.
func TestTornTail(t *testing.T) {
	appendBytes := func(b []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, path string)
		kept int
	}{
		{"truncated-frame", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				t.Fatal(err)
			}
		}, 4},
		{"garbage-tail", appendBytes([]byte{0xde, 0xad, 0xbe}), 5},
		{"zero-filled-tail", appendBytes(make([]byte, 64)), 5},
		{"corrupt-crc", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0xff // flip a byte in the last frame's body
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, path := tornLog(t)
			tc.tear(t, path)

			l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer l.Close()
			if st := l.Stats(); st.TornRecords != 1 {
				t.Errorf("TornRecords = %d, want 1", st.TornRecords)
			}
			got := replayed(t, l)
			if len(got) != tc.kept {
				t.Errorf("recovered %d records, want %d", len(got), tc.kept)
			}
			for id, payload := range got {
				if payload != string(testPayload(id, "m", "done")) {
					t.Errorf("recovered record %d corrupted: %s", id, payload)
				}
			}
			// The log must still accept appends after a torn recovery.
			if err := l.Put(99, testPayload(99, "m", "done")); err != nil {
				t.Fatalf("append after torn recovery: %v", err)
			}
			if _, ok := replayed(t, l)[99]; !ok {
				t.Error("post-recovery append not replayed")
			}
		})
	}
}

// TestSealedCorruption flips one body byte in a sealed segment. Every frame
// a trailer covers was acknowledged, so Open must fail, naming the segment
// and the frame's offset, rather than drop the record as a torn tail.
func TestSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Put(i, testPayload(i, "m", "done")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("glob: %v (%d logs, want 1)", err, len(logs))
	}
	raw, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	second := int64(len(encodeFrame(mustFrameBody(t, 1))))
	raw[second+frameHeaderLen+4] ^= 0x01 // inside campaign 2's body
	if err := os.WriteFile(logs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true}); err == nil {
		l2.Close()
		t.Fatal("Open accepted a corrupt frame in a sealed segment")
	} else if want := fmt.Sprintf("%s: corrupt frame at offset %d", logs[0], second); !strings.Contains(err.Error(), want) {
		t.Errorf("Open error = %q, want it to name %q", err, want)
	}
}

// mustFrameBody is the frame body Put writes for testPayload(id, "m",
// "done") at LSN id.
func mustFrameBody(t *testing.T, id int) []byte {
	t.Helper()
	return []byte(mustJSON(t, frameRecord{LSN: uint64(id), Kind: kindCampaign,
		Campaign: &campaignRecord{ID: id, Payload: testPayload(id, "m", "done")}}))
}

// TestTornOnlySegment reproduces a crash during the very first append to a
// fresh active segment: the file the next open would name for its active
// segment exists and holds nothing but a torn frame. Recovery must drop it —
// keeping it would reuse its name, landing O_APPEND frames after the torn
// bytes while offsets count from zero, so an acknowledged append reads back
// corrupt and a restart silently loses every record in the file.
func TestTornOnlySegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Put(i, testPayload(i, "m", "done")); err != nil {
			t.Fatal(err)
		}
	}
	next := l.nextLSN
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The torn frame: a length word promising 32 body bytes, then a crash.
	torn := filepath.Join(dir, fmt.Sprintf("seg-%016d.log", next))
	if err := os.WriteFile(torn, []byte{32, 0, 0, 0, 0xde, 0xad}, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatalf("reopen over torn-only segment: %v", err)
	}
	if st := l2.Stats(); st.TornRecords != 1 {
		t.Errorf("TornRecords = %d, want 1", st.TornRecords)
	}
	if got := replayed(t, l2); len(got) != 5 {
		t.Errorf("recovered %d records, want 5", len(got))
	}
	// An acknowledged append must read back immediately...
	if err := l2.Put(99, testPayload(99, "m", "done")); err != nil {
		t.Fatal(err)
	}
	if _, ok := replayed(t, l2)[99]; !ok {
		t.Fatal("append after torn-only recovery not replayed")
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...and survive a restart of the same directory.
	l3, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got := replayed(t, l3)
	if len(got) != 6 {
		t.Errorf("restart lost acknowledged records: %d, want 6", len(got))
	}
	if got[99] != string(testPayload(99, "m", "done")) {
		t.Errorf("acknowledged record lost across restart: %q", got[99])
	}
}

// TestFailedAppendSealsActive exercises the failed-write recovery path: a
// partial frame lands at the active segment's tail (what an interrupted
// Write leaves), failActiveLocked runs, and the log must keep accepting
// appends whose records replay and survive a restart — the sealed segment's
// trailer covers only the acknowledged frames.
func TestFailedAppendSealsActive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := l.Put(i, testPayload(i, "m", "done")); err != nil {
			t.Fatal(err)
		}
	}
	l.mu.Lock()
	if _, err := l.activeW.Write([]byte{32, 0, 0, 0, 0xde, 0xad}); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	segsBefore := len(l.segs)
	l.failActiveLocked()
	if l.activeW == nil {
		l.mu.Unlock()
		t.Fatal("failActiveLocked left no active write handle")
	}
	if len(l.segs) != segsBefore+1 {
		l.mu.Unlock()
		t.Fatalf("failActiveLocked did not open a fresh segment: %d segs, want %d", len(l.segs), segsBefore+1)
	}
	l.mu.Unlock()

	// Appends after the failure land in the fresh segment and replay.
	if err := l.Put(4, testPayload(4, "m", "done")); err != nil {
		t.Fatalf("append after failed-write recovery: %v", err)
	}
	if got := replayed(t, l); len(got) != 4 {
		t.Errorf("%d records live, want 4", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatalf("reopen after failed-write recovery: %v", err)
	}
	defer l2.Close()
	got := replayed(t, l2)
	if len(got) != 4 {
		t.Errorf("restart lost records written after a failed append: %d, want 4", len(got))
	}
	for id, payload := range got {
		if payload != string(testPayload(id, "m", "done")) {
			t.Errorf("record %d corrupted across restart: %s", id, payload)
		}
	}
	if st := l2.Stats(); st.TornRecords != 0 {
		t.Errorf("TornRecords = %d, want 0: the trailer excludes the partial frame", st.TornRecords)
	}
}

// TestCompaction drives an explicit pass over a log with superseded
// records: reads must be unchanged, the segment count must drop, and the
// dropped-record accounting must add up.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs := testCorpus()
	putCorpus(t, l, recs)
	// Supersede a third of the corpus so compaction has records to drop.
	for _, rec := range recs {
		if rec.id%3 == 0 {
			if err := l.Put(rec.id, testPayload(rec.id, "m", "superseded")); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := snapshotReads(t, l)
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("corpus spans %d segments, too few to exercise a merge", before.Segments)
	}

	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
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
	if got := snapshotReads(t, l); got != want {
		t.Errorf("compaction changed reads:\n got %s\nwant %s", got, want)
	}

	// And the compacted log must reopen to the same state.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Config{SegmentBytes: 512, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := snapshotReads(t, l2); got != want {
		t.Errorf("post-compaction reopen diverged:\n got %s\nwant %s", got, want)
	}
}

// TestBackgroundCompaction lets rotation trigger the compactor and waits for
// a pass to land.
func TestBackgroundCompaction(t *testing.T) {
	l := newLog(t, Config{SegmentBytes: 512, CompactAfter: 2})
	putCorpus(t, l, testCorpus())
	// The compactor runs asynchronously; Compact() serializes behind any
	// in-flight pass via l.mu, so one explicit call flushes the backlog.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions == 0 {
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
			cfg := Config{SegmentBytes: 512, CompactAfter: -1}
			cfg.compactHook = func(got string) bool { return got != stage }
			l, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			recs := testCorpus()
			putCorpus(t, l, recs)
			for _, rec := range recs { // supersede everything once
				if err := l.Put(rec.id, testPayload(rec.id, "m", "superseded")); err != nil {
					t.Fatal(err)
				}
			}
			want := snapshotReads(t, l)

			if err := l.Compact(); err != nil {
				t.Fatalf("aborted Compact returned error: %v", err)
			}
			// The aborted pass must not have perturbed the running log's
			// reads (old file handles keep serving even renamed-over inputs).
			if got := snapshotReads(t, l); got != want {
				t.Errorf("aborted compaction changed live reads:\n got %s\nwant %s", got, want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Config{SegmentBytes: 512, CompactAfter: -1})
			if err != nil {
				t.Fatalf("reopen after simulated crash: %v", err)
			}
			defer l2.Close()
			if got := snapshotReads(t, l2); got != want {
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
			if err := l2.Compact(); err != nil {
				t.Fatalf("compaction after crash recovery: %v", err)
			}
			if got := snapshotReads(t, l2); got != want {
				t.Errorf("post-recovery compaction diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestEmptySegmentCleanup reopens an untouched log repeatedly: empty active
// segments from prior opens must be dropped, not accumulate.
func TestEmptySegmentCleanup(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		l, err := Open(dir, Config{CompactAfter: -1})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := l.Put(1, testPayload(1, "m", "done")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
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
	l, err := Open(dir, Config{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := replayed(t, l); len(got) != 1 {
		t.Errorf("record lost across reopens: %d records", len(got))
	}
}

// TestConcurrentReadWrite hammers the log from writers, readers and the
// background compactor at once; run under -race this is the log's
// data-race check.
func TestConcurrentReadWrite(t *testing.T) {
	l := newLog(t, Config{SegmentBytes: 2048, CompactAfter: 2, NoSync: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := w*100 + i
				if err := l.Put(id, testPayload(id, "m", "done")); err != nil {
					t.Errorf("Put(%d): %v", id, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if err := l.Replay(func(int, json.RawMessage) error { return nil }); err != nil {
					t.Errorf("Replay: %v", err)
					return
				}
				l.Stats()
			}
		}()
	}
	wg.Wait()
	if got := replayed(t, l); len(got) != 200 {
		t.Errorf("lost writes under concurrency: %d records, want 200", len(got))
	}
}
