package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// testPayload is one campaign's compact JSON payload.
func testPayload(id int, model, state string) json.RawMessage {
	payload, err := json.Marshal(map[string]any{"id": id, "model": model, "state": state})
	if err != nil {
		panic(err)
	}
	return payload
}

// testRecord is one campaign state to put.
type testRecord struct {
	id      int
	payload json.RawMessage
}

// testCorpus is a fixed set of 30 campaign states over three models and
// both terminal states.
func testCorpus() []testRecord {
	models := []string{"smallcnn", "lenet5", "vgg11"}
	recs := make([]testRecord, 0, 30)
	for i := 1; i <= 30; i++ {
		state := "done"
		if i%5 == 0 {
			state = "failed"
		}
		recs = append(recs, testRecord{i, testPayload(i, models[i%3], state)})
	}
	return recs
}

// putCorpus puts the corpus.
func putCorpus(t *testing.T, l *Log, recs []testRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := l.Put(rec.id, rec.payload); err != nil {
			t.Fatalf("Put(%d): %v", rec.id, err)
		}
	}
}

// replayed returns the latest payload per campaign ID as Replay serves it.
func replayed(t *testing.T, l *Log) map[int]string {
	t.Helper()
	out := map[int]string{}
	last := -1
	if err := l.Replay(func(id int, payload json.RawMessage) error {
		if id <= last {
			t.Errorf("Replay not in ascending ID order: %d after %d", id, last)
		}
		last = id
		out[id] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// snapshotReads captures everything a log serves — every replayed payload —
// as one comparable JSON string.
func snapshotReads(t *testing.T, l *Log) string {
	t.Helper()
	return mustJSON(t, replayed(t, l))
}

// mustJSON marshals for byte comparison.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(raw)
}

// newLog opens a log in a temp dir with small segments so tests exercise
// rotation, and registers cleanup.
func newLog(t *testing.T, cfg Config) *Log {
	t.Helper()
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 512 // rotate often: the corpus spans many segments
	}
	if cfg.CompactAfter == 0 {
		cfg.CompactAfter = -1 // tests drive compaction explicitly
	}
	l, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// crash releases a log's handles without sealing its active segment,
// leaving the files as a killed process would.
func crash(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.activeW != nil {
		l.activeW.Close()
		l.activeW = nil
	}
	l.closeFiles()
}

// TestSupersedence re-puts records under existing IDs: only the latest
// version is served — by the open log's in-memory index, and by a
// log reopened from the segment files — and the live-record count does not
// grow.
func TestSupersedence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	second := testPayload(7, "smallcnn", "done")
	for _, payload := range []json.RawMessage{testPayload(7, "smallcnn", "failed"), second} {
		if err := l.Put(7, payload); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, l *Log) {
		if got := replayed(t, l); len(got) != 1 || got[7] != string(second) {
			t.Errorf("Replay served a superseded record: %v", got)
		}
		if st := l.Stats(); st.Records != 1 {
			t.Errorf("Stats.Records = %d, want 1", st.Records)
		}
	}
	t.Run("memory", func(t *testing.T) { check(t, l) })
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	t.Run("segment", func(t *testing.T) { check(t, l2) })
}

// TestClosedStore closes a log: every later operation on it fails with
// errClosed, and the segment it was appending to is sealed on disk and
// reopens with its record.
func TestClosedStore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Put(1, testPayload(1, "m", "done")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	t.Run("memory", func(t *testing.T) {
		if err := l.Put(2, testPayload(2, "m", "done")); err != errClosed {
			t.Errorf("Put after close: %v, want errClosed", err)
		}
		if err := l.Replay(func(int, json.RawMessage) error { return nil }); err != errClosed {
			t.Errorf("Replay after close: %v, want errClosed", err)
		}
		if err := l.Compact(); err != errClosed {
			t.Errorf("Compact after close: %v, want errClosed", err)
		}
		if err := l.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
	})
	t.Run("segment", func(t *testing.T) {
		logs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		if err != nil || len(logs) != 1 {
			t.Fatalf("glob: %v (%d logs, want 1)", err, len(logs))
		}
		raw, err := os.ReadFile(logs[0])
		if err != nil {
			t.Fatal(err)
		}
		if n := len(raw) - trailerLen; n <= 0 || !bytes.Equal(raw[n:], trailer(int64(n))) {
			t.Errorf("closed segment does not end with the trailer covering its frames")
		}
		l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if got := replayed(t, l2); len(got) != 1 || got[1] != string(testPayload(1, "m", "done")) {
			t.Errorf("reopened log replayed %v, want campaign 1", got)
		}
	})
}

// TestOlderBuildLog opens a directory in the format older builds wrote:
// campaign frames carrying filter columns beside the payload, a frame of the
// retired events kind, no trailer, a sidecar index, and a campaign's
// flight-recorder tail in its own file. Every campaign must replay under its
// ID with its latest payload, the events frame must be ignored, the sidecar
// and the event file removed, and compaction must drop the dead frames.
func TestOlderBuildLog(t *testing.T) {
	dir := t.TempDir()
	frames := []string{
		`{"lsn":1,"kind":"campaign","campaign":{"id":1,"model":"smallcnn","state":"queued","finished_ns":0,"wall_seconds":0,"queries":0,"degraded":false,"payload":{"id":1,"state":"queued"}}}`,
		`{"lsn":2,"kind":"campaign","campaign":{"id":2,"model":"vggs","state":"queued","finished_ns":0,"wall_seconds":0,"queries":0,"degraded":false,"payload":{"id":2,"state":"queued"}}}`,
		`{"lsn":3,"kind":"campaign","campaign":{"id":1,"model":"smallcnn","state":"done","finished_ns":5,"wall_seconds":1.5,"queries":40,"degraded":true,"payload":{"id":1,"state":"done"}}}`,
		`{"lsn":4,"kind":"events","events":{"campaign_id":1,"first_ns":1,"last_ns":5,"events":[{"name":"x"}]}}`,
	}
	var raw []byte
	for _, body := range frames {
		raw = append(raw, encodeFrame([]byte(body))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-0000000000000001.log"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "seg-0000000000000001.idx")
	if err := os.WriteFile(idx, []byte(`{"bytes":1,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	events := filepath.Join(dir, "events-1.json")
	if err := os.WriteFile(events, []byte(`{"campaign_id":1,"first_ns":1,"last_ns":5,"events":[{"name":"x"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{1: `{"id":1,"state":"done"}`, 2: `{"id":2,"state":"queued"}`}
	if got := replayed(t, l); mustJSON(t, got) != mustJSON(t, want) {
		t.Errorf("older log replayed %v, want %v", got, want)
	}
	if _, err := os.Stat(idx); !os.IsNotExist(err) {
		t.Errorf("sidecar index survived Open: %v", err)
	}
	if _, err := os.Stat(events); !os.IsNotExist(err) {
		t.Errorf("event file survived Open: %v", err)
	}
	if st := l.Stats(); st.TornRecords != 0 || st.Records != 2 {
		t.Errorf("stats after open = %+v, want 2 records and nothing torn", st)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.CompactedRecords != 2 {
		t.Errorf("compaction dropped %d records, want the superseded one and the events frame", st.CompactedRecords)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Config{CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := replayed(t, l2); mustJSON(t, got) != mustJSON(t, want) {
		t.Errorf("compacted older log replayed %v, want %v", got, want)
	}
}
