package store

import (
	"encoding/json"
	"fmt"
	"testing"
)

// testRec builds one campaign record with a compact JSON payload (compact so
// both backends return byte-identical payloads).
func testRec(id int, model, state string, fin int64, wall float64, q int64, degraded bool) CampaignRecord {
	payload, err := json.Marshal(map[string]any{"id": id, "model": model, "state": state})
	if err != nil {
		panic(err)
	}
	return CampaignRecord{
		ID: id, Model: model, State: state,
		FinishedNS: fin, WallSeconds: wall, Queries: q, Degraded: degraded,
		Payload: payload,
	}
}

// testCorpus is a fixed record set exercising every filter column: three
// models, both terminal states, degraded flags, and a spread of finish times.
func testCorpus() []CampaignRecord {
	models := []string{"smallcnn", "lenet5", "vgg11"}
	recs := make([]CampaignRecord, 0, 30)
	for i := 1; i <= 30; i++ {
		state := "done"
		if i%5 == 0 {
			state = "failed"
		}
		recs = append(recs, testRec(
			i, models[i%3], state,
			int64(1_000+10*i), float64(i)*0.25, int64(100*i), i%7 == 0,
		))
	}
	return recs
}

// testQueries is the query matrix the conformance tests run: every filter
// alone, combined, and paginated windows including out-of-range ones.
func testQueries() []Query {
	return []Query{
		{},
		{State: "done"},
		{State: "failed"},
		{Model: "lenet5"},
		{Model: "nosuch"},
		{SinceNS: 1_150},
		{State: "done", Model: "smallcnn"},
		{State: "done", Model: "vgg11", SinceNS: 1_100},
		{Limit: 5},
		{Offset: 3, Limit: 5},
		{Offset: 28, Limit: 10},
		{Offset: 100},
		{State: "done", Limit: 4, Offset: 2},
	}
}

// fillStore inserts the corpus plus one event batch per third campaign.
func fillStore(t *testing.T, s Store, recs []CampaignRecord) {
	t.Helper()
	for _, rec := range recs {
		if err := s.PutCampaign(rec); err != nil {
			t.Fatalf("PutCampaign(%d): %v", rec.ID, err)
		}
		if rec.ID%3 == 0 {
			ev := json.RawMessage(fmt.Sprintf(`[{"name":"probe","campaign":%d}]`, rec.ID))
			batch := EventBatch{CampaignID: rec.ID, FirstNS: rec.FinishedNS - 5, LastNS: rec.FinishedNS, Events: ev}
			if err := s.PutEvents(batch); err != nil {
				t.Fatalf("PutEvents(%d): %v", rec.ID, err)
			}
		}
	}
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

// newSegmentStore opens a segment store in a temp dir with small segments so
// tests exercise rotation, and registers cleanup.
func newSegmentStore(t *testing.T, cfg SegmentConfig) *Segment {
	t.Helper()
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 512 // rotate often: the corpus spans many segments
	}
	if cfg.CompactAfter == 0 {
		cfg.CompactAfter = -1 // tests drive compaction explicitly
	}
	s, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestBackendConformance runs the same query matrix against both backends
// over the same contents and requires byte-identical results: listings,
// point lookups, aggregates, and event batches. The contents include a
// queued and a running campaign, which must leave the aggregate and the
// done listing exactly as the terminal corpus alone gives them.
func TestBackendConformance(t *testing.T) {
	recs := testCorpus()
	terminal := NewMemory()
	defer terminal.Close()
	fillStore(t, terminal, recs)
	wantAgg, err := terminal.AggregateByModel()
	if err != nil {
		t.Fatal(err)
	}
	wantDone, err := terminal.Campaigns(Query{State: "done"})
	if err != nil {
		t.Fatal(err)
	}

	recs = append(recs, testRec(31, "smallcnn", "queued", 0, 0, 0, false), testRec(32, "lenet5", "running", 0, 0, 0, false))
	mem := NewMemory()
	defer mem.Close()
	seg := newSegmentStore(t, SegmentConfig{})
	fillStore(t, mem, recs)
	fillStore(t, seg, recs)
	for _, b := range []struct {
		name string
		s    Store
	}{{"memory", mem}, {"segment", seg}} {
		name, s := b.name, b.s
		agg, err := s.AggregateByModel()
		if err != nil {
			t.Fatalf("%s AggregateByModel: %v", name, err)
		}
		if a, b := mustJSON(t, agg), mustJSON(t, wantAgg); a != b {
			t.Errorf("%s: non-terminal campaigns changed the aggregate:\n got %s\nwant %s", name, a, b)
		}
		done, err := s.Campaigns(Query{State: "done"})
		if err != nil {
			t.Fatalf("%s Campaigns: %v", name, err)
		}
		if a, b := mustJSON(t, done), mustJSON(t, wantDone); a != b {
			t.Errorf("%s: non-terminal campaigns changed the done listing:\n got %s\nwant %s", name, a, b)
		}
	}

	for _, q := range testQueries() {
		memOut, err := mem.Campaigns(q)
		if err != nil {
			t.Fatalf("memory Campaigns(%+v): %v", q, err)
		}
		segOut, err := seg.Campaigns(q)
		if err != nil {
			t.Fatalf("segment Campaigns(%+v): %v", q, err)
		}
		if a, b := mustJSON(t, memOut), mustJSON(t, segOut); a != b {
			t.Errorf("Campaigns(%+v) differ:\n memory: %s\nsegment: %s", q, a, b)
		}
		for i := 1; i < len(memOut); i++ {
			if memOut[i].ID <= memOut[i-1].ID {
				t.Errorf("Campaigns(%+v) not ascending at %d: %d then %d", q, i, memOut[i-1].ID, memOut[i].ID)
			}
		}
	}

	memAgg, err := mem.AggregateByModel()
	if err != nil {
		t.Fatalf("memory AggregateByModel: %v", err)
	}
	segAgg, err := seg.AggregateByModel()
	if err != nil {
		t.Fatalf("segment AggregateByModel: %v", err)
	}
	if a, b := mustJSON(t, memAgg), mustJSON(t, segAgg); a != b {
		t.Errorf("aggregates differ:\n memory: %s\nsegment: %s", a, b)
	}

	for _, id := range []int{1, 15, 30, 99} {
		mr, mok, err := mem.Campaign(id)
		if err != nil {
			t.Fatalf("memory Campaign(%d): %v", id, err)
		}
		sr, sok, err := seg.Campaign(id)
		if err != nil {
			t.Fatalf("segment Campaign(%d): %v", id, err)
		}
		if mok != sok || mustJSON(t, mr) != mustJSON(t, sr) {
			t.Errorf("Campaign(%d) differ: memory (%v, %s) segment (%v, %s)",
				id, mok, mustJSON(t, mr), sok, mustJSON(t, sr))
		}
		mb, mok2, err := mem.Events(id)
		if err != nil {
			t.Fatalf("memory Events(%d): %v", id, err)
		}
		sb, sok2, err := seg.Events(id)
		if err != nil {
			t.Fatalf("segment Events(%d): %v", id, err)
		}
		if mok2 != sok2 || mustJSON(t, mb) != mustJSON(t, sb) {
			t.Errorf("Events(%d) differ: memory (%v, %s) segment (%v, %s)",
				id, mok2, mustJSON(t, mb), sok2, mustJSON(t, sb))
		}
	}
}

// TestSupersedence re-puts records and batches under existing IDs: both
// backends must serve only the latest version, and the live-record count must
// not grow.
func TestSupersedence(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"memory", func(t *testing.T) Store { s := NewMemory(); t.Cleanup(func() { s.Close() }); return s }},
		{"segment", func(t *testing.T) Store { return newSegmentStore(t, SegmentConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			first := testRec(7, "smallcnn", "failed", 100, 1.0, 10, false)
			if err := s.PutCampaign(first); err != nil {
				t.Fatal(err)
			}
			second := testRec(7, "smallcnn", "done", 200, 2.0, 20, true)
			if err := s.PutCampaign(second); err != nil {
				t.Fatal(err)
			}
			got, ok, err := s.Campaign(7)
			if err != nil || !ok {
				t.Fatalf("Campaign(7): ok=%v err=%v", ok, err)
			}
			if got.State != "done" || got.FinishedNS != 200 {
				t.Errorf("lookup served superseded record: %+v", got)
			}
			list, err := s.Campaigns(Query{})
			if err != nil {
				t.Fatal(err)
			}
			if len(list) != 1 {
				t.Errorf("superseded record still listed: %d records", len(list))
			}
			if st := s.Stats(); st.Records != 1 {
				t.Errorf("Stats.Records = %d, want 1", st.Records)
			}

			if err := s.PutEvents(EventBatch{CampaignID: 7, FirstNS: 1, LastNS: 2, Events: json.RawMessage(`[1]`)}); err != nil {
				t.Fatal(err)
			}
			if err := s.PutEvents(EventBatch{CampaignID: 7, FirstNS: 3, LastNS: 4, Events: json.RawMessage(`[2]`)}); err != nil {
				t.Fatal(err)
			}
			b, ok, err := s.Events(7)
			if err != nil || !ok {
				t.Fatalf("Events(7): ok=%v err=%v", ok, err)
			}
			if b.FirstNS != 3 || string(b.Events) != `[2]` {
				t.Errorf("events lookup served superseded batch: %+v", b)
			}
		})
	}
}

// TestAggregateMath pins the percentile and rate arithmetic on a hand-checked
// corpus.
func TestAggregateMath(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	// Ten campaigns of one model, wall seconds 1..10, two failed, three
	// degraded, 100 queries each.
	for i := 1; i <= 10; i++ {
		state := "done"
		if i <= 2 {
			state = "failed"
		}
		if err := s.PutCampaign(CampaignRecord{
			ID: i, Model: "m", State: state,
			FinishedNS: int64(i), WallSeconds: float64(i), Queries: 100, Degraded: i <= 3,
		}); err != nil {
			t.Fatal(err)
		}
	}
	aggs, err := s.AggregateByModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 {
		t.Fatalf("got %d aggregates, want 1", len(aggs))
	}
	a := aggs[0]
	if a.Campaigns != 10 || a.Done != 8 || a.Failed != 2 || a.Degraded != 3 {
		t.Errorf("counts wrong: %+v", a)
	}
	if a.TotalQueries != 1000 {
		t.Errorf("TotalQueries = %d, want 1000", a.TotalQueries)
	}
	if a.DegradedRate != 0.3 {
		t.Errorf("DegradedRate = %v, want 0.3", a.DegradedRate)
	}
	// Nearest rank over 1..10: p50 → rank 5 → 5.0; p95 → rank 10 → 10.0.
	if a.P50WallSeconds != 5.0 {
		t.Errorf("P50WallSeconds = %v, want 5", a.P50WallSeconds)
	}
	if a.P95WallSeconds != 10.0 {
		t.Errorf("P95WallSeconds = %v, want 10", a.P95WallSeconds)
	}
}

// TestPercentile pins the nearest-rank edges.
func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	one := []float64{42}
	if got := percentile(one, 0.5); got != 42 {
		t.Errorf("single p50 = %v, want 42", got)
	}
	if got := percentile(one, 0.95); got != 42 {
		t.Errorf("single p95 = %v, want 42", got)
	}
	four := []float64{1, 2, 3, 4}
	if got := percentile(four, 0.5); got != 2 {
		t.Errorf("p50 of 4 = %v, want 2", got)
	}
	if got := percentile(four, 0.95); got != 4 {
		t.Errorf("p95 of 4 = %v, want 4", got)
	}
}

// TestClosedStore verifies ErrClosed on every operation after Close, for both
// backends.
func TestClosedStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"memory", func(t *testing.T) Store { return NewMemory() }},
		{"segment", func(t *testing.T) Store { return newSegmentStore(t, SegmentConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			if err := s.PutCampaign(testRec(1, "m", "done", 1, 1, 1, false)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.PutCampaign(testRec(2, "m", "done", 2, 2, 2, false)); err != ErrClosed {
				t.Errorf("PutCampaign after close: %v, want ErrClosed", err)
			}
			if _, _, err := s.Campaign(1); err != ErrClosed {
				t.Errorf("Campaign after close: %v, want ErrClosed", err)
			}
			if _, err := s.Campaigns(Query{}); err != ErrClosed {
				t.Errorf("Campaigns after close: %v, want ErrClosed", err)
			}
			if _, err := s.AggregateByModel(); err != ErrClosed {
				t.Errorf("AggregateByModel after close: %v, want ErrClosed", err)
			}
			if err := s.PutEvents(EventBatch{CampaignID: 1}); err != ErrClosed {
				t.Errorf("PutEvents after close: %v, want ErrClosed", err)
			}
			if _, _, err := s.Events(1); err != ErrClosed {
				t.Errorf("Events after close: %v, want ErrClosed", err)
			}
			if err := s.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}
}
