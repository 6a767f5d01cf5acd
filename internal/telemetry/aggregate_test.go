package telemetry

import (
	"math/rand"
	"testing"
	"time"

	"github.com/huffduff/huffduff/internal/store"
)

// TestAggregateMath pins the percentile and rate arithmetic on a hand-checked
// set of campaigns.
func TestAggregateMath(t *testing.T) {
	// Ten campaigns of one model, wall seconds 1..10, two failed, three
	// degraded, 100 queries each, plus one still running.
	start := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	var snaps []CampaignSnapshot
	for i := 1; i <= 10; i++ {
		state := StateDone
		if i <= 2 {
			state = StateFailed
		}
		fin := start.Add(time.Duration(i) * time.Second)
		snaps = append(snaps, CampaignSnapshot{
			ID: i, Spec: JobSpec{Model: "m"}, State: state,
			Started: &start, Finished: &fin, VictimQueries: 100, Degraded: i <= 3,
		})
	}
	snaps = append(snaps, CampaignSnapshot{ID: 11, Spec: JobSpec{Model: "m"}, State: StateRunning, VictimQueries: 5})
	aggs := aggregateByModel(snaps)
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

// TestHistoryCorpusRestore restores a daemon from a log holding the history
// corpus — 4,000 seeded terminal campaigns over five models, about 10%
// failed, finished one second apart, drawn in the same order from the same
// seed as internal/store's TestReopenEquivalence/history — and pins the
// counts EXPERIMENTS.md records for it through the daemon's listing filter
// and aggregate: 210 campaigns of smallcnn done in the newest quarter, and
// five models.
func TestHistoryCorpusRestore(t *testing.T) {
	const (
		campaigns = 4000
		baseNS    = int64(1_760_000_000_000_000_000)
	)
	l, err := store.Open(t.TempDir(), store.Config{SegmentBytes: 256 << 10, CompactAfter: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	models := []string{"smallcnn", "vggs", "resnet18", "alexnet", "mobilenetv2"}
	rng := rand.New(rand.NewSource(42))
	for i := 1; i <= campaigns; i++ {
		model := models[rng.Intn(len(models))]
		state := StateDone
		if rng.Float64() < 0.1 {
			state = StateFailed
		}
		finished := time.Unix(0, baseNS+int64(i)*int64(time.Second)).UTC()
		started := finished.Add(-time.Duration((1 + 30*rng.Float64()) * float64(time.Second)))
		queries := 200 + rng.Intn(2000)
		putSnapshots(t, l, CampaignSnapshot{
			ID: i, Spec: JobSpec{Model: model, Trials: 8, Q: 8}, State: state,
			Submitted: started, Started: &started, Finished: &finished,
			VictimQueries: queries, SolutionCount: 4, Degraded: rng.Float64() < 0.05,
		})
	}

	d := newTestDaemon(t, DaemonConfig{Workers: 1, Store: l})
	defer d.Kill()
	if n := len(d.Campaigns()); n != campaigns {
		t.Fatalf("restored %d campaigns, want %d", n, campaigns)
	}
	q := campaignQuery{Model: "smallcnn", State: StateDone, SinceNS: baseNS + campaigns*3/4*int64(time.Second)}
	if got := len(queryCampaigns(d, q)); got != 210 {
		t.Errorf("listing matches = %d, want 210", got)
	}
	aggs := aggregateByModel(d.Campaigns())
	if len(aggs) != 5 {
		t.Errorf("aggregate models = %d, want 5", len(aggs))
	}
	total := 0
	for _, a := range aggs {
		total += a.Campaigns
	}
	if total != campaigns {
		t.Errorf("aggregate covers %d campaigns, want %d", total, campaigns)
	}
}
