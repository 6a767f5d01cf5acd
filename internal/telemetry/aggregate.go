package telemetry

import (
	"sort"
	"time"
)

// ModelAggregate is one model's slice of the terminal campaign history: how
// many campaigns finished, how they ended, what they cost. This is the
// per-model view attack papers report — query budgets and wall costs over
// many runs, not one snapshot.
type ModelAggregate struct {
	Model     string `json:"model"`
	Campaigns int    `json:"campaigns"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Degraded  int    `json:"degraded"`
	// DegradedRate is Degraded over Campaigns.
	DegradedRate float64 `json:"degraded_rate"`
	// P50WallSeconds / P95WallSeconds are nearest-rank percentiles of the
	// per-campaign wall seconds.
	P50WallSeconds float64 `json:"p50_wall_seconds"`
	P95WallSeconds float64 `json:"p95_wall_seconds"`
	// TotalQueries sums victim queries across the model's campaigns.
	TotalQueries int64 `json:"total_queries"`
}

// aggregateByModel folds the terminal snapshots into per-model aggregates,
// sorted by model name — the body of GET /campaigns/aggregate?by=model. A
// queued, running, or retrying campaign is not history yet. The result is
// never nil, so an empty fold serializes as [].
func aggregateByModel(snaps []CampaignSnapshot) []ModelAggregate {
	byModel := map[string]*ModelAggregate{}
	walls := map[string][]float64{}
	for _, s := range snaps {
		if !terminalState(s.State) {
			continue
		}
		agg := byModel[s.Spec.Model]
		if agg == nil {
			agg = &ModelAggregate{Model: s.Spec.Model}
			byModel[s.Spec.Model] = agg
		}
		agg.Campaigns++
		if s.State == StateDone {
			agg.Done++
		} else {
			agg.Failed++
		}
		if s.Degraded {
			agg.Degraded++
		}
		agg.TotalQueries += int64(s.VictimQueries)
		walls[s.Spec.Model] = append(walls[s.Spec.Model], wallSeconds(s))
	}
	names := make([]string, 0, len(byModel))
	for name := range byModel {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ModelAggregate, 0, len(names))
	for _, name := range names {
		agg := *byModel[name]
		ws := walls[name]
		sort.Float64s(ws)
		agg.P50WallSeconds = percentile(ws, 0.50)
		agg.P95WallSeconds = percentile(ws, 0.95)
		agg.DegradedRate = float64(agg.Degraded) / float64(agg.Campaigns)
		out = append(out, agg)
	}
	return out
}

// wallSeconds is a terminal campaign's final-attempt wall time. It is taken
// from the wall-clock readings, not with time.Time.Sub: a live snapshot's
// times carry a monotonic reading that a restored one has lost, and the two
// must fold to the same bytes. A campaign without a start time counts 0 —
// finished minus the zero time is ~54 years, which would permanently skew
// the per-model percentiles.
func wallSeconds(s CampaignSnapshot) float64 {
	if s.Started == nil || s.Finished == nil {
		return 0
	}
	return time.Duration(s.Finished.UnixNano() - s.Started.UnixNano()).Seconds()
}

// percentile returns the nearest-rank percentile of an ascending-sorted
// sample set (p in [0,1]); 0 for an empty set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
