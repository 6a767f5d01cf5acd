// Package store is the daemon's durable campaign log: an embedded,
// stdlib-only store for the latest state per campaign — the full
// CampaignSnapshot payload, written at every state transition, and for a
// finished campaign its convergence summary and the flight-recorder event
// batch captured over its run — behind one Store interface with two
// implementations. Memory is the ephemeral table the daemon uses without a
// data directory; Segment is an append-only segment log, fsync'd per
// record, with per-segment sidecar indexes, crash-safe recovery that skips
// and counts a torn tail, and background compaction that drops superseded
// records and merges small segments. Both backends serve the same query
// surface — point lookup, filtered time-range listing, and per-model
// aggregation — identically and in deterministic ascending-ID order, which
// is what turns one-off campaign runs into the longitudinal datasets the
// paper's §8.2 query-budget trajectories are built from.
package store

import (
	"encoding/json"
	"sort"
)

// CampaignRecord is one campaign state as the store holds it: the
// indexed columns every query path filters and aggregates on, plus the
// opaque payload (the daemon's full CampaignSnapshot JSON) that listings
// return. The store never decodes Payload; the columns are extracted by the
// writer so reads stay payload-blind until a record is actually returned.
type CampaignRecord struct {
	// ID is the campaign ID — the point-lookup key. A later record for the
	// same ID supersedes the earlier one (compaction drops the loser).
	ID int `json:"id"`
	// Model is the victim model name — the per-model scan and aggregation key.
	Model string `json:"model"`
	// State is the campaign state; only the terminal "done" and "failed"
	// count in aggregates.
	State string `json:"state"`
	// FinishedNS is the terminal timestamp in Unix nanoseconds (0 before
	// the campaign finishes) — the time-range scan key.
	FinishedNS int64 `json:"finished_ns"`
	// WallSeconds is the wall time of the final attempt, feeding the
	// per-model p50/p95 aggregates.
	WallSeconds float64 `json:"wall_seconds"`
	// Queries is the campaign's victim-query count.
	Queries int64 `json:"queries"`
	// Degraded marks a campaign that finished with a degraded solution space.
	Degraded bool `json:"degraded"`
	// Payload is the writer's full record (for the daemon: the
	// CampaignSnapshot, convergence summary included once terminal),
	// returned verbatim.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// EventBatch is one campaign's flight-recorder tail, persisted at terminal
// state so a post-mortem can read the events leading up to the outcome long
// after the ring has recycled them.
type EventBatch struct {
	// CampaignID keys the batch; a later batch for the same ID supersedes.
	CampaignID int `json:"campaign_id"`
	// FirstNS and LastNS bound the batch's event timestamps (Unix nanos).
	FirstNS int64 `json:"first_ns"`
	LastNS  int64 `json:"last_ns"`
	// Events is the writer's event array ([]obs.Event for the daemon),
	// stored and returned verbatim.
	Events json.RawMessage `json:"events,omitempty"`
}

// Query filters and paginates a campaign listing. The zero Query matches
// everything. Results are always in ascending-ID order, so Offset/Limit
// windows are stable across identical stores regardless of backend.
type Query struct {
	// State keeps only campaigns in this state ("" = any).
	State string `json:"state,omitempty"`
	// Model keeps only campaigns of this victim model ("" = any).
	Model string `json:"model,omitempty"`
	// SinceNS keeps only campaigns with FinishedNS >= SinceNS (0 = any).
	SinceNS int64 `json:"since_ns,omitempty"`
	// Offset skips that many matching records; Limit caps the page (0 = all).
	Offset int `json:"offset,omitempty"`
	Limit  int `json:"limit,omitempty"`
}

// Match reports whether the record passes the query's filters (pagination
// excluded — that is a property of the result window, not the record).
func (q Query) Match(r CampaignRecord) bool {
	if q.State != "" && r.State != q.State {
		return false
	}
	if q.Model != "" && r.Model != q.Model {
		return false
	}
	if q.SinceNS != 0 && r.FinishedNS < q.SinceNS {
		return false
	}
	return true
}

// ModelAggregate is one model's slice of the stored terminal history: how
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

// Stats counts store activity. Append counters accumulate since open;
// Records/EventBatches/Segments/LiveBytes describe the current contents.
type Stats struct {
	// Records and EventBatches are live (non-superseded) counts.
	Records      int `json:"records"`
	EventBatches int `json:"event_batches"`
	// Appends and AppendBytes count accepted writes since open.
	Appends     uint64 `json:"appends"`
	AppendBytes uint64 `json:"append_bytes"`
	// Segments and LiveBytes describe the on-disk footprint (the memory
	// backend reports 0 segments and its encoded record bytes).
	Segments  int   `json:"segments"`
	LiveBytes int64 `json:"live_bytes"`
	// Compactions counts completed compaction passes; CompactedRecords the
	// superseded records they dropped.
	Compactions      uint64 `json:"compactions"`
	CompactedRecords uint64 `json:"compacted_records"`
	// TornRecords counts unreadable frames skipped during recovery — the
	// torn tail a crash leaves, never fatal.
	TornRecords uint64 `json:"torn_records"`
}

// Store is the campaign store: append campaign records (the latest per ID
// wins) and event batches, read them back by ID, filtered listing, or
// per-model aggregate. Implementations are safe for concurrent use, and
// both backends answer every read identically (deterministic ascending-ID
// order) over the same contents.
type Store interface {
	// PutCampaign appends (or supersedes) one campaign record.
	PutCampaign(rec CampaignRecord) error
	// Campaign returns the record for one campaign ID.
	Campaign(id int) (CampaignRecord, bool, error)
	// Campaigns lists records matching q, ascending ID, paginated.
	Campaigns(q Query) ([]CampaignRecord, error)
	// AggregateByModel folds the terminal history into per-model
	// aggregates, sorted by model name.
	AggregateByModel() ([]ModelAggregate, error)
	// PutEvents appends (or supersedes) one campaign's event batch.
	PutEvents(batch EventBatch) error
	// Events returns the stored event batch for one campaign ID.
	Events(campaignID int) (EventBatch, bool, error)
	// Stats reports store counters.
	Stats() Stats
	// Close releases the store; further calls fail or no-op per backend.
	Close() error
}

// applyWindow applies Offset/Limit to an already-filtered, ascending-ID
// result set. Shared by both backends so pagination is identical.
func applyWindow(recs []CampaignRecord, q Query) []CampaignRecord {
	if q.Offset > 0 {
		if q.Offset >= len(recs) {
			return []CampaignRecord{}
		}
		recs = recs[q.Offset:]
	}
	if q.Limit > 0 && q.Limit < len(recs) {
		recs = recs[:q.Limit]
	}
	return recs
}

// aggregateRecords computes the per-model aggregates over the terminal
// records of a record set: a queued, running, or retrying campaign is not
// history yet. Shared by both backends so the aggregate endpoint is
// backend-agnostic.
func aggregateRecords(recs []CampaignRecord) []ModelAggregate {
	byModel := map[string]*ModelAggregate{}
	walls := map[string][]float64{}
	for _, r := range recs {
		if r.State != "done" && r.State != "failed" {
			continue
		}
		agg := byModel[r.Model]
		if agg == nil {
			agg = &ModelAggregate{Model: r.Model}
			byModel[r.Model] = agg
		}
		agg.Campaigns++
		if r.State == "done" {
			agg.Done++
		} else {
			agg.Failed++
		}
		if r.Degraded {
			agg.Degraded++
		}
		agg.TotalQueries += r.Queries
		walls[r.Model] = append(walls[r.Model], r.WallSeconds)
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
		if agg.Campaigns > 0 {
			agg.DegradedRate = float64(agg.Degraded) / float64(agg.Campaigns)
		}
		out = append(out, agg)
	}
	return out
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

// sortByID orders records ascending by campaign ID — the deterministic
// listing order both backends guarantee.
func sortByID(recs []CampaignRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
}
