package telemetry

import (
	"encoding/json"
	"fmt"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
)

// This file is the daemon's bridge to the campaign store, its one durable
// log: every state transition is written through one write path as the
// campaign's latest record (terminal ones add the flight-recorder tail of
// their final attempt), the per-model aggregate and stored event tails are
// served back out of it, and at construction one scan of it rebuilds the
// campaign table.

// terminalState reports whether a campaign state is terminal.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed
}

// restore rebuilds the campaign table from the store's latest record per
// campaign and returns the campaigns to requeue. Terminal campaigns are
// served read-only from their stored payload; anything queued, running, or
// waiting on a retry when the last process died is requeued as queued —
// re-running a half-finished attack is safe because campaigns are
// idempotent (seeded RNGs, simulated device). IDs resume past the highest
// stored one. A failed scan is returned, not skipped: without it the daemon
// would not know the highest stored ID, and its next submission would
// supersede a stored campaign. Runs before the worker pool starts, so no
// locking.
func (d *Daemon) restore() ([]*campaign, error) {
	recs, err := d.cfg.Store.Campaigns(store.Query{})
	if err != nil {
		return nil, fmt.Errorf("telemetry: restoring campaigns from the store: %w", err)
	}
	var requeue []*campaign
	for _, rec := range recs {
		d.nextID = rec.ID + 1 // ascending ID; never reuse one, even undecodable
		snap, err := snapshotFromRecord(rec)
		if err != nil {
			d.count("daemon.store_errors", "op=restore", 1)
			continue
		}
		snap.Resumed = true
		c := &campaign{snap: snap, ledger: converge.NewLedger(d.cfg.Recorder)}
		if terminalState(snap.State) {
			// The in-memory convergence history died with the old process;
			// a restored terminal campaign serves an empty, closed ledger.
			c.ledger.Close()
		} else {
			c.snap.State = StateQueued
			c.snap.Started = nil
			requeue = append(requeue, c)
		}
		d.byID[rec.ID] = c
		d.campaigns = append(d.campaigns, c)
	}
	if len(requeue) > 0 {
		d.count("daemon.requeues", "", float64(len(requeue)))
	}
	return requeue, nil
}

// write is the daemon's one durable write path. After Kill it writes
// nothing; otherwise the chaos write fault, when configured, is consulted
// before put. Callers encode before calling, so only the store write holds
// wmu. The outcome sets the degraded flag /healthz reports — the most
// recent write decides, so a success clears it. A failed write is counted
// and never fails the campaign: availability over durability.
func (d *Daemon) write(op string, put func() error) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.killed.Load() {
		return
	}
	var err error
	if d.cfg.Faults != nil {
		err = d.cfg.Faults.WriteFault()
	}
	if err == nil {
		err = put()
	}
	d.writeFailing.Store(err != nil)
	if err != nil {
		d.writeErrors.Add(1)
		d.count("daemon.store_errors", "op="+op, 1)
	}
}

// persist writes snap as its campaign's latest record. An encoding error
// counts as a failed write.
func (d *Daemon) persist(snap CampaignSnapshot) {
	rec, encErr := recordFromSnapshot(snap)
	d.write("put_campaign", func() error {
		if encErr != nil {
			return encErr
		}
		if err := d.cfg.Store.PutCampaign(rec); err != nil {
			return fmt.Errorf("telemetry: storing campaign %d: %w", snap.ID, err)
		}
		return nil
	})
}

// persistTerminal writes a terminal campaign: the snapshot as its final
// record, plus the flight-recorder events of its final attempt window as
// the campaign's event batch.
func (d *Daemon) persistTerminal(snap CampaignSnapshot) {
	d.persist(snap)
	if d.cfg.Flight == nil || snap.Started == nil || snap.Finished == nil {
		return
	}
	var tail []obs.Event
	startNS, endNS := snap.Started.UnixNano(), snap.Finished.UnixNano()
	for _, ev := range d.cfg.Flight.Events() {
		if ev.TS >= startNS && ev.TS <= endNS {
			tail = append(tail, ev)
		}
	}
	if len(tail) == 0 {
		return
	}
	raw, encErr := json.Marshal(tail)
	d.write("put_events", func() error {
		if encErr != nil {
			return fmt.Errorf("telemetry: encoding campaign %d events: %w", snap.ID, encErr)
		}
		batch := store.EventBatch{
			CampaignID: snap.ID,
			FirstNS:    tail[0].TS,
			LastNS:     tail[len(tail)-1].TS,
			Events:     raw,
		}
		if err := d.cfg.Store.PutEvents(batch); err != nil {
			return fmt.Errorf("telemetry: storing campaign %d events: %w", snap.ID, err)
		}
		return nil
	})
}

// recordFromSnapshot extracts the store's indexed columns from a snapshot
// and embeds the snapshot itself as the payload.
func recordFromSnapshot(snap CampaignSnapshot) (store.CampaignRecord, error) {
	payload, err := json.Marshal(snap)
	if err != nil {
		return store.CampaignRecord{}, fmt.Errorf("encode campaign %d: %w", snap.ID, err)
	}
	rec := store.CampaignRecord{
		ID:       snap.ID,
		Model:    snap.Spec.Model,
		State:    snap.State,
		Queries:  int64(snap.VictimQueries),
		Degraded: snap.Degraded,
		Payload:  payload,
	}
	if snap.Finished != nil {
		rec.FinishedNS = snap.Finished.UnixNano()
		if snap.Started != nil {
			rec.WallSeconds = snap.Finished.Sub(*snap.Started).Seconds()
		}
	}
	return rec, nil
}

// snapshotFromRecord decodes a stored record back into the snapshot the
// daemon serves.
func snapshotFromRecord(rec store.CampaignRecord) (CampaignSnapshot, error) {
	var snap CampaignSnapshot
	if err := json.Unmarshal(rec.Payload, &snap); err != nil {
		return CampaignSnapshot{}, fmt.Errorf("decode stored campaign %d: %w", rec.ID, err)
	}
	return snap, nil
}

// matchSnapshot applies a store query's filters to a live snapshot, with the
// same semantics the store applies to its records: a SinceNS filter only
// ever matches finished campaigns.
func matchSnapshot(q store.Query, s CampaignSnapshot) bool {
	if q.State != "" && s.State != q.State {
		return false
	}
	if q.Model != "" && s.Spec.Model != q.Model {
		return false
	}
	if q.SinceNS != 0 && (s.Finished == nil || s.Finished.UnixNano() < q.SinceNS) {
		return false
	}
	return true
}

// AggregateByModel serves the per-model aggregate over the stored terminal
// history — the read path behind GET /campaigns/aggregate?by=model.
func (d *Daemon) AggregateByModel() ([]store.ModelAggregate, error) {
	aggs, err := d.cfg.Store.AggregateByModel()
	if err != nil {
		return nil, fmt.Errorf("campaign store aggregate: %w", err)
	}
	return aggs, nil
}

// CampaignEvents returns the stored flight-recorder tail of one terminal
// campaign — the read path behind GET /campaigns/{id}/events.
func (d *Daemon) CampaignEvents(id int) (store.EventBatch, bool, error) {
	return d.cfg.Store.Events(id)
}

// StoreStats exposes the store's counters (for tests and health surfaces).
func (d *Daemon) StoreStats() store.Stats {
	return d.cfg.Store.Stats()
}
