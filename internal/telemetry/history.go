package telemetry

import (
	"encoding/json"
	"fmt"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/obs"
)

// This file is the daemon's bridge to the campaign log, its one durable
// record: every state transition is written through one write path as the
// campaign's latest payload (terminal ones add the flight-recorder tail of
// their final attempt), stored event tails are served back out of it, and
// at construction one replay of it rebuilds the campaign table.

// terminalState reports whether a campaign state is terminal.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed
}

// restore rebuilds the campaign table from the log's latest payload per
// campaign and returns the campaigns to requeue. Terminal campaigns are
// served read-only from their stored payload; anything queued, running, or
// waiting on a retry when the last process died is requeued as queued —
// re-running a half-finished attack is safe because campaigns are
// idempotent (seeded RNGs, simulated device). IDs resume past the highest
// stored one. A failed replay is returned, not skipped: without it the
// daemon would not know the highest stored ID, and its next submission
// would supersede a stored campaign. Runs before the worker pool starts, so
// no locking.
func (d *Daemon) restore() ([]*campaign, error) {
	if d.cfg.Store == nil {
		return nil, nil
	}
	var requeue []*campaign
	err := d.cfg.Store.Replay(func(id int, payload json.RawMessage) error {
		d.nextID = id + 1 // ascending ID; never reuse one, even undecodable
		var snap CampaignSnapshot
		if err := json.Unmarshal(payload, &snap); err != nil {
			d.count("daemon.store_errors", "op=restore", 1)
			return nil
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
		d.byID[id] = c
		d.campaigns = append(d.campaigns, c)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("telemetry: restoring campaigns from the store: %w", err)
	}
	if len(requeue) > 0 {
		d.count("daemon.requeues", "", float64(len(requeue)))
	}
	return requeue, nil
}

// write is the daemon's one durable write path. After Kill it writes
// nothing; otherwise the chaos write fault, when configured, is consulted
// before put. Callers encode before calling, so only the log write holds
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
// counts as a failed write. An ephemeral daemon writes nothing.
func (d *Daemon) persist(snap CampaignSnapshot) {
	if d.cfg.Store == nil {
		return
	}
	payload, encErr := json.Marshal(snap)
	d.write("put_campaign", func() error {
		if encErr != nil {
			return fmt.Errorf("telemetry: encoding campaign %d: %w", snap.ID, encErr)
		}
		if err := d.cfg.Store.Put(snap.ID, payload); err != nil {
			return fmt.Errorf("telemetry: storing campaign %d: %w", snap.ID, err)
		}
		return nil
	})
}

// EventBatch is one campaign's flight-recorder tail, persisted at terminal
// state so a post-mortem can read the events leading up to the outcome long
// after the ring has recycled them: the body of GET /campaigns/{id}/events.
type EventBatch struct {
	CampaignID int `json:"campaign_id"`
	// FirstNS and LastNS bound the batch's event timestamps (Unix nanos).
	FirstNS int64 `json:"first_ns"`
	LastNS  int64 `json:"last_ns"`
	// Events is the []obs.Event array, as stored.
	Events json.RawMessage `json:"events,omitempty"`
}

// persistTerminal writes a terminal campaign: the snapshot as its final
// record, plus the flight-recorder events of its final attempt window as
// the campaign's event batch.
func (d *Daemon) persistTerminal(snap CampaignSnapshot) {
	d.persist(snap)
	if d.cfg.Store == nil || d.cfg.Flight == nil || snap.Started == nil || snap.Finished == nil {
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
	events, encErr := json.Marshal(tail)
	var raw []byte
	if encErr == nil {
		raw, encErr = json.Marshal(EventBatch{
			CampaignID: snap.ID,
			FirstNS:    tail[0].TS,
			LastNS:     tail[len(tail)-1].TS,
			Events:     events,
		})
	}
	d.write("put_events", func() error {
		if encErr != nil {
			return fmt.Errorf("telemetry: encoding campaign %d events: %w", snap.ID, encErr)
		}
		if err := d.cfg.Store.PutEvents(snap.ID, raw); err != nil {
			return fmt.Errorf("telemetry: storing campaign %d events: %w", snap.ID, err)
		}
		return nil
	})
}

// CampaignEvents returns the stored flight-recorder tail of one terminal
// campaign — the read path behind GET /campaigns/{id}/events. An ephemeral
// daemon stores none.
func (d *Daemon) CampaignEvents(id int) (EventBatch, bool, error) {
	if d.cfg.Store == nil {
		return EventBatch{}, false, nil
	}
	raw, ok, err := d.cfg.Store.Events(id)
	if err != nil {
		return EventBatch{}, false, fmt.Errorf("telemetry: reading campaign %d events: %w", id, err)
	}
	if !ok {
		return EventBatch{}, false, nil
	}
	var batch EventBatch
	if err := json.Unmarshal(raw, &batch); err != nil {
		return EventBatch{}, false, fmt.Errorf("telemetry: decoding campaign %d events: %w", id, err)
	}
	return batch, true, nil
}
