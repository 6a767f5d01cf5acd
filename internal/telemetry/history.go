package telemetry

import (
	"encoding/json"
	"fmt"

	"github.com/huffduff/huffduff/internal/converge"
)

// This file is the daemon's bridge to the campaign log, its one durable
// record: every state transition is written through one write path as the
// campaign's latest payload, and at construction one replay of it rebuilds
// the campaign table.

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
		c := &campaign{snap: snap}
		// A terminal campaign keeps its converge summary but no ledger: the
		// in-memory history died with the old process, and the progress
		// endpoints answer 410 Gone for it.
		if !terminalState(snap.State) {
			c.ledger = converge.NewLedger()
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
