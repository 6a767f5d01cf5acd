package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/store"
	"github.com/huffduff/huffduff/internal/telemetry"
)

// daemonRestart benchmarks the crash-recovery path of the campaign daemon:
// three campaigns are persisted, the daemon is killed with one wedged
// mid-run (chaos stall), and a second daemon restores them from the store
// and runs everything to completion. Wall time covers submit -> kill ->
// restore -> drain; the count metrics are ungated sanity signals (campaigns_resumed
// and campaigns_completed must both be 3 for the scenario to return at
// all), so the scenario is safe under -deterministic-only gating.
func daemonRestart() (Metrics, error) {
	const campaigns = 3
	dir, err := os.MkdirTemp("", "huffbench-daemon-*")
	if err != nil {
		return nil, fmt.Errorf("daemon_restart: %w", err)
	}
	defer os.RemoveAll(dir)
	spec := telemetry.JobSpec{Model: "smallcnn", Trials: 2, Q: 6}
	start := time.Now()

	// Phase 1: every victim run stalls, so the first campaign wedges and
	// the rest queue. Kill() simulates process death: nothing after the
	// kill reaches the store.
	s1, err := store.Open(dir, store.SegmentConfig{})
	if err != nil {
		return nil, fmt.Errorf("daemon_restart: %w", err)
	}
	stall := chaos.NewDaemonFaults(chaos.DaemonFaultsConfig{StallProb: 1})
	d1, err := telemetry.NewDaemon(telemetry.DaemonConfig{
		Workers: 1, QueueDepth: campaigns, Store: s1, Faults: stall,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon_restart: %w", err)
	}
	for i := 0; i < campaigns; i++ {
		if _, err := d1.Submit(spec); err != nil {
			return nil, fmt.Errorf("daemon_restart submit: %w", err)
		}
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if snap, ok := d1.CampaignByID(1); ok && snap.State == telemetry.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon_restart: campaign 1 never reached running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d1.Kill()
	if err := s1.Close(); err != nil {
		return nil, fmt.Errorf("daemon_restart: %w", err)
	}

	// Phase 2: restart on the same store and drain for real.
	s2, err := store.Open(dir, store.SegmentConfig{})
	if err != nil {
		return nil, fmt.Errorf("daemon_restart restore: %w", err)
	}
	col := obs.NewCollector()
	d2, err := telemetry.NewDaemon(telemetry.DaemonConfig{
		Workers: 2, QueueDepth: campaigns, Store: s2, Recorder: col,
	})
	if err != nil {
		return nil, fmt.Errorf("daemon_restart restore: %w", err)
	}
	resumed := col.CounterValue("daemon.requeues", "")
	if resumed != campaigns {
		return nil, fmt.Errorf("daemon_restart: restore requeued %g campaigns, want %d", resumed, campaigns)
	}
	deadline = time.Now().Add(5 * time.Minute)
	completed := 0
	for completed < campaigns {
		completed = 0
		for _, c := range d2.Campaigns() {
			if c.State == telemetry.StateDone {
				completed++
			} else if c.State == telemetry.StateFailed {
				return nil, fmt.Errorf("daemon_restart: resumed campaign %d failed: %s", c.ID, c.Error)
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon_restart: %d/%d campaigns finished before timeout", completed, campaigns)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d2.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("daemon_restart shutdown: %w", err)
	}
	stats := s2.Stats()
	if err := s2.Close(); err != nil {
		return nil, fmt.Errorf("daemon_restart: %w", err)
	}
	return Metrics{
		"wall_seconds":        time.Since(start).Seconds(),
		"campaigns_resumed":   resumed,
		"campaigns_completed": float64(completed),
		"store_appends":       float64(stats.Appends),
	}, nil
}
