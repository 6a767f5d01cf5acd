package huffduff

import (
	"errors"
	"fmt"
	"testing"

	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// smallCNNTruth is the ground truth the robustness tests recover:
// SmallCNN's conv geometry and channel counts per graph node.
var smallCNNGeoms = map[int]Geom{
	1: {Kernel: 5, Stride: 1, Pool: 1},
	2: {Kernel: 3, Stride: 1, Pool: 2},
	3: {Kernel: 3, Stride: 2, Pool: 1},
}

var smallCNNChans = map[int]int{1: 8, 2: 16, 3: 16}

// robustTestConfig trims the trial budget and runs a single solve (each
// solve costs ~10s; TestConvergenceReporting covers the escalation
// schedule) so each faulty campaign stays test-sized; the hardened
// defaults are otherwise unchanged.
func robustTestConfig() Config {
	cfg := DefaultRobustConfig()
	cfg.Probe.Trials = 8
	cfg.Converge = false
	// A slimmer (still wrong-inclusive) hypothesis grid: solver time, not
	// inference time, dominates these campaigns, and fault tolerance is
	// about surviving noise, not searching the widest geometry space.
	cfg.Probe.Kernels = []int{1, 3, 5}
	cfg.Probe.PoolNodeFactors = []int{2, 4}
	return cfg
}

// checkRecoveredOrDegraded applies the acceptance criterion: the attack
// either recovers the exact clean-run geometry with a timing-pinned space
// containing the truth, or returns a flagged degraded space whose bounds
// admit the true architecture.
func checkRecoveredOrDegraded(t *testing.T, res *Result) {
	t.Helper()
	for node, want := range smallCNNGeoms {
		if got := res.Probe.Geoms[node]; got != want {
			t.Fatalf("node %d geometry = %+v, want %+v (degraded=%v)", node, got, want, res.Degraded)
		}
	}
	if !res.Space.Admits(smallCNNChans) {
		t.Fatalf("space does not admit the true channels %v (degraded=%v, k1 range [%d,%d])",
			smallCNNChans, res.Degraded, res.Space.K1Min, res.Space.K1Max)
	}
	if res.Degraded {
		if res.DegradedReason == "" {
			t.Fatal("degraded result carries no reason")
		}
		if !res.Space.Degraded || len(res.Space.KBounds) == 0 {
			t.Fatal("degraded result without a degraded space")
		}
		for node, k := range smallCNNChans {
			b, ok := res.Space.KBounds[node]
			if !ok || k < b[0] || k > b[1] {
				t.Fatalf("true K=%d for node %d outside degraded bounds %v", k, node, b)
			}
		}
		return
	}
	if res.Space.K1Min > 8 || res.Space.K1Max < 8 {
		t.Fatalf("true k1=8 outside [%d,%d]", res.Space.K1Min, res.Space.K1Max)
	}
}

// TestRobustAttackUnderSingleFaults runs the hardened pipeline with one
// fault class at a time at its default intensity.
func TestRobustAttackUnderSingleFaults(t *testing.T) {
	def := chaos.DefaultConfig()
	cases := []struct {
		name string
		cfg  chaos.Config
	}{
		{"transient", chaos.Config{Seed: 11, TransientProb: def.TransientProb}},
		{"jitter", chaos.Config{Seed: 12, JitterStd: def.JitterStd}},
		{"drop", chaos.Config{Seed: 13, DropProb: def.DropProb}},
		{"duplicate", chaos.Config{Seed: 14, DupProb: def.DupProb}},
		{"swap", chaos.Config{Seed: 15, SwapProb: def.SwapProb}},
		{"truncate", chaos.Config{Seed: 16, TruncateProb: def.TruncateProb, TruncateFracMax: def.TruncateFracMax}},
		{"padding", chaos.Config{Seed: 17, PadProb: def.PadProb, PadMaxBytes: def.PadMaxBytes}},
	}
	if raceEnabled {
		t.Skip("heavy end-to-end campaign; TestRobustAttackAllFaults covers the robust path under -race")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := deployVictim(t, models.SmallCNN(), 1)
			fv := chaos.Wrap(m, tc.cfg)
			res, err := Attack(fv, robustTestConfig())
			if err != nil {
				t.Fatalf("robust attack failed under %s faults: %v", tc.name, err)
			}
			checkRecoveredOrDegraded(t, res)
		})
	}
}

// TestRobustAttackAllFaults is the headline acceptance test: every fault
// class on at once, at default intensity, against the hardened pipeline.
func TestRobustAttackAllFaults(t *testing.T) {
	m, _ := deployVictim(t, models.SmallCNN(), 1)
	fv := chaos.Wrap(m, chaos.DefaultConfig())
	res, err := Attack(fv, robustTestConfig())
	if err != nil {
		t.Fatalf("robust attack failed under all fault classes: %v", err)
	}
	checkRecoveredOrDegraded(t, res)
	if res.VictimRetries == 0 {
		t.Error("expected at least one victim retry under the full fault load")
	}
	s := fv.Stats()
	t.Logf("chaos: %d runs, %d transients, %d dropped, %d duplicated, %d swapped, %d truncated, %d padded; %d retries; degraded=%v",
		s.Runs, s.Transients, s.Dropped, s.Duplicated, s.Swapped, s.Truncated, s.Padded, res.VictimRetries, res.Degraded)
}

// TestFailFastPipelineDiesUnderFaults documents why the hardening exists:
// the paper's fail-fast configuration cannot survive the same fault load.
func TestFailFastPipelineDiesUnderFaults(t *testing.T) {
	m, _ := deployVictim(t, models.SmallCNN(), 1)
	fv := chaos.Wrap(m, chaos.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Probe.MaxRetries = 0
	cfg.Probe.Trials = 8
	if _, err := Attack(fv, cfg); err == nil {
		t.Fatal("fail-fast attack should not survive the full fault load")
	}
}

// TestHeavyJitterDegradesGracefully forces the timing channel out of
// tolerance: the attack must not fail, but return a flagged degraded space
// that still contains the truth.
func TestHeavyJitterDegradesGracefully(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy end-to-end campaign; skipped under -race")
	}
	m, _ := deployVictim(t, models.SmallCNN(), 1)
	fv := chaos.Wrap(m, chaos.Config{Seed: 21, JitterStd: 40})
	cfg := robustTestConfig()
	cfg.TimingTolerance = 0.02
	res, err := Attack(fv, cfg)
	if err != nil {
		t.Fatalf("attack failed instead of degrading: %v", err)
	}
	if !res.Degraded {
		t.Skip("jitter stayed within tolerance at this seed; degradation not exercised")
	}
	checkRecoveredOrDegraded(t, res)
	if res.Space.Admits(map[int]int{1: res.Space.KBounds[1][1] + 1}) {
		t.Fatal("degraded space admits channels above its own bounds")
	}
}

// TestDegradedSpaceDirect exercises FinalizeDegraded against a clean run's
// intermediates, independent of chaos randomness.
func TestDegradedSpaceDirect(t *testing.T) {
	res := smallCNNDense.get(t).res
	sp, err := FinalizeDegraded(res.Graph, res.Probe, res.Dims, DefaultFinalizeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Degraded {
		t.Fatal("space not flagged degraded")
	}
	if !sp.Admits(smallCNNChans) {
		t.Fatalf("degraded space rejects the truth; bounds %v", sp.KBounds)
	}
	if sp.Admits(map[int]int{2: 1000}) {
		t.Fatal("degraded space admits an absurd channel count")
	}
	// The degraded space must be no tighter than the timing-pinned one on
	// the first layer, and every solution must stay buildable.
	if sp.K1Min > 8 || sp.K1Max < 8 {
		t.Fatalf("true k1=8 outside degraded range [%d,%d]", sp.K1Min, sp.K1Max)
	}
	for _, sol := range sp.Solutions {
		if _, err := sol.Arch.Shapes(); err != nil {
			t.Fatalf("degraded candidate k1=%d not buildable: %v", sol.K1, err)
		}
	}
}

// TestExactSpaceAdmits checks Admits on a timing-pinned space.
func TestExactSpaceAdmits(t *testing.T) {
	res := smallCNNDense.get(t).res
	if !res.Space.Admits(smallCNNChans) {
		t.Fatal("exact space rejects the true channels")
	}
	if res.Space.Admits(map[int]int{1: 8, 2: 17, 3: 16}) {
		t.Fatal("exact space admits channels no solution carries")
	}
}

// TestConvergenceReporting runs the §8.2 escalation loop on a clean victim.
func TestConvergenceReporting(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy end-to-end campaign; skipped under -race")
	}
	m, _ := deployVictim(t, models.SmallCNN(), 1)
	cfg := DefaultRobustConfig()
	cfg.Probe.Trials = 16
	cfg.ConvergeStart = 8 // schedule {8, 16}: two solves keep the test fast
	res, err := Attack(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("clean run did not converge (stable from %d trials)", res.TrialsConverged)
	}
	if res.TrialsConverged < 2 || res.TrialsConverged > cfg.Probe.Trials {
		t.Fatalf("TrialsConverged = %d out of range", res.TrialsConverged)
	}
	for node := range smallCNNGeoms {
		c, ok := res.Confidence[node]
		if !ok {
			t.Fatalf("no confidence score for node %d", node)
		}
		if c <= 0 || c > 1 {
			t.Fatalf("confidence[%d] = %g out of (0,1]", node, c)
		}
	}
}

// TestAttackConfigValidation rejects broken configurations up front with
// ErrBadConfig and stage "config".
func TestAttackConfigValidation(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero trials", func(c *Config) { c.Probe.Trials = 0 }},
		{"one probe position", func(c *Config) { c.Probe.Q = 1 }},
		{"empty kernels", func(c *Config) { c.Probe.Kernels = nil }},
		{"zero stride hypothesis", func(c *Config) { c.Probe.Strides = []int{0} }},
		{"zero block bytes", func(c *Config) { c.BlockBytes = 0 }},
		{"negative retries", func(c *Config) { c.Probe.MaxRetries = -1 }},
		{"negative tolerance", func(c *Config) { c.TimingTolerance = -0.1 }},
		{"zero classes", func(c *Config) { c.Finalize.Classes = 0 }},
		{"full sparsity bound", func(c *Config) { c.Finalize.MaxFirstLayerSparsity = 1 }},
		{"zero input dims", func(c *Config) { c.Finalize.InH = 0 }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			_, err := Attack(failingVictim{}, cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, faults.ErrBadConfig) {
				t.Fatalf("error %v does not wrap ErrBadConfig", err)
			}
			if stage, ok := faults.StageOf(err); !ok || stage != "config" {
				t.Fatalf("error %v not attributed to the config stage", err)
			}
		})
	}
}

// failingVictim always reports a transient device failure.
type failingVictim struct{}

func (failingVictim) Run(*tensor.Tensor) (*trace.Trace, error) {
	return nil, fmt.Errorf("device busy: %w", faults.ErrTransient)
}

// TestStageContextOnVictimFailure: a victim that never answers exhausts the
// retry budget and the error names the stage that died plus the transient
// sentinel.
func TestStageContextOnVictimFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Probe.MaxRetries = 2
	_, err := Attack(failingVictim{}, cfg)
	if err == nil {
		t.Fatal("attack succeeded against a dead victim")
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("error %v does not wrap ErrTransient", err)
	}
	if stage, ok := faults.StageOf(err); !ok || stage != "calibration" {
		t.Fatalf("error %v not attributed to the calibration stage (got %q)", err, stage)
	}
}
