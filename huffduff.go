// Package huffduff is a from-scratch reproduction of "HuffDuff: Stealing
// Pruned DNNs from Sparse Accelerators" (Yang, Nair, Lis — ASPLOS 2023).
//
// It bundles everything the paper's evaluation needs, all in pure Go with
// only the standard library:
//
//   - a CNN library with training (internal/nn, internal/train) and a model
//     zoo of the paper's victims and baselines (internal/models);
//   - unstructured pruning, including lottery-ticket iterative pruning
//     (internal/prune);
//   - a simulated Eyeriss-v2-class two-sided sparse accelerator with
//     compressed DRAM transfers and an on-the-fly psum-encoding pipeline
//     (internal/accel, internal/sparse, internal/dram);
//   - the attacker-side trace analysis, boundary-effect prober, symbolic
//     convolution engine, timing side channel, and solution-space
//     finalization (internal/trace, internal/probe, internal/symconv,
//     internal/huffduff);
//   - the prior dense-accelerator attack and its naïve sparse extension for
//     Table 1 (internal/reversecnn), and targeted adversarial-transfer
//     evaluation for Figs. 5–6 (internal/adv).
//
// This package is the public facade: it re-exports the types and entry
// points a downstream user needs to deploy a victim on the simulated
// accelerator and steal it back. The campaign daemon, cmd/huffduffd, is
// not part of it: its campaign history — listings, per-model aggregates,
// stored event tails — is served over HTTP from the daemon's table and its
// durable log (internal/telemetry, internal/store).
//
// Quick start:
//
//	arch := huffduff.SmallCNN()
//	bind, _ := arch.Build(rand.New(rand.NewSource(1)))
//	victim := huffduff.NewMachine(huffduff.DefaultAccelConfig(), arch, bind)
//	res, _ := huffduff.Attack(victim, huffduff.DefaultAttackConfig())
//	fmt.Println(res.Space.Count(), "candidate architectures")
package huffduff

import (
	"context"
	"math/rand"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/adv"
	"github.com/huffduff/huffduff/internal/chaos"
	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/dataset"
	"github.com/huffduff/huffduff/internal/dram"
	"github.com/huffduff/huffduff/internal/faults"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/reversecnn"
	"github.com/huffduff/huffduff/internal/trace"
	"github.com/huffduff/huffduff/internal/train"
)

// Architecture IR and model zoo.
type (
	// Arch describes a CNN at accelerator-execution granularity.
	Arch = models.Arch
	// Unit is one layerwise execution pass of an Arch.
	Unit = models.Unit
	// Binding is a built, runnable network bound to its Arch.
	Binding = models.Binding
	// Network is the runnable DAG of layers.
	Network = nn.Network
)

// Model zoo constructors. scale divides channel widths (1 = paper-size).
var (
	// VGGS is the paper's VGG-S victim (VGG-16-style CIFAR network).
	VGGS = models.VGGS
	// ResNet18 is the paper's ResNet-18 victim (CIFAR variant).
	ResNet18 = models.ResNet18
	// AlexNet is the prior-generation accuracy baseline of Fig. 4.
	AlexNet = models.AlexNet
	// MobileNetV2 is a random-surrogate baseline of Figs. 5–6.
	MobileNetV2 = models.MobileNetV2
	// SmallCNN is a tiny victim for demos and tests.
	SmallCNN = models.SmallCNN
)

// Victim device simulation.
type (
	// Machine is a model deployed on the simulated sparse accelerator.
	Machine = accel.Machine
	// AccelConfig describes the accelerator and its DRAM.
	AccelConfig = accel.Config
	// DRAMSpec is an LPDDR memory configuration.
	DRAMSpec = dram.Spec
	// Trace is the DRAM access trace an inference leaves behind.
	Trace = trace.Trace
	// LayerStats is one layer's device telemetry for a single inference.
	LayerStats = accel.LayerStats
	// CampaignStats is per-layer device telemetry accumulated across every
	// inference a campaign ran (simulated device time, never host clock).
	CampaignStats = accel.CampaignStats
)

// NewMachine deploys a built model on the simulated accelerator.
func NewMachine(cfg AccelConfig, arch *Arch, bind *Binding) *Machine {
	return accel.NewMachine(cfg, arch, bind)
}

// DefaultAccelConfig returns an Eyeriss-v2-like device with single-channel
// LPDDR4.
func DefaultAccelConfig() AccelConfig { return accel.DefaultConfig() }

// LPDDR memory constructors (channels: 1 or 2).
var (
	LPDDR3  = dram.LPDDR3
	LPDDR4  = dram.LPDDR4
	LPDDR4X = dram.LPDDR4X
)

// The attack.
type (
	// AttackConfig configures the end-to-end HuffDuff attack.
	AttackConfig = attack.Config
	// AttackResult carries everything the attack recovers.
	AttackResult = attack.Result
	// Solution is one candidate architecture from the finalized space.
	Solution = attack.Solution
	// SolutionSpace is the finalized candidate set (§8.2).
	SolutionSpace = attack.SolutionSpace
	// Victim is the attacker's handle on a device: feed inputs, observe
	// DRAM traces.
	Victim = attack.Victim
)

// DefaultAttackConfig matches the paper's evaluation setup.
func DefaultAttackConfig() AttackConfig { return attack.DefaultConfig() }

// DefaultRobustAttackConfig is DefaultAttackConfig hardened for noisy or
// faulty observation channels: bounded retry on transient victim failures,
// min-over-repeats probe aggregation, trial-escalation until two consecutive
// solves agree, and graceful degradation to a timing-free solution space
// when the encoding intervals are too jittery to trust.
func DefaultRobustAttackConfig() AttackConfig { return attack.DefaultRobustConfig() }

// Attack runs the full HuffDuff pipeline against a victim device.
func Attack(victim Victim, cfg AttackConfig) (*AttackResult, error) {
	return attack.Attack(victim, cfg)
}

// AttackWithContext is Attack with a caller-supplied context; an
// ObsRecorder attached to the context (or set on cfg.Obs) receives the
// campaign's spans and metrics.
func AttackWithContext(ctx context.Context, victim Victim, cfg AttackConfig) (*AttackResult, error) {
	return attack.AttackContext(ctx, victim, cfg)
}

// Observability: spans, metrics, and export.
type (
	// ObsRecorder receives spans and metrics from an instrumented campaign.
	// AttackConfig.Obs, AccelConfig.Obs, and ChaosConfig.Obs all accept one;
	// nil disables instrumentation at the cost of a nil-check per site.
	ObsRecorder = obs.Recorder
	// ObsCollector is the in-memory Recorder with Chrome-trace/Perfetto and
	// metrics-JSON export (WriteTrace, WriteMetrics, Tree, Metrics).
	ObsCollector = obs.Collector
	// ObsSpan is one recorded wall-clock interval; End closes it.
	ObsSpan = obs.Span
)

// NewObsCollector builds an empty in-memory span and metrics collector.
func NewObsCollector() *ObsCollector { return obs.NewCollector() }

// WithObsRecorder attaches a recorder to a context for AttackWithContext.
func WithObsRecorder(ctx context.Context, rec ObsRecorder) context.Context {
	return obs.WithRecorder(ctx, rec)
}

// StartSpan opens a child span on the context's recorder (no-op without one).
func StartSpan(ctx context.Context, name string) (context.Context, *ObsSpan) {
	return obs.Start(ctx, name)
}

// Fault injection and error taxonomy.
type (
	// ChaosConfig sets per-fault-class injection intensities.
	ChaosConfig = chaos.Config
	// ChaosStats counts the faults a FaultyVictim injected.
	ChaosStats = chaos.Stats
	// FaultyVictim is a victim wrapped with seeded fault injection.
	FaultyVictim = chaos.FaultyVictim
)

// DefaultChaosConfig enables every fault class at its default intensity.
func DefaultChaosConfig() ChaosConfig { return chaos.DefaultConfig() }

// WrapChaos builds a fault-injecting view of a victim device.
func WrapChaos(v Victim, cfg ChaosConfig) *FaultyVictim { return chaos.Wrap(v, cfg) }

// Error classification sentinels; test with errors.Is.
var (
	// ErrTransient marks a momentary victim failure; retry.
	ErrTransient = faults.ErrTransient
	// ErrTraceCorrupt marks an observation that violates trace invariants;
	// re-run the inference.
	ErrTraceCorrupt = faults.ErrTraceCorrupt
	// ErrTimingUnusable marks timing measurements too noisy for K-ratio
	// recovery; the attack degrades to a timing-free solution space.
	ErrTimingUnusable = faults.ErrTimingUnusable
	// ErrBadConfig marks an invalid configuration; do not retry.
	ErrBadConfig = faults.ErrBadConfig
)

// Convergence observability: the solution-space collapse as a snapshot
// stream.
type (
	// ConvergeLedger records one ConvergeSnapshot per query batch and
	// solver stage; set it on AttackConfig.Ledger, then read the history
	// (Snapshots, Latest, Summary), stream it (Subscribe), or export it
	// (WriteJSONL). A nil ledger disables convergence tracking.
	ConvergeLedger = converge.Ledger
	// ConvergeSnapshot is one observation of the remaining solution space:
	// pipeline stage, cumulative victim queries, log10 volume, per-layer
	// candidate state, bits eliminated since the previous snapshot.
	ConvergeSnapshot = converge.Snapshot
	// ConvergeSummary condenses a finished ledger into the headline
	// convergence metrics (final volume, queries to 90% collapse).
	ConvergeSummary = converge.Summary
)

// NewConvergeLedger builds an empty convergence ledger; rec (optional,
// may be nil) additionally receives each snapshot's headline numbers as
// converge.* gauges.
func NewConvergeLedger(rec ObsRecorder) *ConvergeLedger { return converge.NewLedger(rec) }

// AttackStage extracts the pipeline stage ("calibration", "probe", "solve",
// "geometry", "timing", "finalize") an attack error originated in.
func AttackStage(err error) (string, bool) { return faults.StageOf(err) }

// SampleSolutions draws n distinct candidates uniformly from the solution
// space.
func SampleSolutions(space *SolutionSpace, n int, rng *rand.Rand) []Solution {
	return attack.SampleSolutions(space, n, rng)
}

// Training, data, and pruning.
type (
	// Dataset is a labelled image set.
	Dataset = dataset.Dataset
	// TrainConfig controls an SGD training run.
	TrainConfig = train.Config
)

// Synthetic generates the deterministic CIFAR-10-shaped synthetic dataset
// (see DESIGN.md "Substitutions").
var Synthetic = dataset.Synthetic

// DefaultTrainConfig suits the width-scaled models used in the evaluation.
func DefaultTrainConfig() TrainConfig { return train.DefaultConfig() }

// Fit trains a network; Accuracy evaluates top-1 accuracy.
var (
	Fit      = train.Fit
	Accuracy = train.Accuracy
)

// Pruning entry points.
var (
	// PruneGlobal prunes the smallest-magnitude weights network-wide.
	PruneGlobal = prune.GlobalMagnitude
	// PruneLayerwise prunes each layer independently.
	PruneLayerwise = prune.LayerwiseMagnitude
	// LotteryTicket runs iterative magnitude pruning with weight rewind.
	LotteryTicket = prune.LotteryTicket
	// OverallSparsity reports the pruned fraction of prunable weights.
	OverallSparsity = prune.OverallSparsity
)

// Adversarial transfer (Figs. 5–6).
type (
	// BIMConfig controls the iterative targeted attack.
	BIMConfig = adv.BIMConfig
	// TransferResult summarizes a targeted transfer evaluation.
	TransferResult = adv.TransferResult
)

var (
	// DefaultBIM returns the evaluation BIM config for a 0–255-scale ε.
	DefaultBIM = adv.DefaultBIM
	// EvaluateTransfer runs the §8.3 least-likely-label transfer protocol.
	EvaluateTransfer = adv.EvaluateTransfer
)

// Prior-work baseline (Table 1).
type (
	// LayerObs is a per-layer footprint observation for ReverseCNN.
	LayerObs = reversecnn.LayerObs
)

var (
	// SolveDense is the ReverseCNN dense-accelerator solver.
	SolveDense = reversecnn.SolveDense
	// SparseCount sizes the naïve sparse solution space.
	SparseCount = reversecnn.SparseCount
)
