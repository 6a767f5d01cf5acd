package huffduff

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/prof"
	"github.com/huffduff/huffduff/internal/symconv"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// Config is the end-to-end attack configuration.
type Config struct {
	Probe    ProbeConfig
	Finalize FinalizeConfig
	// BlockBytes is the DRAM transaction granularity, used to correct the
	// truncated head of the encoding interval (§7.2's "small inaccuracy").
	BlockBytes int
	// Converge enables §8.2's trial-escalation loop: the geometry solve is
	// repeated on a doubling trial schedule and convergence is declared
	// when two consecutive solves agree on every geometry (SameGeometry).
	// The full-trial solve always decides the returned result — observed
	// patterns only get finer with more trials (§5.4's one-sided error) —
	// while the loop feeds Result.Converged/TrialsConverged and the
	// per-layer confidence scores.
	Converge bool
	// ConvergeStart is the first trial count of the escalation schedule
	// (0 selects Trials/4, with a minimum of 2).
	ConvergeStart int
	// TimingTolerance is the maximum robust relative dispersion
	// (1.4826·MAD/median) tolerated in a conv layer's Δt samples before the
	// timing channel is declared unusable (0 disables the check).
	TimingTolerance float64
	// DegradeOnTimingFault turns an unusable timing channel (or a timing-
	// driven finalization failure) into a degraded, sparse-bound-only
	// solution space — Result.Degraded with a reason — instead of a failed
	// attack.
	DegradeOnTimingFault bool
	// EscalateNoiseTolerant re-collects in the §9.2 repeated-measurement
	// mode when the pattern solve finds no consistent geometry, before
	// giving up.
	EscalateNoiseTolerant bool
	// Obs, when set, receives the campaign's spans and metrics: hierarchical
	// wall-clock spans for every pipeline stage down to individual probe
	// positions, victim-query and retry counters, per-stage wall time, and
	// convergence diagnostics. Nil (the default) disables instrumentation at
	// the cost of one nil-check per site.
	Obs obs.Recorder
	// Progress, when set, receives coarse live progress: each pipeline
	// stage as it begins (calibrate, probe, solve, geometry, timing,
	// finalize) with done=total=0, and — during the probing campaign —
	// per-position counts (done positions, campaign total). It runs on the
	// attack goroutine; keep it cheap and non-blocking. Long-running
	// services (cmd/huffduffd) use it to report live campaign state.
	Progress func(stage string, done, total int)
	// Ledger, when set, receives a convergence Snapshot after every
	// knowledge-changing step: calibration, throttled probe progress, each
	// scheduled solve, the timing channel, and finalization (including the
	// degraded and budget-aborted paths, which append a final snapshot
	// before returning). The ledger also counts every victim inference.
	Ledger *converge.Ledger
}

// DefaultConfig matches the paper's evaluation setup: a clean simulated
// victim, no retries beyond the ProbeConfig default, fail-fast semantics.
func DefaultConfig() Config {
	return Config{
		Probe:      DefaultProbeConfig(),
		Finalize:   DefaultFinalizeConfig(),
		BlockBytes: 64,
	}
}

// DefaultRobustConfig returns the hardened pipeline configuration used
// against faulty victims (see internal/chaos): min-over-repeats collection
// with bounded retries, the §8.2 convergence loop, timing-dispersion checks
// with graceful degradation, and noise-tolerant escalation on solve failure.
func DefaultRobustConfig() Config {
	cfg := DefaultConfig()
	cfg.Probe.Robust = true
	// Re-running an inference is ~1000x cheaper than a solve, and at the
	// default chaos intensities roughly a third of traces are detectably
	// corrupt, so a deep retry budget is the right trade: 15 retries push
	// the chance of wrongly giving up on one observation below 1e-7.
	cfg.Probe.MaxRetries = 15
	cfg.Converge = true
	// A clean device's Δt is input-invariant, so any sample dispersion is
	// measurement jitter; the clamped-jitter median bias runs at roughly
	// half the dispersion, and pinning a 16-channel layer needs ratio
	// error under ~3%, so degrade once dispersion exceeds 5%.
	cfg.TimingTolerance = 0.05
	cfg.DegradeOnTimingFault = true
	cfg.EscalateNoiseTolerant = true
	return cfg
}

// Validate rejects configurations that would panic or silently misbehave
// downstream. Errors wrap faults.ErrBadConfig.
func (cfg Config) Validate() error {
	if cfg.BlockBytes <= 0 {
		return fmt.Errorf("huffduff: BlockBytes = %d, need a positive DRAM transaction size: %w", cfg.BlockBytes, faults.ErrBadConfig)
	}
	if cfg.ConvergeStart < 0 {
		return fmt.Errorf("huffduff: ConvergeStart = %d is negative: %w", cfg.ConvergeStart, faults.ErrBadConfig)
	}
	if cfg.TimingTolerance < 0 {
		return fmt.Errorf("huffduff: TimingTolerance = %g is negative: %w", cfg.TimingTolerance, faults.ErrBadConfig)
	}
	if err := cfg.Probe.Validate(); err != nil {
		return err
	}
	return cfg.Finalize.Validate()
}

// Result is everything the attack recovers.
type Result struct {
	Graph  *ObsGraph
	Data   *ProbeData
	Probe  *ProbeResult
	Dims   *SpatialDims
	Timing *TimingResult
	Space  *SolutionSpace
	// Confidence maps each conv and pool node to a (0,1] score combining
	// pattern-match exactness, hypothesis ties, and stability across the
	// convergence loop's solves (1 when Converge is off and the match was
	// exact and untied).
	Confidence map[int]float64
	// Converged reports whether two consecutive solves of the escalation
	// schedule agreed on every geometry (§8.2's criterion); TrialsConverged
	// is the smallest trial count from which every scheduled solve agreed
	// with the final geometry. Only populated when Config.Converge is set.
	Converged       bool
	TrialsConverged int
	// Degraded marks a sparse-bound-only solution space produced because
	// the timing channel was unusable; DegradedReason says why.
	Degraded       bool
	DegradedReason string
	// VictimRetries counts inferences re-run due to transient device
	// failures or corrupt traces.
	VictimRetries int
}

// Attack runs the full HuffDuff pipeline against a victim device:
//
//  1. replicated calibration inferences recover the dataflow graph,
//     footprints, and encoding intervals from RAW dependencies (§3.2),
//     cross-checked against each other to reject corrupted observations;
//  2. the boundary-effect probing campaign recovers every conv layer's
//     kernel/stride/pool via the symbolic engine (§5–6), retrying
//     transient failures and corrupt traces;
//  3. the psum-encoding timing channel recovers output-channel ratios
//     (§7) from the median of per-inference encoding intervals;
//  4. the first-layer sparsity bound pins the ratios to absolute channel
//     counts, yielding the final candidate set (§8.2).
//
// Failures carry the pipeline stage that died (faults.StageOf) and a
// sentinel class (errors.Is against faults.ErrTransient etc.). When the
// timing channel is unusable and Config.DegradeOnTimingFault is set, the
// attack degrades instead of failing: the returned Result has Degraded set
// and a sparse-bound-only solution space that still contains the truth.
func Attack(victim Victim, cfg Config) (*Result, error) {
	return AttackContext(context.Background(), victim, cfg)
}

// stageSpan opens a cost-attributed pipeline-stage region (obs span, pprof
// stage label, runtime sampling) and returns (stage ctx, closer); the closer
// ends the span and records the stage's host wall time into the
// `stage.seconds{stage=...}` histogram plus the `prof.stage.*` resource
// counters. See internal/prof.
func stageSpan(ctx context.Context, name string) (context.Context, func()) {
	return prof.Stage(ctx, name)
}

// AttackContext is Attack with a caller-supplied context. Config.Obs (when
// set) is attached to the context, so spans and metrics flow to it; a
// recorder already present in ctx is used otherwise.
func AttackContext(ctx context.Context, victim Victim, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, faults.Stage("config", err)
	}
	if cfg.Obs != nil {
		ctx = obs.WithRecorder(ctx, cfg.Obs)
	}
	ctx = converge.WithLedger(ctx, cfg.Ledger)
	ctx, root := obs.Start(ctx, "attack")
	defer root.End()
	hook := ledgerHook{led: cfg.Ledger, cfg: cfg}

	fin := cfg.Finalize
	// The solver's consistency filters and the finalizer must agree on the
	// device model.
	cfg.Probe.Consistency = &fin
	cfg.Probe.BlockBytes = cfg.BlockBytes
	if cfg.Progress != nil && cfg.Probe.Progress == nil {
		report := cfg.Progress
		cfg.Probe.Progress = func(done, total int) { report("probe", done, total) }
	}
	stage := func(ctx context.Context, name string) (context.Context, func()) {
		if cfg.Progress != nil {
			cfg.Progress(name, 0, 0)
		}
		return stageSpan(ctx, name)
	}

	res := &Result{}

	// 1. Calibration.
	cctx, endCal := stage(ctx, "calibrate")
	g, err := calibrate(cctx, victim, cfg, res)
	endCal()
	if err != nil {
		return nil, faults.Stage("calibration", err)
	}
	res.Graph = g
	hook.g = g
	hook.snap("calibrate", nil, nil, nil, nil, nil)

	// Ledger probe snapshots: the per-position callback fires thousands of
	// times per campaign, so snapshots are throttled to ~8 per probe stage
	// (plus the final position). The volume is flat here — probing gathers
	// evidence, the solve spends it — which is exactly what the queries-vs-
	// volume curve should show.
	if cfg.Ledger != nil {
		prev := cfg.Probe.Progress
		hk := hook
		cfg.Probe.Progress = func(done, total int) {
			if prev != nil {
				prev(done, total)
			}
			step := total / 8
			if step < 1 {
				step = 1
			}
			if done%step == 0 || done == total {
				hk.snap("probe", nil, nil, nil, nil, nil)
			}
		}
	}

	// 2. Probing campaign.
	pctx, endProbe := stage(ctx, "probe")
	data, err := CollectContext(pctx, victim, g, fin.InC, fin.InH, fin.InW, cfg.Probe)
	endProbe()
	if err != nil {
		return nil, faults.Stage("probe", err)
	}
	res.VictimRetries += data.Retries

	// 3. Geometry solve, with the §8.2 convergence loop and — if the solve
	// finds no consistent geometry — one escalation into the §9.2
	// repeated-measurement mode.
	sctx, endSolve := stage(ctx, "solve")
	pr, conv, serr := solveConverged(sctx, data, cfg)
	endSolve()
	if serr != nil && cfg.EscalateNoiseTolerant && !cfg.Probe.NoiseTolerant {
		ncfg := cfg.Probe
		ncfg.NoiseTolerant = true
		pctx, endProbe := stage(ctx, "probe")
		nd, nerr := CollectContext(pctx, victim, g, fin.InC, fin.InH, fin.InW, ncfg)
		endProbe()
		if nerr != nil {
			return nil, faults.Stage("probe", fmt.Errorf("noise-tolerant escalation after solve failure (%v): %w", serr, nerr))
		}
		res.VictimRetries += nd.Retries
		sctx, endSolve := stage(ctx, "solve")
		pr2, conv2, serr2 := solveConverged(sctx, nd, cfg)
		endSolve()
		if serr2 == nil {
			data, pr, conv, serr = nd, pr2, conv2, nil
		} else {
			serr = fmt.Errorf("pattern solve failed in plain (%v) and noise-tolerant (%w) modes", serr, serr2)
		}
	}
	if serr != nil {
		return nil, faults.Stage("solve", serr)
	}
	res.Data, res.Probe = data, pr
	res.Converged, res.TrialsConverged, res.Confidence = conv.converged, conv.trialsConverged, conv.confidence

	// 4. Spatial propagation.
	_, endGeom := stage(ctx, "geometry")
	dims, err := PropagateDims(g, pr, fin.InH)
	endGeom()
	if err != nil {
		return nil, faults.Stage("geometry", err)
	}
	res.Dims = dims

	// 5. Timing channel — from the per-inference Δt samples the campaign
	// gathered, falling back to the calibration interval if none exist.
	var terr error
	_, endTiming := stage(ctx, "timing")
	if len(data.Enc) > 0 {
		res.Timing, terr = TimingChannelFromSamples(g, dims, data.Enc, cfg.TimingTolerance)
	} else {
		res.Timing, terr = TimingChannel(g, dims, cfg.BlockBytes)
	}
	res.Timing.Record(obs.RecorderFrom(ctx))
	if terr == nil {
		hook.snap("timing", pr, res.Timing, nil, conv.confidence, nil)
	}
	endTiming()

	// 6. Solution space, with graceful degradation when the timing channel
	// cannot be trusted.
	fctx, endFinalize := stage(ctx, "finalize")
	defer endFinalize()
	if terr == nil {
		space, ferr := Finalize(g, pr, dims, res.Timing, fin)
		if ferr == nil {
			res.Space = space
			res.recordSpace(fctx)
			hook.snap("finalize", pr, res.Timing, space, conv.confidence, func(s *converge.Snapshot) {
				s.Done = true
			})
			return res, nil
		}
		if !cfg.DegradeOnTimingFault {
			return nil, faults.Stage("finalize", ferr)
		}
		terr = fmt.Errorf("finalize rejected the timing-pinned space (%v): %w", ferr, faults.ErrTimingUnusable)
	} else if !cfg.DegradeOnTimingFault || !errors.Is(terr, faults.ErrTimingUnusable) {
		return nil, faults.Stage("timing", terr)
	}
	// Degraded path: report it through the same progress/ledger hooks as
	// every other stage so degraded campaigns stay observable (operators
	// see *why* the space got wider, not just that finalize ran twice).
	if cfg.Progress != nil {
		cfg.Progress("finalize_degraded", 0, 0)
	}
	space, derr := FinalizeDegraded(g, pr, dims, fin)
	if derr != nil {
		return nil, faults.Stage("finalize", fmt.Errorf("degraded fallback after %v: %w", terr, derr))
	}
	res.Space = space
	res.Degraded = true
	res.DegradedReason = terr.Error()
	res.recordSpace(fctx)
	note := terr.Error()
	hook.snap("finalize_degraded", pr, nil, space, conv.confidence, func(s *converge.Snapshot) {
		s.Done = true
		s.Degraded = true
		s.Note = note
	})
	return res, nil
}

// recordSpace publishes the finalized solution space's headline numbers.
func (res *Result) recordSpace(ctx context.Context) {
	if res.Space == nil {
		return
	}
	obs.Gauge(ctx, "solution.space.count", "", float64(res.Space.Count()))
	obs.Gauge(ctx, "solution.space.k1min", "", float64(res.Space.K1Min))
	obs.Gauge(ctx, "solution.space.k1max", "", float64(res.Space.K1Max))
	obs.Gauge(ctx, "solution.space.geom_ambiguity", "", float64(res.Space.GeomAmbiguity))
	degraded := 0.0
	if res.Degraded {
		degraded = 1
	}
	obs.Gauge(ctx, "attack.degraded", "", degraded)
}

// calibrationReplicas is how many independent calibration inferences are
// cross-checked against each other. Graph structure, dependencies, and
// weight footprints are input-invariant, so replicas must agree exactly on
// them; per-segment volumes keep the minimum across replicas, since every
// surviving noise source (padding-style inflation) is strictly additive.
const calibrationReplicas = 2

func calibrate(ctx context.Context, victim Victim, cfg Config, res *Result) (*ObsGraph, error) {
	fin := cfg.Probe.Consistency
	rng := newRNG(cfg.Probe.Seed + 7919)
	img := tensor.New(fin.InC, fin.InH, fin.InW)
	img.Uniform(rng, 0.05, 0.95)
	run := func() ([]trace.SegmentObs, error) {
		rctx, sp := obs.Start(ctx, "calibrate.replica")
		segs, retries, err := runObserved(rctx, victim, img, cfg.Probe, nil)
		sp.End()
		res.VictimRetries += retries
		return segs, err
	}
	var lastErr error
	for attempt := 0; attempt <= cfg.Probe.MaxRetries; attempt++ {
		merged, err := run()
		if err != nil {
			return nil, err // runObserved already spent the retry budget
		}
		ok := true
		for r := 1; r < calibrationReplicas; r++ {
			b, err := run()
			if err != nil {
				return nil, err
			}
			if merged, err = mergeCalibration(merged, b); err != nil {
				lastErr, ok = err, false
				break
			}
		}
		if !ok {
			continue
		}
		g, err := BuildGraph(merged)
		if err == nil {
			return g, nil
		}
		if !faults.Retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("calibration replicas never agreed: %w", lastErr)
}

// mergeCalibration reconciles two calibration replicas: structure must
// match, volumes keep the minimum, and the encoding interval keeps the
// shorter observation (jitter clamping only stretches intervals).
func mergeCalibration(a, b []trace.SegmentObs) ([]trace.SegmentObs, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("huffduff: calibration replicas disagree: %d vs %d segments: %w", len(a), len(b), faults.ErrTraceCorrupt)
	}
	out := append([]trace.SegmentObs(nil), a...)
	for i := range a {
		if a[i].WeightBytes != b[i].WeightBytes {
			return nil, fmt.Errorf("huffduff: calibration replicas disagree on segment %d weight bytes (%d vs %d): %w",
				i, a[i].WeightBytes, b[i].WeightBytes, faults.ErrTraceCorrupt)
		}
		if !equalInts(a[i].Deps, b[i].Deps) {
			return nil, fmt.Errorf("huffduff: calibration replicas disagree on segment %d deps (%v vs %v): %w",
				i, a[i].Deps, b[i].Deps, faults.ErrTraceCorrupt)
		}
		if b[i].OutputBytes < out[i].OutputBytes {
			out[i].OutputBytes = b[i].OutputBytes
		}
		if b[i].InputBytes < out[i].InputBytes {
			out[i].InputBytes = b[i].InputBytes
		}
		if b[i].EncodingTime() < out[i].EncodingTime() {
			out[i].FirstWrite, out[i].LastWrite = b[i].FirstWrite, b[i].LastWrite
		}
	}
	return out, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// convergence is the §8.2 trial-escalation report.
type convergence struct {
	converged       bool
	trialsConverged int
	confidence      map[int]float64
}

// solveConverged runs the solve schedule: with Config.Converge, a doubling
// sequence of trial counts ending at the full collected count; otherwise
// the single full-trial solve. The full-trial result is always the answer;
// the earlier solves feed the convergence report and per-layer confidence.
func solveConverged(ctx context.Context, data *ProbeData, cfg Config) (*ProbeResult, convergence, error) {
	total := data.Cfg.Trials
	var schedule []int
	if cfg.Converge {
		start := cfg.ConvergeStart
		if start == 0 {
			start = total / 4
		}
		if start < 2 {
			start = 2
		}
		for t := start; t < total; t *= 2 {
			schedule = append(schedule, t)
		}
	}
	schedule = append(schedule, total)

	hook := ledgerHook{led: cfg.Ledger, g: data.Graph, cfg: cfg}
	results := make([]*ProbeResult, len(schedule))
	var lastErr error
	for i, t := range schedule {
		ictx, sp := obs.Startf(ctx, "solve.trials=%d", t)
		obs.Count(ictx, "solve.iterations", "", 1)
		pr, err := data.Solve(t)
		if err != nil {
			lastErr = err
			sp.End()
			continue
		}
		note := fmt.Sprintf("trials=%d", t)
		hook.snap("solve", pr, nil, nil, nil, func(s *converge.Snapshot) { s.Note = note })
		obs.Gauge(ictx, "solve.ambiguity", fmt.Sprintf("trials=%d", t), float64(solveAmbiguity(pr)))
		results[i] = pr
		sp.End()
	}
	final := results[len(results)-1]
	if final == nil {
		return nil, convergence{}, lastErr
	}

	out := convergence{confidence: map[int]float64{}}
	stableFrom := len(results) - 1
	for i := len(results) - 1; i >= 0; i-- {
		if results[i] == nil || !SameGeometry(results[i], final) {
			break
		}
		stableFrom = i
	}
	out.trialsConverged = schedule[stableFrom]
	out.converged = stableFrom < len(results)-1

	solved := 0
	for _, r := range results {
		if r != nil {
			solved++
		}
	}
	stability := func(agree func(r *ProbeResult) bool) float64 {
		n := 0
		for _, r := range results {
			if r != nil && agree(r) {
				n++
			}
		}
		return float64(n) / float64(solved)
	}
	for id, geom := range final.Geoms {
		c := stability(func(r *ProbeResult) bool { return r.Geoms[id] == geom })
		if n := len(final.Candidates[id]); n > 1 {
			c /= float64(n)
		}
		if !final.Exact[id] {
			c *= 0.5
		}
		out.confidence[id] = c
	}
	for id, f := range final.PoolFactors {
		out.confidence[id] = stability(func(r *ProbeResult) bool { return r.PoolFactors[id] == f })
	}
	return final, out, nil
}

// solveAmbiguity is the capped product of every node's pattern-tie count —
// how many architectures one solve left indistinguishable.
func solveAmbiguity(pr *ProbeResult) int {
	const ambCap = 1 << 30
	// Sorted node order: once the product saturates the cap, the value
	// depends on multiplication order, and this number lands in the
	// convergence-ledger JSONL that must not differ between identical runs.
	ids := make([]int, 0, len(pr.Candidates))
	for id := range pr.Candidates {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	amb := 1
	for _, id := range ids {
		if n := len(pr.Candidates[id]); n > 1 && amb < ambCap {
			amb *= n
		}
	}
	return amb
}

// SameGeometry reports whether two probe results agree on every conv
// geometry and pool factor — the convergence criterion of §8.2's
// trial-escalation loop.
func SameGeometry(a, b *ProbeResult) bool {
	if len(a.Geoms) != len(b.Geoms) || len(a.PoolFactors) != len(b.PoolFactors) {
		return false
	}
	for id, g := range a.Geoms {
		if b.Geoms[id] != g {
			return false
		}
	}
	for id, f := range a.PoolFactors {
		if b.PoolFactors[id] != f {
			return false
		}
	}
	return true
}

// SampleSolutions draws n distinct candidates uniformly from the solution
// space (the paper samples 8 per victim for retraining).
func SampleSolutions(space *SolutionSpace, n int, rng *rand.Rand) []Solution {
	if n >= len(space.Solutions) {
		return append([]Solution(nil), space.Solutions...)
	}
	idx := rng.Perm(len(space.Solutions))[:n]
	out := make([]Solution, 0, n)
	for _, i := range idx {
		out = append(out, space.Solutions[i])
	}
	return out
}

// ObservabilityRate estimates §5.2's single-probe observability: the
// fraction of (trial, conv-layer) pairs whose observed single-trial pattern
// already distinguishes more than one class where the true geometry says it
// should. The paper measures 77% on random pruned kernels.
func ObservabilityRate(data *ProbeData, pr *ProbeResult) float64 {
	observable, total := 0, 0
	for _, id := range data.Graph.ConvNodes() {
		if pr.Geoms[id].Kernel == 1 {
			continue // no boundary effect exists for pointwise layers
		}
		for t := 0; t < data.Cfg.Trials; t++ {
			total++
			// Single-trial pattern from family 0 only.
			vals := make([]int, data.Cfg.Q)
			for q := 0; q < data.Cfg.Q; q++ {
				vals[q] = data.Bytes[id][0][q][t]
			}
			if symconv.NumClasses(symconv.ClassPattern(vals)) > 1 {
				observable++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(observable) / float64(total)
}
