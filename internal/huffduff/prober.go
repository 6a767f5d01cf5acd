package huffduff

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/symconv"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// Geom is one conv layer's geometry hypothesis/recovery.
type Geom struct {
	Kernel, Stride, Pool int
}

// ProbeConfig controls the boundary-effect prober.
type ProbeConfig struct {
	// Trials is T, the number of independent random value instantiations
	// (§5.4's probability amplification).
	Trials int
	// Q is the number of probe positions per family.
	Q int
	// Kernels/Strides/Pools span the per-layer hypothesis space.
	Kernels, Strides, Pools []int
	// PoolNodeFactors are the hypotheses for standalone pooling nodes.
	PoolNodeFactors []int
	// NoiseTolerant switches the prober into the repeated-measurement mode
	// that §9.2 anticipates against the randomized-padding defence: each
	// probe inference is repeated 25 times (noiseRepeats), and probe
	// positions are related by comparing mean transfer volumes against a
	// noise scale estimated from the repeats. The defence's padding is
	// additive with a content-independent distribution, so the mean volume
	// remains strictly monotone in nnz and averaging recovers the signal.
	NoiseTolerant bool
	// Consistency enables the §7-based tie-breaking filters during the
	// solve: weight-capacity bounds, transfer-header bounds, and timing-
	// implied channel consistency. Deep layers whose boundary patterns
	// never converge within the image width are unidentifiable from
	// patterns alone; these filters (plus the small-kernel prior) decide
	// them. Nil disables the filters (pattern-only matching).
	Consistency *FinalizeConfig
	// BlockBytes is the DRAM transaction size, for the Δt head correction.
	BlockBytes int
	// Seed drives probe value randomness.
	Seed int64
	// MaxRetries bounds per-inference retries on transient victim failures
	// and corrupt traces (faults.Retryable); 0 disables retry.
	MaxRetries int
	// Robust enables the fault-hardened collection mode: each probe
	// inference runs at least twice (robustRepeats) and until the last two
	// runs agree on every node's volume (at most three more runs), with
	// per-node volumes aggregating by minimum — after trace-consistency
	// retries the surviving noise (§9.1-style padding) is strictly
	// additive, so the minimum over any clean run recovers the true value.
	// The partition then relates two probe positions only when every
	// (family, trial) volume agrees: any tolerance would also forgive the
	// rare genuine distinctions that §5.4 trial escalation exists to
	// amplify.
	Robust bool
}

// Per-probe repetition counts of the two repeated-measurement modes.
const (
	// robustRepeats is the minimum in Robust mode.
	robustRepeats = 2
	// noiseRepeats is the count in NoiseTolerant mode.
	noiseRepeats = 25
)

// DefaultProbeConfig returns the configuration used in the evaluation.
func DefaultProbeConfig() ProbeConfig {
	fin := DefaultFinalizeConfig()
	return ProbeConfig{
		Trials:          32,
		Q:               24,
		Kernels:         []int{1, 3, 5, 7},
		Strides:         []int{1, 2},
		Pools:           []int{1, 2},
		PoolNodeFactors: []int{2, 4, 8},
		Consistency:     &fin,
		BlockBytes:      64,
		Seed:            1,
		MaxRetries:      4,
	}
}

// Validate rejects configurations that would panic or silently misbehave
// downstream. Errors wrap faults.ErrBadConfig.
func (cfg ProbeConfig) Validate() error {
	bad := func(format string, args ...any) error {
		args = append(args, faults.ErrBadConfig)
		return fmt.Errorf("huffduff: "+format+": %w", args...)
	}
	if cfg.Trials < 1 {
		return bad("Trials = %d, need at least 1 probe trial", cfg.Trials)
	}
	if cfg.Q < 2 {
		return bad("Q = %d, need at least 2 probe positions", cfg.Q)
	}
	for _, l := range []struct {
		name string
		vals []int
		min  int
	}{
		{"Kernels", cfg.Kernels, 1},
		{"Strides", cfg.Strides, 1},
		{"Pools", cfg.Pools, 1},
	} {
		if len(l.vals) == 0 {
			return bad("empty %s hypothesis list", l.name)
		}
		for _, v := range l.vals {
			if v < l.min {
				return bad("%s hypothesis %d below minimum %d", l.name, v, l.min)
			}
		}
	}
	for _, v := range cfg.PoolNodeFactors {
		if v < 1 {
			return bad("PoolNodeFactors hypothesis %d below minimum 1", v)
		}
	}
	if cfg.BlockBytes < 0 {
		return bad("BlockBytes = %d is negative", cfg.BlockBytes)
	}
	if cfg.MaxRetries < 0 {
		return bad("negative retry budget (MaxRetries=%d)", cfg.MaxRetries)
	}
	if cfg.Consistency != nil {
		return cfg.Consistency.Validate()
	}
	return nil
}

// hypotheses enumerates the per-layer geometry space in canonical order
// (smallest kernel first — the tie-break prior for the conv3+pool2 /
// conv5+stride2 alias).
func (cfg ProbeConfig) hypotheses() []Geom {
	var hs []Geom
	for _, k := range cfg.Kernels {
		for _, s := range cfg.Strides {
			for _, p := range cfg.Pools {
				if k == 1 && p > 1 {
					// No boundary effect exists for pointwise convs, so
					// pooling behind them is unobservable; excluded by the
					// workload prior (pooling follows spatial convs).
					continue
				}
				hs = append(hs, Geom{k, s, p})
			}
		}
	}
	return hs
}

// ProbeData is the raw measurement matrix gathered from the device:
// output transfer volumes per graph node, probe family, probe position,
// and random trial.
type ProbeData struct {
	Graph    *ObsGraph
	Families []probe.Pattern
	InH, InW int
	// Bytes[node][family][probeIdx][trial]: in NoiseTolerant mode this is
	// the rounded mean over repeats; Means holds the exact values.
	Bytes [][][][]int
	// Means[node][family][probeIdx][trial] (NoiseTolerant mode only).
	Means [][][][]float64
	// Sigma[node] is the per-node standard deviation of one measurement's
	// defence noise, estimated from the repeats.
	Sigma   []float64
	Repeats int
	Cfg     ProbeConfig
	// Enc[node] holds one head-corrected encoding-interval sample per
	// accepted inference — the raw material for the robust timing channel
	// (§7 via the median instead of a single calibration observation).
	Enc [][]float64
	// Retries counts inferences re-run due to transient victim failures or
	// corrupt traces during this campaign.
	Retries int
}

// ctxVictim is the optional context-aware victim interface. accel.Machine
// implements it so per-layer pprof labels (and any future per-run context)
// flow into the simulator, and so do the wrappers around it
// (chaos.FaultyVictim, the daemon's supervisor), which pass the context on;
// victims that only implement Run work unchanged.
type ctxVictim interface {
	RunCtx(ctx context.Context, img *tensor.Tensor) (*trace.Trace, error)
}

// runVictim dispatches one inference, preferring the context-aware path.
func runVictim(ctx context.Context, victim Victim, img *tensor.Tensor) (*trace.Trace, error) {
	if cv, ok := victim.(ctxVictim); ok {
		return cv.RunCtx(ctx, img)
	}
	return victim.Run(img)
}

// runObserved runs one victim inference, analyzes the trace, and validates
// it (trace.Validate plus the optional caller check), retrying transient
// failures and corrupt traces up to cfg.MaxRetries times. It returns the
// accepted observation and how many retries were spent. Every attempt
// increments victim.inferences; retries are counted per sentinel class
// under victim.retries{class=...}.
// With a recorder attached, the host cost of every attempt lands in the
// victim.run_seconds and victim.analyze_seconds histograms — the per-query
// price the cost-attribution report summarizes.
func runObserved(ctx context.Context, victim Victim, img *tensor.Tensor, cfg ProbeConfig, check func([]trace.SegmentObs) error) ([]trace.SegmentObs, int, error) {
	rec := obs.RecorderFrom(ctx)
	runOnce := func() ([]trace.SegmentObs, error) {
		obs.Count(ctx, "victim.inferences", "", 1)
		converge.FromContext(ctx).AddQueries(1)
		var runStart time.Time
		if rec != nil {
			runStart = time.Now()
		}
		tr, err := runVictim(ctx, victim, img)
		if rec != nil {
			rec.Observe("victim.run_seconds", "", time.Since(runStart).Seconds())
		}
		if err != nil {
			return nil, fmt.Errorf("huffduff: victim inference: %w", err)
		}
		var anaStart time.Time
		if rec != nil {
			anaStart = time.Now()
		}
		segs, err := trace.Analyze(tr)
		if rec != nil {
			rec.Observe("victim.analyze_seconds", "", time.Since(anaStart).Seconds())
		}
		if err != nil {
			return nil, fmt.Errorf("huffduff: trace analysis: %w", err)
		}
		if err := trace.Validate(segs); err != nil {
			return nil, fmt.Errorf("huffduff: trace validation: %w", err)
		}
		if check != nil {
			if err := check(segs); err != nil {
				return nil, err
			}
		}
		return segs, nil
	}
	retries := 0
	for attempt := 0; ; attempt++ {
		segs, err := runOnce()
		if err == nil {
			return segs, retries, nil
		}
		if !faults.Retryable(err) || attempt >= cfg.MaxRetries {
			if attempt > 0 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempt+1)
			}
			return nil, retries, err
		}
		retries++
		obs.Count(ctx, "victim.retries", "class="+retryClass(err), 1)
	}
}

// retryClass maps a retryable error to its faults sentinel class, labelling
// the victim.retries counter series.
func retryClass(err error) string {
	switch {
	case errors.Is(err, faults.ErrTransient):
		return "transient"
	case errors.Is(err, faults.ErrTraceCorrupt):
		return "trace_corrupt"
	default:
		return "other"
	}
}

// Collect runs the probing campaign: Trials × families × Q inferences
// (times the per-probe repeat count in Robust or NoiseTolerant mode). Every
// trace is cross-checked against the calibration graph — segment count and
// weight footprints are input-invariant — and against trace.Validate's byte
// accounting; failing inferences are retried within cfg.MaxRetries.
func Collect(victim Victim, g *ObsGraph, inC, inH, inW int, cfg ProbeConfig) (*ProbeData, error) {
	return CollectContext(context.Background(), victim, g, inC, inH, inW, cfg)
}

// CollectContext is Collect with a caller-supplied context; an obs.Recorder
// attached to ctx receives the probe-position, victim-query and retry
// counters, and a converge.Ledger attached to ctx counts every inference
// and receives about eight probe snapshots, each noting the positions done
// so far (positions=k/N).
func CollectContext(ctx context.Context, victim Victim, g *ObsGraph, inC, inH, inW int, cfg ProbeConfig) (*ProbeData, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	families := []probe.Pattern{
		{M: 0, N: 1, Q: cfg.Q, FeatRow: inH / 2},
		{M: 0, N: 2, Q: cfg.Q, FeatRow: inH/2 - 1},
		{M: 0, N: 1, Q: cfg.Q, FeatRow: inH / 2, FromRight: true},
		{M: 0, N: 2, Q: cfg.Q, FeatRow: inH/2 - 1, FromRight: true},
	}
	for _, f := range families {
		if err := f.Validate(inH, inW); err != nil {
			return nil, fmt.Errorf("huffduff: probe family: %w", err)
		}
	}
	pd := &ProbeData{Graph: g, Families: families, InH: inH, InW: inW, Cfg: cfg}
	pd.Bytes = make([][][][]int, len(g.Nodes))
	for n := range pd.Bytes {
		pd.Bytes[n] = make([][][]int, len(families))
		for f := range families {
			pd.Bytes[n][f] = make([][]int, cfg.Q)
			for q := range pd.Bytes[n][f] {
				pd.Bytes[n][f][q] = make([]int, cfg.Trials)
			}
		}
	}
	pd.Repeats = 1
	aggMin := false
	switch {
	case cfg.NoiseTolerant:
		pd.Repeats = noiseRepeats
		pd.Means = make([][][][]float64, len(g.Nodes))
		for n := range pd.Means {
			pd.Means[n] = make([][][]float64, len(families))
			for f := range families {
				pd.Means[n][f] = make([][]float64, cfg.Q)
				for q := range pd.Means[n][f] {
					pd.Means[n][f][q] = make([]float64, cfg.Trials)
				}
			}
		}
	case cfg.Robust:
		pd.Repeats = robustRepeats
		aggMin = true
	}
	pd.Sigma = make([]float64, len(g.Nodes))
	pd.Enc = make([][]float64, len(g.Nodes))
	varSum := make([]float64, len(g.Nodes))
	varCnt := 0
	rng := newRNG(cfg.Seed)
	// Weight footprints and segmentation are input-invariant, so every
	// probe trace must reproduce the calibration structure exactly; a
	// mismatch means a corrupted observation, not a different victim.
	check := func(obs []trace.SegmentObs) error {
		if len(obs) != len(g.Nodes) {
			return fmt.Errorf("huffduff: probe trace has %d segments, calibration had %d: %w",
				len(obs), len(g.Nodes), faults.ErrTraceCorrupt)
		}
		for n := range obs {
			if obs[n].WeightBytes != g.Nodes[n].WeightBytes {
				return fmt.Errorf("huffduff: probe trace segment %d weight bytes %d, calibration had %d: %w",
					n, obs[n].WeightBytes, g.Nodes[n].WeightBytes, faults.ErrTraceCorrupt)
			}
		}
		return nil
	}
	runOne := func(fam probe.Pattern, vals probe.Values, q int) ([]trace.SegmentObs, error) {
		img := probe.Image(fam, vals, q, inC, inH, inW)
		segs, retries, err := runObserved(ctx, victim, img, cfg, check)
		pd.Retries += retries
		return segs, err
	}
	sums := make([]float64, len(g.Nodes))
	sqs := make([]float64, len(g.Nodes))
	mins := make([]int, len(g.Nodes))
	cur := make([]int, len(g.Nodes))
	prev := make([]int, len(g.Nodes))
	// In Robust mode, repeat beyond robustRepeats until two consecutive
	// runs agree on every node volume: residual consistent padding (which
	// passes byte accounting) then has to inflate the same node by the
	// same amount twice in a row to be believed, and the minimum over all
	// runs recovers the clean value whenever any single run was clean.
	maxRep := pd.Repeats
	if aggMin {
		maxRep += 3
	}
	// Ledger probe snapshots, throttled to ~8 per collection plus the final
	// position. The volume is flat here — probing gathers evidence, the
	// solve spends it — which is exactly what the queries-vs-volume curve
	// should show.
	hook := ledgerHook{led: converge.FromContext(ctx), g: g, probe: cfg}
	total := cfg.Trials * len(families) * cfg.Q
	step := max(total/8, 1)
	for t := 0; t < cfg.Trials; t++ {
		for fi, fam := range families {
			vals := probe.RandomValues(rng, fam)
			for q := 0; q < cfg.Q; q++ {
				obs.Count(ctx, "probe.positions", "", 1)
				for n := range sums {
					sums[n], sqs[n] = 0, 0
				}
				reps := 0
				for r := 0; r < maxRep; r++ {
					segs, err := runOne(fam, vals, q)
					if err != nil {
						return nil, err
					}
					agreed := r > 0
					for n := 1; n < len(segs); n++ {
						bytes := segs[n].OutputBytes
						b := float64(bytes)
						sums[n] += b
						sqs[n] += b * b
						if r == 0 || bytes < mins[n] {
							mins[n] = bytes
						}
						if bytes != prev[n] {
							agreed = false
						}
						cur[n] = bytes
						if dt := segs[n].EncodingTime(); dt > 0 && bytes > cfg.BlockBytes {
							if cfg.BlockBytes > 0 {
								dt = dt * b / (b - float64(cfg.BlockBytes))
							}
							pd.Enc[n] = append(pd.Enc[n], dt)
						}
					}
					prev, cur = cur, prev
					reps++
					if reps >= pd.Repeats && (!aggMin || agreed) {
						break
					}
				}
				rr := float64(reps)
				for n := 1; n < len(g.Nodes); n++ {
					mean := sums[n] / rr
					if aggMin {
						pd.Bytes[n][fi][q][t] = mins[n]
					} else {
						pd.Bytes[n][fi][q][t] = int(mean + 0.5)
					}
					if pd.Means != nil {
						pd.Means[n][fi][q][t] = mean
					}
					if reps > 1 {
						varSum[n] += sqs[n]/rr - mean*mean
					}
				}
				if reps > 1 {
					varCnt++
				}
				if done := (t*len(families)+fi)*cfg.Q + q + 1; done%step == 0 || done == total {
					hook.snap("probe", nil, nil, nil, nil, func(s *converge.Snapshot) {
						s.Note = fmt.Sprintf("positions=%d/%d", done, total)
					})
				}
			}
		}
	}
	if varCnt > 0 {
		for n := range pd.Sigma {
			v := varSum[n] / float64(varCnt)
			if v > 0 {
				pd.Sigma[n] = math.Sqrt(v)
			}
		}
	}
	return pd, nil
}

// observedPartition builds the class pattern over probe positions for one
// node using the first `trials` trials of every family: two positions share
// a class when every (family, trial) volume agrees, or, in NoiseTolerant
// mode, when their means agree within the noise.
func (pd *ProbeData) observedPartition(node, trials int) []int {
	if pd.Cfg.NoiseTolerant {
		return pd.noiseTolerantPartition(node, trials)
	}
	keys := make([]string, pd.Cfg.Q)
	for q := 0; q < pd.Cfg.Q; q++ {
		key := ""
		for f := range pd.Families {
			for t := 0; t < trials; t++ {
				key += fmt.Sprintf("%d,", pd.Bytes[node][f][q][t])
			}
			key += ";"
		}
		keys[q] = key
	}
	return symconv.ClassPattern(keys)
}

// noiseTolerantPartition relates two probe positions when their mean
// volumes agree within the estimated noise of an R-repeat average in a
// majority of (family, trial) draws, then takes the transitive closure —
// the repeated-trials counter-measure §9.2 anticipates against the
// randomized-padding defence.
func (pd *ProbeData) noiseTolerantPartition(node, trials int) []int {
	q := pd.Cfg.Q
	// Two R-averaged means differ by noise with std σ·sqrt(2/R); use a 3σ
	// acceptance band.
	tol := 3 * pd.Sigma[node] * math.Sqrt(2/float64(pd.Repeats))
	uf := newUnionFind(q)
	for i := 0; i < q; i++ {
		for j := i + 1; j < q; j++ {
			agree, total := 0, 0
			for f := range pd.Families {
				for t := 0; t < trials; t++ {
					total++
					diff := pd.Means[node][f][i][t] - pd.Means[node][f][j][t]
					if diff < 0 {
						diff = -diff
					}
					if diff <= tol {
						agree++
					}
				}
			}
			if agree*2 > total {
				uf.union(i, j)
			}
		}
	}
	return symconv.ClassPattern(uf.labels())
}

// unionFind is a small disjoint-set forest used by the noise-tolerant
// partition builder.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(x int) int {
	if u.parent[x] != x {
		u.parent[x] = u.find(u.parent[x])
	}
	return u.parent[x]
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// labels returns each element's representative, suitable for ClassPattern.
func (u *unionFind) labels() []int {
	out := make([]int, len(u.parent))
	for i := range out {
		out[i] = u.find(i)
	}
	return out
}

// ProbeResult is the prober's output: per-node geometry.
type ProbeResult struct {
	// Geoms is the chosen geometry per conv node.
	Geoms map[int]Geom
	// Candidates lists every hypothesis that matched the observed pattern
	// as well as the chosen one at that node, given the chosen prefix
	// (>1 entries mean a genuine ambiguity carried into the solution
	// space).
	Candidates map[int][]Geom
	// PoolFactors is the recovered factor per standalone pooling node.
	PoolFactors map[int]int
	// Exact[node] reports whether the chosen hypothesis matched the
	// observation exactly (vs merely refining it).
	Exact map[int]bool
	// TrialsUsed is how many trials the result was computed from.
	TrialsUsed int
	// Cells counts the symbolic grid cells the solve evaluated, over every
	// hypothesis it tried: the solver's cost, independent of the host.
	Cells int
}

// solver carries the state of the backtracking geometry search.
type solver struct {
	pd     *ProbeData
	eng    *symconv.Engine
	trials int

	observed map[int][]int // per node, memoized observed pattern

	// Per-node assignment state (indexed by node ID).
	sets  []*symconv.Set // the probe set each node outputs
	geom  map[int]Geom
	exact map[int]bool
	cand  map[int][]Geom
	pools map[int]int
	outH  map[int]int
	psumH map[int]int

	firstConv int
	failNote  string
}

func (s *solver) observedOf(node int) []int {
	if p, ok := s.observed[node]; ok {
		return p
	}
	p := s.pd.observedPartition(node, s.trials)
	s.observed[node] = p
	return p
}

// correctedDt rescales the observed encoding interval to cover the whole
// layer: the first DRAM write lands only after the psums behind the first
// block were consumed (§7.2's head inaccuracy), and the attacker knows both
// byte quantities.
func (s *solver) correctedDt(n ObsNode) float64 {
	dt := n.EncTime
	bb := s.pd.Cfg.BlockBytes
	if bb > 0 && n.OutputBytes > bb {
		dt = dt * float64(n.OutputBytes) / float64(n.OutputBytes-bb)
	}
	return dt
}

// kRatioOf returns K_node/K_firstConv implied by the timing channel under
// the current dims assignment.
func (s *solver) kRatioOf(node int) float64 {
	first := s.pd.Graph.Nodes[s.firstConv]
	n := s.pd.Graph.Nodes[node]
	p1 := float64(s.psumH[s.firstConv])
	pu := float64(s.psumH[node])
	perK1 := s.correctedDt(first) / (p1 * p1)
	perKu := s.correctedDt(n) / (pu * pu)
	if perK1 <= 0 {
		return 1
	}
	return perKu / perK1
}

// chanRatio returns the node's channel count as a multiple of k1 (and a
// flag for the constant input-channel case).
func (s *solver) chanRatio(node int) (ratio float64, constant int) {
	if node == 0 {
		return 0, s.pd.Cfg.Consistency.InC
	}
	n := s.pd.Graph.Nodes[node]
	switch n.Kind {
	case NodeConv:
		return s.kRatioOf(node), 0
	case NodeAdd, NodePool:
		return s.chanRatio(n.Deps[0])
	}
	return 0, s.pd.Cfg.Consistency.Classes
}

func chanAt(ratio float64, constant, k1 int) float64 {
	if constant > 0 {
		return float64(constant)
	}
	k := mathRound(ratio * float64(k1))
	if k < 1 {
		k = 1
	}
	return float64(k)
}

func mathRound(x float64) int {
	if x < 0 {
		return int(x - 0.5)
	}
	return int(x + 0.5)
}

// k1Bounds derives the admissible first-layer channel range from the first
// conv's weight footprint and the empirical first-layer sparsity bound.
func (s *solver) k1Bounds() (int, int, bool) {
	n := s.pd.Graph.Nodes[s.firstConv]
	return s.pd.Cfg.Consistency.k1SparseRange(s.geom[s.firstConv], n.WeightBytes)
}

// consistent applies the §7 tie-breaking filters to a conv or pool node
// under the current partial assignment. It returns false when no k1 in the
// admissible range can explain the observed weight and output footprints.
func (s *solver) consistent(node int) bool {
	fin := s.pd.Cfg.Consistency
	if fin == nil {
		return true
	}
	k1min, k1max, ok := s.k1Bounds()
	if !ok {
		s.failNote = "empty k1 range"
		return false
	}
	n := s.pd.Graph.Nodes[node]
	oh := float64(s.outH[node])
	kr, kc := s.chanRatio(node)
	elems := func(k1 int) float64 { return oh * oh * chanAt(kr, kc, k1) }
	// Transfer-header bounds: bytes = ceil(n/8) + nnz·1 with nnz ∈ [0, n],
	// so n/8 ≤ bytes ≤ 9n/8 must be satisfiable for some admissible k1.
	b := float64(n.OutputBytes)
	if elems(k1min)/8 > b {
		s.failNote = fmt.Sprintf("node %d: implied output of %d×%d×k elements exceeds %d observed bytes", node, s.outH[node], s.outH[node], n.OutputBytes)
		return false
	}
	if elems(k1max)*9/8 < b {
		s.failNote = fmt.Sprintf("node %d: implied output too small for %d observed bytes", node, n.OutputBytes)
		return false
	}
	if n.Kind == NodeConv {
		// Weight-capacity bound (Eq. 10): r²·c·k ≥ observed nonzeros for
		// the largest admissible k1.
		g := s.geom[node]
		cr, cc := s.chanRatio(n.Deps[0])
		capacity := float64(g.Kernel*g.Kernel) * chanAt(cr, cc, k1max) * chanAt(kr, kc, k1max)
		if capacity < float64(fin.WeightNNZ(n.WeightBytes)) {
			s.failNote = fmt.Sprintf("node %d: kernel %d cannot hold %d weight nonzeros", node, g.Kernel, fin.WeightNNZ(n.WeightBytes))
			return false
		}
	}
	return true
}

// solveFrom assigns geometry to nodes[i:] by depth-first search; it returns
// true when a fully consistent assignment exists.
func (s *solver) solveFrom(i int) bool {
	g := s.pd.Graph
	if i == len(g.Nodes) {
		return true
	}
	n := g.Nodes[i]
	switch n.Kind {
	case NodeInput:
		s.sets[n.ID] = s.eng.Probes(s.pd.Families, s.pd.InH, s.pd.InW)
		s.outH[0] = s.pd.InH
		return s.solveFrom(i + 1)

	case NodeConv:
		in := s.sets[n.Deps[0]]
		inH := s.outH[n.Deps[0]]
		observed := s.observedOf(n.ID)
		type scored struct {
			g     Geom
			exact bool
			set   *symconv.Set
		}
		var exactM, refineM []scored
		// A conv's set depends on its kernel and stride alone, so the
		// hypotheses that differ only in their pool share one.
		convs := map[[2]int]*symconv.Set{}
		for _, h := range s.pd.Cfg.hypotheses() {
			if inH < h.Kernel {
				continue // kernels larger than the map are out of scope
			}
			pad := (h.Kernel - 1) / 2
			p := (inH+2*pad-h.Kernel)/h.Stride + 1
			if p < h.Pool || (h.Pool > 1 && p%h.Pool != 0) {
				continue
			}
			ks := [2]int{h.Kernel, h.Stride}
			c, ok := convs[ks]
			if !ok {
				c = s.eng.Conv(in, fmt.Sprintf("n%d_k%d_s%d", n.ID, h.Kernel, h.Stride), h.Kernel, h.Stride)
				convs[ks] = c
			}
			set := s.eng.MaxPool(c, h.Pool)
			pred := set.Pattern()
			if !symconv.Refines(pred, observed) {
				continue
			}
			m := scored{g: h, exact: symconv.SamePartition(pred, observed), set: set}
			if m.exact {
				exactM = append(exactM, m)
			} else {
				refineM = append(refineM, m)
			}
		}
		ordered := append(exactM, refineM...)
		if len(ordered) == 0 {
			s.failNote = fmt.Sprintf("node %d: no geometry hypothesis consistent with observed pattern %s (defence active or hypothesis space too small)",
				n.ID, symconv.PatternString(observed))
			return false
		}
		wasFirst := s.firstConv == 0
		if wasFirst {
			s.firstConv = n.ID
		}
		for _, m := range ordered {
			s.geom[n.ID] = m.g
			s.exact[n.ID] = m.exact
			s.sets[n.ID] = m.set
			pad := (m.g.Kernel - 1) / 2
			p := (inH+2*pad-m.g.Kernel)/m.g.Stride + 1
			s.psumH[n.ID] = p
			s.outH[n.ID] = p / m.g.Pool
			if s.consistent(n.ID) && s.solveFrom(i+1) {
				// Record the peers that matched at the same level, the
				// ambiguity carried into the solution space.
				for _, peer := range ordered {
					if peer.exact == m.exact {
						s.cand[n.ID] = append(s.cand[n.ID], peer.g)
					}
				}
				return true
			}
		}
		delete(s.geom, n.ID)
		delete(s.psumH, n.ID)
		delete(s.outH, n.ID)
		s.sets[n.ID] = nil
		if wasFirst {
			s.firstConv = 0
		}
		return false

	case NodeAdd:
		a, b := s.sets[n.Deps[0]], s.sets[n.Deps[1]]
		if s.outH[n.Deps[0]] != s.outH[n.Deps[1]] {
			s.failNote = fmt.Sprintf("node %d: residual branches have different spatial dims (%d vs %d)",
				n.ID, s.outH[n.Deps[0]], s.outH[n.Deps[1]])
			return false
		}
		s.sets[n.ID] = s.eng.Add(a, b)
		s.outH[n.ID] = s.outH[n.Deps[0]]
		if ok := s.solveFrom(i + 1); ok {
			return true
		}
		s.sets[n.ID] = nil
		delete(s.outH, n.ID)
		return false

	case NodePool:
		in := s.sets[n.Deps[0]]
		inH := s.outH[n.Deps[0]]
		observed := s.observedOf(n.ID)
		factors := append([]int(nil), s.pd.Cfg.PoolNodeFactors...)
		factors = append(factors, inH) // global pooling
		// Descending order encodes the global-pool prior: standalone
		// average pools before the classifier are global in the paper's
		// workloads, and nnz saturation at the tail often leaves several
		// factors pattern-consistent.
		sort.Sort(sort.Reverse(sort.IntSlice(factors)))
		for _, f := range dedupInts(factors) {
			if f < 1 || inH%f != 0 {
				continue
			}
			set := s.eng.AvgPool(in, f)
			if !symconv.Refines(set.Pattern(), observed) {
				continue
			}
			s.pools[n.ID] = f
			s.sets[n.ID] = set
			s.outH[n.ID] = inH / f
			if s.consistent(n.ID) && s.solveFrom(i+1) {
				return true
			}
			delete(s.pools, n.ID)
			s.sets[n.ID] = nil
			delete(s.outH, n.ID)
		}
		if s.failNote == "" {
			s.failNote = fmt.Sprintf("node %d: no pool factor consistent with observation", n.ID)
		}
		return false

	case NodeLinear:
		// The boundary effect ends here; nothing spatial to recover.
		s.outH[n.ID] = 1
		return s.solveFrom(i + 1)
	}
	return false
}

// Solve runs Algorithm 1 over the first `trials` trials: a backtracking
// walk of the recovered graph that, per conv node, matches each geometry
// hypothesis's symbolically predicted nnz pattern against the observed one
// (keeping refinements — the one-sided error — and preferring exact
// matches), and prunes assignments that violate residual-dimension,
// weight-capacity, transfer-header, or timing consistency (§7).
func (pd *ProbeData) Solve(trials int) (*ProbeResult, error) {
	if trials < 1 || trials > pd.Cfg.Trials {
		return nil, fmt.Errorf("huffduff: %d trials requested, %d collected", trials, pd.Cfg.Trials)
	}
	s := &solver{
		pd:       pd,
		eng:      &symconv.Engine{},
		trials:   trials,
		observed: map[int][]int{},
		sets:     make([]*symconv.Set, len(pd.Graph.Nodes)),
		geom:     map[int]Geom{},
		exact:    map[int]bool{},
		cand:     map[int][]Geom{},
		pools:    map[int]int{},
		outH:     map[int]int{},
		psumH:    map[int]int{},
	}
	if !s.solveFrom(0) {
		return nil, fmt.Errorf("huffduff: no consistent geometry assignment: %s", s.failNote)
	}
	return &ProbeResult{
		Geoms:       s.geom,
		Candidates:  s.cand,
		PoolFactors: s.pools,
		Exact:       s.exact,
		TrialsUsed:  trials,
		Cells:       s.eng.Cells,
	}, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
