package huffduff

import (
	"fmt"
	"math"

	"github.com/huffduff/huffduff/internal/faults"
	"github.com/huffduff/huffduff/internal/models"
)

// FinalizeConfig controls solution-space construction (§8.2).
type FinalizeConfig struct {
	// MaxFirstLayerSparsity is the empirical bound on first-layer weight
	// sparsity (the paper observes it rarely exceeds 60%).
	MaxFirstLayerSparsity float64
	// WeightIdxBits/WeightElemBytes describe the accelerator's weight
	// compression format so observed byte counts invert to nonzero counts.
	WeightIdxBits, WeightElemBytes int
	// Classes is the task's output count (known to the attacker).
	Classes int
	// InC/InH/InW describe the input tensor (the attacker crafts it).
	InC, InH, InW int
}

// DefaultFinalizeConfig matches the evaluation setup.
func DefaultFinalizeConfig() FinalizeConfig {
	return FinalizeConfig{
		MaxFirstLayerSparsity: 0.6,
		WeightIdxBits:         4,
		WeightElemBytes:       1,
		Classes:               10,
		InC:                   3,
		InH:                   32,
		InW:                   32,
	}
}

// Validate rejects finalization parameters that would divide by zero or
// build nonsensical architectures downstream. Errors wrap faults.ErrBadConfig.
func (cfg FinalizeConfig) Validate() error {
	bad := func(format string, args ...any) error {
		args = append(args, faults.ErrBadConfig)
		return fmt.Errorf("huffduff: "+format+": %w", args...)
	}
	if cfg.MaxFirstLayerSparsity < 0 || cfg.MaxFirstLayerSparsity >= 1 {
		return bad("MaxFirstLayerSparsity = %g, need [0, 1)", cfg.MaxFirstLayerSparsity)
	}
	if cfg.WeightIdxBits < 0 || cfg.WeightElemBytes < 1 {
		return bad("weight codec: %d index bits, %d element bytes", cfg.WeightIdxBits, cfg.WeightElemBytes)
	}
	if cfg.Classes < 1 {
		return bad("Classes = %d, need at least 1 output", cfg.Classes)
	}
	if cfg.InC < 1 || cfg.InH < 1 || cfg.InW < 1 {
		return bad("input tensor %d×%d×%d has an empty dimension", cfg.InC, cfg.InH, cfg.InW)
	}
	return nil
}

// k1SparseRange derives the admissible first-layer channel range from the
// first conv's weight footprint and the empirical first-layer sparsity bound
// (§8.2): nnz = K·k²·C·density with density ∈ [1−MaxFirstLayerSparsity, 1].
// This bound needs no timing information, so both the solver's consistency
// filters and the degraded finalizer share it.
func (cfg FinalizeConfig) k1SparseRange(geom Geom, weightBytes int) (k1min, k1max int, ok bool) {
	nnz := cfg.WeightNNZ(weightBytes)
	denom := geom.Kernel * geom.Kernel * cfg.InC
	k1min = (nnz + denom - 1) / denom
	if k1min < 1 {
		k1min = 1
	}
	k1max = int(float64(nnz) / ((1 - cfg.MaxFirstLayerSparsity) * float64(denom)))
	return k1min, k1max, k1max >= k1min
}

// WeightNNZ inverts the weight codec's size model: an EIE-style format
// spends IdxBits+8·ElemBytes bits per stored entry, so the entry count —
// a close upper bound on the true nonzero count (padding entries are rare)
// — follows directly from the observed byte volume.
func (cfg FinalizeConfig) WeightNNZ(bytes int) int {
	bitsPer := cfg.WeightIdxBits + 8*cfg.WeightElemBytes
	return bytes * 8 / bitsPer
}

// Solution is one candidate architecture.
type Solution struct {
	// K1 is the first conv layer's output channel count this candidate
	// assumes; all other channel counts follow from the timing ratios.
	K1 int
	// Arch is the reconstructed architecture, buildable and trainable.
	Arch *models.Arch
	// Density maps arch unit index → recovered weight density (1−β), the
	// iso-footprint pruning target for retraining.
	Density map[int]float64
}

// SolutionSpace is the finalized search space: one candidate per admissible
// first-layer channel count (the paper's "44 and 66 solutions").
type SolutionSpace struct {
	K1Min, K1Max int
	Solutions    []Solution
	// GeomAmbiguity is the product of per-layer pattern-tie candidate
	// counts — an *upper bound* on how many alternative geometries would
	// also be worth testing if the solver's consistency filters and priors
	// were distrusted. It is a diagnostic, not part of Count: most tied
	// peers die to global consistency, and the paper's solution counts
	// likewise cover only channel ambiguity.
	GeomAmbiguity int
	// Degraded marks a space built without the timing channel: when the
	// encoding-interval measurements are too noisy to trust, the attack
	// falls back to the hard constraints alone (transfer-header element
	// bounds, the first-layer sparse weight bound, residual equal-channel
	// joins). The space is wider but still contains the true architecture.
	Degraded bool
	// KBounds maps each conv node to its admissible [min, max] channel
	// interval in a Degraded space; empty for exact spaces.
	KBounds map[int][2]int
}

// Count returns the number of candidate architectures (one per admissible
// first-layer channel count, matching the paper's accounting).
func (s *SolutionSpace) Count() int { return len(s.Solutions) }

// Admits reports whether a per-conv-node channel assignment lies inside the
// space. Degraded spaces check the assignment against the KBounds intervals;
// exact spaces check it against the enumerated solutions' channel counts.
// Conv nodes absent from the assignment are unconstrained.
func (s *SolutionSpace) Admits(chans map[int]int) bool {
	if s.Degraded {
		for id, k := range chans {
			if b, ok := s.KBounds[id]; ok && (k < b[0] || k > b[1]) {
				return false
			}
		}
		return true
	}
	for _, sol := range s.Solutions {
		match := true
		for id, k := range chans {
			u := id - 1 // node 0 is the input; unit i reconstructs node i+1
			if u < 0 || u >= len(sol.Arch.Units) {
				continue
			}
			if unit := sol.Arch.Units[u]; unit.Kind == models.UnitConv && unit.OutC != k {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// Finalize combines the prober's geometry, the timing channel's k-ratios,
// and the first-layer sparsity bound into the final solution space.
func Finalize(g *ObsGraph, pr *ProbeResult, dims *SpatialDims, tm *TimingResult, cfg FinalizeConfig) (*SolutionSpace, error) {
	convs := g.ConvNodes()
	if len(convs) == 0 {
		return nil, fmt.Errorf("huffduff: nothing to finalize")
	}
	first := tm.RefNode
	k1min, k1max, ok := cfg.k1SparseRange(pr.Geoms[first], g.Nodes[first].WeightBytes)
	if !ok {
		return nil, fmt.Errorf("huffduff: empty first-layer channel range [%d,%d]", k1min, k1max)
	}

	space := &SolutionSpace{K1Min: k1min, K1Max: k1max, GeomAmbiguity: geomAmbiguity(convs, pr)}

	for k1 := k1min; k1 <= k1max; k1++ {
		sol, err := buildSolution(g, pr, tm, cfg, k1)
		if err != nil {
			// A k1 that produces an inconsistent architecture (e.g. branch
			// channel mismatch after rounding) is not a solution.
			continue
		}
		space.Solutions = append(space.Solutions, *sol)
	}
	if len(space.Solutions) == 0 {
		return nil, fmt.Errorf("huffduff: no consistent candidate architectures in k1 range [%d,%d]", k1min, k1max)
	}
	return space, nil
}

// geomAmbiguity is the capped product of per-layer pattern-tie counts.
func geomAmbiguity(convs []int, pr *ProbeResult) int {
	const ambiguityCap = 1 << 30
	amb := 1
	for _, id := range convs {
		if n := len(pr.Candidates[id]); n > 1 && amb < ambiguityCap {
			amb *= n
		}
	}
	return amb
}

// buildSolution reconstructs a full architecture for one k1 candidate by
// scaling the timing channel's K ratios.
func buildSolution(g *ObsGraph, pr *ProbeResult, tm *TimingResult, cfg FinalizeConfig, k1 int) (*Solution, error) {
	// Channel counts per node.
	chans := map[int]int{0: cfg.InC}
	for _, n := range g.Nodes {
		switch n.Kind {
		case NodeConv:
			k := int(math.Round(float64(k1) * tm.KRatio[n.ID]))
			if k < 1 {
				k = 1
			}
			chans[n.ID] = k
		case NodeAdd:
			a, b := chans[n.Deps[0]], chans[n.Deps[1]]
			if a != b {
				return nil, fmt.Errorf("huffduff: k1=%d: add node %d branches disagree (%d vs %d)", k1, n.ID, a, b)
			}
			chans[n.ID] = a
		case NodePool:
			chans[n.ID] = chans[n.Deps[0]]
		case NodeLinear:
			chans[n.ID] = cfg.Classes
		}
	}
	return assembleSolution(g, pr, cfg, chans, k1)
}

// assembleSolution turns a per-node channel assignment into a buildable,
// trainable architecture plus per-unit density targets.
func assembleSolution(g *ObsGraph, pr *ProbeResult, cfg FinalizeConfig, chans map[int]int, k1 int) (*Solution, error) {
	arch := &models.Arch{
		Name:       fmt.Sprintf("huffduff-candidate-k1=%d", k1),
		InC:        cfg.InC,
		InH:        cfg.InH,
		InW:        cfg.InW,
		NumClasses: cfg.Classes,
	}
	density := map[int]float64{}
	toUnit := func(node int) int { return node - 1 } // node 0 is the input
	for _, n := range g.Nodes[1:] {
		ins := make([]int, len(n.Deps))
		for i, d := range n.Deps {
			ins[i] = toUnit(d)
			if d == 0 {
				ins[i] = models.InputID
			}
		}
		switch n.Kind {
		case NodeConv:
			geom := pr.Geoms[n.ID]
			u := models.Unit{
				Kind: models.UnitConv, Name: fmt.Sprintf("rec%d", n.ID), In: ins[:1],
				OutC: chans[n.ID], Kernel: geom.Kernel, Stride: geom.Stride, Pool: geom.Pool,
				BN: true, ReLU: true,
			}
			arch.Units = append(arch.Units, u)
			inC := chans[n.Deps[0]]
			total := chans[n.ID] * inC * geom.Kernel * geom.Kernel
			d := float64(cfg.WeightNNZ(n.WeightBytes)) / float64(total)
			if d > 1 {
				d = 1
			}
			density[len(arch.Units)-1] = d
		case NodeAdd:
			arch.Units = append(arch.Units, models.Unit{
				Kind: models.UnitAdd, Name: fmt.Sprintf("rec%d", n.ID), In: ins, ReLU: true,
			})
		case NodePool:
			arch.Units = append(arch.Units, models.Unit{
				Kind: models.UnitAvgPool, Name: fmt.Sprintf("rec%d", n.ID), In: ins[:1], Pool: pr.PoolFactors[n.ID],
			})
		case NodeLinear:
			arch.Units = append(arch.Units, models.Unit{
				Kind: models.UnitLinear, Name: fmt.Sprintf("rec%d", n.ID), In: ins[:1], OutC: cfg.Classes,
			})
		}
	}
	return &Solution{K1: k1, Arch: arch, Density: density}, nil
}

// intersect returns the overlap of two closed intervals.
func intersect(a, b [2]int) ([2]int, bool) {
	lo, hi := a[0], a[1]
	if b[0] > lo {
		lo = b[0]
	}
	if b[1] < hi {
		hi = b[1]
	}
	return [2]int{lo, hi}, lo <= hi
}

// FinalizeDegraded builds the graceful-degradation solution space: when the
// timing channel is unusable (jitter too wide, no samples), the attacker
// still holds hard constraints that need no Δt measurements —
//
//   - each conv's output transfer volume bounds its element count: with
//     bytes = ceil(n/8) + nnz and nnz ∈ [0, n], n ∈ [8·bytes/9, 8·bytes],
//     so K ∈ [ceil(8·bytes/(9·oh²)), floor(8·bytes/oh²)];
//   - the first layer's sparse weight bound (§8.2) holds regardless;
//   - residual adds force their branch convs to equal channel counts, so
//     joined convs share the intersection of their intervals.
//
// The space is flagged Degraded and carries the per-conv KBounds; its
// Solutions enumerate the first layer's interval (midpoints elsewhere) so
// downstream retraining tooling keeps working unchanged. Wider than the
// timing-informed space, but guaranteed to contain the true architecture.
func FinalizeDegraded(g *ObsGraph, pr *ProbeResult, dims *SpatialDims, cfg FinalizeConfig) (*SolutionSpace, error) {
	convs := g.ConvNodes()
	if len(convs) == 0 {
		return nil, fmt.Errorf("huffduff: nothing to finalize")
	}
	bounds := map[int][2]int{}
	for _, id := range convs {
		oh := dims.OutH[id]
		if oh <= 0 {
			return nil, fmt.Errorf("huffduff: conv node %d has no output dims", id)
		}
		area := oh * oh
		b := g.Nodes[id].OutputBytes
		lo := (8*b + 9*area - 1) / (9 * area)
		hi := 8 * b / area
		if lo < 1 {
			lo = 1
		}
		if hi < lo {
			return nil, fmt.Errorf("huffduff: conv node %d has empty channel interval [%d,%d]", id, lo, hi)
		}
		bounds[id] = [2]int{lo, hi}
	}
	first := convs[0]
	if k1lo, k1hi, ok := cfg.k1SparseRange(pr.Geoms[first], g.Nodes[first].WeightBytes); ok {
		iv, ok := intersect(bounds[first], [2]int{k1lo, k1hi})
		if !ok {
			return nil, fmt.Errorf("huffduff: first conv sparse bound [%d,%d] excludes transfer bound [%d,%d]",
				k1lo, k1hi, bounds[first][0], bounds[first][1])
		}
		bounds[first] = iv
	}

	// Trace each node's channel count back to its source conv; residual adds
	// join two sources, forcing their intervals to agree.
	uf := newUnionFind(len(g.Nodes))
	src := map[int]int{}
	for _, n := range g.Nodes {
		switch n.Kind {
		case NodeConv:
			src[n.ID] = n.ID
		case NodeAdd:
			a, okA := src[n.Deps[0]]
			b, okB := src[n.Deps[1]]
			if okA && okB {
				uf.union(a, b)
			}
			if okA {
				src[n.ID] = a
			} else if okB {
				src[n.ID] = b
			}
		case NodePool:
			if s, ok := src[n.Deps[0]]; ok {
				src[n.ID] = s
			}
		}
	}
	group := map[int][2]int{}
	for _, id := range convs {
		r := uf.find(id)
		if prev, ok := group[r]; ok {
			iv, ok := intersect(prev, bounds[id])
			if !ok {
				return nil, fmt.Errorf("huffduff: residual join leaves conv node %d with an empty channel interval", id)
			}
			group[r] = iv
		} else {
			group[r] = bounds[id]
		}
	}
	for _, id := range convs {
		bounds[id] = group[uf.find(id)]
	}

	space := &SolutionSpace{
		K1Min: bounds[first][0], K1Max: bounds[first][1],
		GeomAmbiguity: geomAmbiguity(convs, pr),
		Degraded:      true,
		KBounds:       bounds,
	}
	firstRoot := uf.find(first)
	for k1 := bounds[first][0]; k1 <= bounds[first][1]; k1++ {
		chans := map[int]int{0: cfg.InC}
		for _, n := range g.Nodes {
			switch n.Kind {
			case NodeConv:
				if uf.find(n.ID) == firstRoot {
					chans[n.ID] = k1
				} else {
					b := bounds[n.ID]
					chans[n.ID] = (b[0] + b[1]) / 2
				}
			case NodeAdd, NodePool:
				chans[n.ID] = chans[n.Deps[0]]
			case NodeLinear:
				chans[n.ID] = cfg.Classes
			}
		}
		sol, err := assembleSolution(g, pr, cfg, chans, k1)
		if err != nil {
			continue
		}
		space.Solutions = append(space.Solutions, *sol)
	}
	if len(space.Solutions) == 0 {
		return nil, fmt.Errorf("huffduff: degraded finalization produced no candidates in [%d,%d]",
			bounds[first][0], bounds[first][1])
	}
	return space, nil
}
