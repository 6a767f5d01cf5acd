package huffduff

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/huffduff/huffduff/internal/faults"
)

// newRNG centralizes seeding so the attack is reproducible end to end.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SpatialDims propagates the input spatial size through the recovered
// geometry and returns, for each node, the output H (== W, symmetric) and —
// for conv nodes — the pre-pool psum spatial size.
type SpatialDims struct {
	OutH    map[int]int // per node, post-pool spatial size
	PsumH   map[int]int // per conv node, pre-pool spatial size
	PoolFac map[int]int
}

// PropagateDims walks the graph with the prober's recovered geometry.
func PropagateDims(g *ObsGraph, pr *ProbeResult, inH int) (*SpatialDims, error) {
	d := &SpatialDims{OutH: map[int]int{}, PsumH: map[int]int{}}
	d.OutH[0] = inH
	for _, n := range g.Nodes {
		switch n.Kind {
		case NodeInput:
		case NodeConv:
			geom, ok := pr.Geoms[n.ID]
			if !ok {
				return nil, fmt.Errorf("huffduff: no geometry for conv node %d", n.ID)
			}
			x, ok := d.OutH[n.Deps[0]]
			if !ok {
				return nil, fmt.Errorf("huffduff: conv node %d input %d has no dims", n.ID, n.Deps[0])
			}
			pad := (geom.Kernel - 1) / 2
			p := (x+2*pad-geom.Kernel)/geom.Stride + 1
			d.PsumH[n.ID] = p
			d.OutH[n.ID] = p / geom.Pool
		case NodeAdd:
			a, okA := d.OutH[n.Deps[0]]
			b, okB := d.OutH[n.Deps[1]]
			if !okA || !okB || a != b {
				return nil, fmt.Errorf("huffduff: add node %d branch dims %d vs %d", n.ID, a, b)
			}
			d.OutH[n.ID] = a
		case NodePool:
			f, ok := pr.PoolFactors[n.ID]
			if !ok {
				return nil, fmt.Errorf("huffduff: no pool factor for node %d", n.ID)
			}
			d.OutH[n.ID] = d.OutH[n.Deps[0]] / f
		case NodeLinear:
			d.OutH[n.ID] = 1
		}
	}
	return d, nil
}

// TimingResult carries the k-ratio recovery of §7: the encoding interval of
// a GLB-bound layer is proportional to its dense psum count P·Q·K, so with
// P, Q known from the prober, Δt ratios reveal K ratios.
type TimingResult struct {
	// KRatio maps each conv node to K_node / K_ref.
	KRatio map[int]float64
	// RefNode is the conv node ratios are normalized to (the first conv).
	RefNode int
	// Dispersion maps each conv node to the robust relative spread
	// (1.4826·MAD / median) of its per-inference Δt samples.
	Dispersion map[int]float64
	// SampleCount is how many accepted Δt samples backed each node's
	// estimate.
	SampleCount map[int]int
}

// TimingChannelFromSamples converts observed encoding intervals into
// output-channel ratios. Instead of trusting one calibration observation
// per layer, it takes the per-inference Δt samples accumulated during the
// probing campaign (ProbeData.Enc) and estimates each layer's encoding time
// by the sample median, which jitter, duplicated events, and occasional
// truncations cannot drag far. The samples are already head-corrected: the
// first DRAM write happens after only the psums backing the first block
// were consumed, so Δt covers (1 − block/outBytes) of the layer's encoding,
// and the attacker — who knows both byte counts — rescales it.
//
// The per-node dispersion — 1.4826·MAD/median, a robust analogue of the
// coefficient of variation — is checked against tolerance (0.25 when
// tolerance ≤ 0): if any conv layer's samples spread wider than that, the
// ratios are not trustworthy and the function reports
// faults.ErrTimingUnusable. The partially filled TimingResult is still
// returned alongside the error so callers can degrade gracefully (Attack
// falls back to FinalizeDegraded) and report diagnostics.
func TimingChannelFromSamples(g *ObsGraph, dims *SpatialDims, samples [][]float64, tolerance float64) (*TimingResult, error) {
	convs := g.ConvNodes()
	if len(convs) == 0 {
		return nil, fmt.Errorf("huffduff: no conv nodes")
	}
	if tolerance <= 0 {
		tolerance = 0.25
	}
	res := &TimingResult{
		KRatio:      map[int]float64{},
		Dispersion:  map[int]float64{},
		SampleCount: map[int]int{},
	}
	perK := map[int]float64{}
	var unusable error
	for _, id := range convs {
		p := dims.PsumH[id]
		if p <= 0 {
			return nil, fmt.Errorf("huffduff: conv node %d has no psum dims", id)
		}
		var s []float64
		if id < len(samples) {
			s = samples[id]
		}
		res.SampleCount[id] = len(s)
		if len(s) == 0 {
			unusable = fmt.Errorf("huffduff: conv node %d has no timing samples: %w", id, faults.ErrTimingUnusable)
			continue
		}
		med := median(s)
		if med <= 0 {
			unusable = fmt.Errorf("huffduff: conv node %d has non-positive median encoding time: %w", id, faults.ErrTimingUnusable)
			continue
		}
		dev := make([]float64, len(s))
		for i, v := range s {
			dev[i] = math.Abs(v - med)
		}
		disp := 1.4826 * median(dev) / med
		res.Dispersion[id] = disp
		if disp > tolerance {
			unusable = fmt.Errorf("huffduff: conv node %d timing dispersion %.3f exceeds tolerance %.3f: %w",
				id, disp, tolerance, faults.ErrTimingUnusable)
			continue
		}
		perK[id] = med / float64(p*p)
	}
	if unusable != nil {
		return res, unusable
	}
	ref := convs[0]
	res.RefNode = ref
	if perK[ref] <= 0 {
		return res, fmt.Errorf("huffduff: reference conv node %d has zero encoding time: %w", ref, faults.ErrTimingUnusable)
	}
	for _, id := range convs {
		res.KRatio[id] = perK[id] / perK[ref]
	}
	return res, nil
}

// median returns the middle order statistic without mutating its argument.
func median(s []float64) float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
