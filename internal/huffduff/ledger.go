package huffduff

import (
	"math"

	"github.com/huffduff/huffduff/internal/converge"
)

// channelSpan is the per-conv channel-count uncertainty factor used for
// solution-space volume accounting before finalization produces real
// bounds: absent any measurement, a conv layer's output channel count is
// only known to be a plausible hardware value, and 1024 covers every
// workload in the paper. The ledger's log10 volumes are bookkeeping over
// this model — their value is the *collapse curve*, not the absolute
// count, and the convention is fixed so curves compare across runs.
const channelSpan = 1024

// ledgerHook builds and appends convergence snapshots for one attack. The
// zero hook (nil ledger or graph) is inert, so call sites need no checks.
type ledgerHook struct {
	led   *converge.Ledger
	g     *ObsGraph
	probe ProbeConfig
}

// snap appends one snapshot reflecting the current knowledge state: pr, tm,
// space, and conf may each be nil (pre-solve, pre-timing, pre-finalize).
// mut, when set, adjusts the snapshot (stage notes, Done/Degraded flags)
// before it is appended.
func (h ledgerHook) snap(stage string, pr *ProbeResult, tm *TimingResult, space *SolutionSpace, conf map[int]float64, mut func(*converge.Snapshot)) {
	if h.led == nil || h.g == nil {
		return
	}
	s := converge.Snapshot{
		Stage:       stage,
		Log10Volume: h.volume(pr, space),
		VolumeKnown: true,
		Layers:      h.layers(pr, tm, space, conf),
	}
	switch {
	case space != nil:
		s.GeomAmbiguity = space.GeomAmbiguity
		s.Degraded = space.Degraded
	case pr != nil:
		s.GeomAmbiguity = solveAmbiguity(pr)
	}
	if mut != nil {
		mut(&s)
	}
	h.led.Append(s)
}

// volume computes log10 of the remaining solution-space volume under the
// ledger's accounting model:
//
//   - a finalized exact space is GeomAmbiguity × Count() candidates;
//   - a degraded space contributes each conv's KBounds interval
//     width (unconstrained convs fall back to hypotheses × channelSpan);
//   - pre-finalize, each conv contributes its live geometry-candidate
//     count (the full hypothesis list before its solve) times channelSpan,
//     and each unresolved standalone pool its factor-hypothesis count.
func (h ledgerHook) volume(pr *ProbeResult, space *SolutionSpace) float64 {
	if space != nil && !space.Degraded {
		return log10i(space.GeomAmbiguity) + log10i(space.Count())
	}
	hyp := len(h.probe.hypotheses())
	vol := 0.0
	for _, n := range h.g.Nodes {
		switch n.Kind {
		case NodeConv:
			gf := hyp
			if pr != nil {
				if _, ok := pr.Geoms[n.ID]; ok {
					gf = len(pr.Candidates[n.ID])
				}
			}
			cf := channelSpan
			if space != nil {
				if b, ok := space.KBounds[n.ID]; ok {
					cf = b[1] - b[0] + 1
				}
			}
			vol += log10i(gf) + log10i(cf)
		case NodePool:
			pf := len(h.probe.PoolNodeFactors) + 1
			if pr != nil {
				if _, ok := pr.PoolFactors[n.ID]; ok {
					pf = 1
				}
			}
			vol += log10i(pf)
		}
	}
	return vol
}

// layers builds the per-layer knowledge states, in node-ID order (the
// deterministic order the JSONL stream promises).
func (h ledgerHook) layers(pr *ProbeResult, tm *TimingResult, space *SolutionSpace, conf map[int]float64) []converge.LayerState {
	hyp := len(h.probe.hypotheses())
	var out []converge.LayerState
	for _, n := range h.g.Nodes {
		switch n.Kind {
		case NodeConv:
			ls := converge.LayerState{Node: n.ID, Candidates: hyp}
			if pr != nil {
				if geom, ok := pr.Geoms[n.ID]; ok {
					ls.Kernel, ls.Stride, ls.Pool = geom.Kernel, geom.Stride, geom.Pool
					ls.Exact = pr.Exact[n.ID]
					ls.Candidates = len(pr.Candidates[n.ID])
					if ls.Candidates < 1 {
						ls.Candidates = 1
					}
				}
			}
			if tm != nil {
				ls.KRatio = tm.KRatio[n.ID]
			}
			if space != nil {
				if b, ok := space.KBounds[n.ID]; ok {
					ls.KMin, ls.KMax = b[0], b[1]
				}
			}
			if conf != nil {
				ls.Confidence = conf[n.ID]
			}
			out = append(out, ls)
		case NodePool:
			ls := converge.LayerState{Node: n.ID, Candidates: len(h.probe.PoolNodeFactors) + 1}
			if pr != nil {
				if f, ok := pr.PoolFactors[n.ID]; ok {
					ls.Pool, ls.Candidates = f, 1
				}
			}
			if conf != nil {
				ls.Confidence = conf[n.ID]
			}
			out = append(out, ls)
		}
	}
	return out
}

// log10i is log10 over counts, clamped so empty or unit factors contribute
// nothing rather than -Inf.
func log10i(n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Log10(float64(n))
}
