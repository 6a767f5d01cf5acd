package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	hd "github.com/huffduff/huffduff"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// victimSpec is one attack's inputs: a victim to deploy and the attacker's
// probing campaign.
type victimSpec struct {
	arch       func() *hd.Arch
	keep       float64
	victimSeed int64 // victim weights (and the device's defence randomness)
	probeSeed  int64 // the attacker's probe values
	trials, q  int
}

// attackWorkloads are fixed victims under a probing campaign whose random
// probe values come from --seed. The victim's weights belong to the
// workload: drawing them from --seed too moves the simulated work by up to
// ±19% between seeds (NOTES.md), far more than the regressions the bounds
// must catch.
var attackWorkloads = map[string]victimSpec{
	// Solve-bound: the symbolic solve takes most of the attack. Same victim
	// and campaign as huffbench's attack_resnet18 scenario.
	"resnet18_attack": {arch: func() *hd.Arch { return hd.ResNet18(16) }, keep: 0.6, victimSeed: 1234, trials: 6, q: 16},
	// Probe-bound: 2,050 victim inferences, a small solve.
	"smallcnn_probe": {arch: hd.SmallCNN, keep: 0.5, victimSeed: 1, trials: 64, q: 8},
}

func (s victimSpec) deploy() (*hd.Machine, *hd.Arch, error) {
	arch := s.arch()
	bind, err := arch.Build(rand.New(rand.NewSource(s.victimSeed)))
	if err != nil {
		return nil, nil, fmt.Errorf("building victim %s: %w", arch.Name, err)
	}
	if s.keep < 1 {
		hd.PruneGlobal(bind.Net.Params(), s.keep)
	}
	acfg := hd.DefaultAccelConfig()
	acfg.Seed = s.victimSeed
	return hd.NewMachine(acfg, arch, bind), arch, nil
}

func (s victimSpec) config() hd.AttackConfig {
	cfg := hd.DefaultAttackConfig()
	cfg.Probe.Trials, cfg.Probe.Q, cfg.Probe.Seed = s.trials, s.q, s.probeSeed
	return cfg
}

// checkAttack checks one attack's output against the victim's true
// architecture and returns the conv layers whose chosen geometry is the true
// one, plus every problem found. At each conv layer the truth must be the
// chosen geometry or one of the layer's tied candidates, and the true
// first-layer channel count must lie in the space's [K1Min, K1Max].
func checkAttack(arch *hd.Arch, res *hd.AttackResult, err error) (exact int, problems []string) {
	if err != nil {
		return 0, []string{fmt.Sprintf("attack failed: %v", err)}
	}
	if res.Degraded {
		problems = append(problems, "degraded result: "+res.DegradedReason)
	}
	convs := res.Graph.ConvNodes()
	if len(convs) == 0 {
		return 0, append(problems, "no conv layers recovered")
	}
	for _, id := range convs {
		// Node 0 is the attacker's input; node i is unit i-1.
		if id < 1 || id > len(arch.Units) || arch.Units[id-1].Kind != models.UnitConv {
			problems = append(problems, fmt.Sprintf("conv node %d maps to no conv unit", id))
			continue
		}
		u := arch.Units[id-1]
		truth := attack.Geom{Kernel: u.Kernel, Stride: u.Stride, Pool: u.Pool}
		if res.Probe.Geoms[id] == truth {
			exact++
			continue
		}
		found := false
		for _, c := range res.Probe.Candidates[id] {
			found = found || c == truth
		}
		if !found {
			problems = append(problems, fmt.Sprintf("node %d (%s): true geometry %+v neither chosen (%+v) nor a candidate", id, u.Name, truth, res.Probe.Geoms[id]))
		}
	}
	if k1 := arch.Units[convs[0]-1].OutC; k1 < res.Space.K1Min || k1 > res.Space.K1Max {
		problems = append(problems, fmt.Sprintf("true first-layer channels %d outside [%d, %d]", k1, res.Space.K1Min, res.Space.K1Max))
	}
	return exact, problems
}

// runAttackTimed is an untraced attack-workload run: set the victim up
// several times, then attack fresh copies of it back to back, as many times
// as fit in the run's seconds, judged by the last attack's length and rounded
// to the nearest whole attack (at least once).
func runAttackTimed(s victimSpec, o *outcome) error {
	var setups []float64
	var m *hd.Machine
	var arch *hd.Arch
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		v, a, err := s.deploy()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if m == nil {
			m, arch = v, a
		}
	}
	cfg := s.config()
	budget := time.Duration(o.seconds) * time.Second
	var elapsed time.Duration
	var walls, allocs, peaks, queries, cycles, sols []float64
	for {
		// Start every attack from a collected heap returned to the OS, so
		// that no attack inherits the garbage or the resident pages of the
		// one before it, and measure each attack's own peak resident set.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		rt0 := readRuntime()
		start := time.Now()
		res, aerr := hd.Attack(m, cfg)
		wall := time.Since(start)
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, readRuntime().sub(rt0).allocBytes)
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		peaks = append(peaks, rss)
		_, problems := checkAttack(arch, res, aerr)
		o.op(problems...)
		if aerr == nil {
			dev := m.Campaign()
			queries = append(queries, float64(dev.Runs))
			cycles = append(cycles, dev.SimulatedTime*m.Cfg.ClockHz)
			sols = append(sols, float64(res.Space.Count()))
		}
		if elapsed += wall; elapsed+wall/2 > budget {
			break
		}
		if m, _, err = s.deploy(); err != nil {
			return err
		}
	}
	for _, xs := range [][]float64{queries, cycles, sols} {
		if len(xs) > 0 && percentile(xs, 0) != percentile(xs, 100) {
			o.op(fmt.Sprintf("repeated attacks on one victim disagree: %v", xs))
		}
	}
	fmt.Printf("attack_wall_s %v\n", walls)
	o.vals = map[string]float64{
		"setup_s":         median(setups),
		"campaign_p50_s":  median(walls),
		"campaigns_per_s": float64(len(walls)) / sum(walls),
		"host_alloc_mb":   median(allocs) / 1e6,
		"peak_rss_mb":     median(peaks),
		"victim_queries":  median(queries),
		"device_cycles":   median(cycles),
		"solution_count":  median(sols),
	}
	return nil
}

// tracedVictim times every inference of the wrapped machine.
type tracedVictim struct {
	m      *hd.Machine
	rec    *recorder
	parent int // span the inferences belong to

	runsMS []float64
	busy   time.Duration
	alloc  float64
	sample []metrics.Sample
}

func newTracedVictim(m *hd.Machine, rec *recorder, parent int) *tracedVictim {
	return &tracedVictim{m: m, rec: rec, parent: parent, sample: []metrics.Sample{{Name: rtNames[0]}}}
}

func (v *tracedVictim) allocBytes() float64 {
	metrics.Read(v.sample)
	return float64(v.sample[0].Value.Uint64())
}

// Run implements hd.Victim.
func (v *tracedVictim) Run(img *tensor.Tensor) (*trace.Trace, error) {
	a0 := v.allocBytes()
	id := v.rec.start("accel.Run", v.parent)
	tr, err := v.m.Run(img)
	d := v.rec.end(id)
	v.alloc += v.allocBytes() - a0
	v.busy += d
	v.runsMS = append(v.runsMS, float64(d)/1e6)
	return tr, err
}

// layerTotals sums the per-layer measurements of one or more traced attacks.
type layerTotals struct {
	attackWall, stageSum    time.Duration
	accelBusy, probeSelf    time.Duration
	solveBusy, finalizeBusy time.Duration
	accelRunsMS             []float64
	accelAlloc, traceEvents float64
	probeAlloc, positions   float64
	solveAlloc              float64
	gcCPU, gcCycles         float64
	geomExact               int
	// Outcome of every traced attack, for cross-checks against the daemon.
	queries, solutions []int
}

// tracedAttack attacks one victim through a tracedVictim, then re-runs the
// probe, solve and finalize stages on the attack's own inputs with a span
// around each, and checks that the re-run reproduces the attack's result.
// With truth set it also checks the result against the victim's true
// architecture, which only a full-size probing campaign can recover.
func tracedAttack(ctx context.Context, rec *recorder, s victimSpec, truth bool, tot *layerTotals, o *outcome) error {
	m, arch, err := s.deploy()
	if err != nil {
		return err
	}
	cfg := s.config()
	fin := cfg.Finalize

	runtime.GC()
	root := rec.start("attack", 0)
	v := newTracedVictim(m, rec, root)
	rt0 := readRuntime()
	res, aerr := hd.Attack(v, cfg)
	rt := readRuntime().sub(rt0)
	wall := rec.end(root)
	exact, problems := checkAttack(arch, res, aerr)
	if aerr != nil || truth {
		o.op(problems...)
	}
	if aerr != nil {
		return nil
	}
	dev := m.Campaign()
	tot.attackWall += wall
	tot.accelBusy += v.busy
	tot.accelRunsMS = append(tot.accelRunsMS, v.runsMS...)
	tot.accelAlloc += v.alloc
	tot.traceEvents += float64(dev.TraceReadEvents + dev.TraceWriteEvents)
	tot.gcCPU += rt.gcCPU
	tot.gcCycles += rt.gcCycles
	tot.geomExact += exact
	tot.queries = append(tot.queries, dev.Runs)
	tot.solutions = append(tot.solutions, res.Space.Count())

	// Stage re-runs on the attack's own inputs, against a fresh copy of the
	// victim so that no device state carries over, and from a collected heap
	// as the attack started, so that its garbage does not slow them.
	m2, _, err := s.deploy()
	if err != nil {
		return err
	}
	runtime.GC()
	pcfg := res.Data.Cfg
	cid := rec.start("probe.CollectContext", 0)
	pv := newTracedVictim(m2, rec, cid)
	a0 := readRuntime().allocBytes
	data, err := attack.CollectContext(ctx, pv, res.Graph, fin.InC, fin.InH, fin.InW, pcfg)
	probeAlloc := readRuntime().allocBytes - a0
	collect := rec.end(cid)
	if err != nil {
		o.op(fmt.Sprintf("probe re-run: %v", err))
		return nil
	}
	tot.probeAlloc += probeAlloc - pv.alloc
	tot.positions += float64(pcfg.Trials * len(data.Families) * pcfg.Q)

	sid := rec.start("solve.Solve", 0)
	a0 = readRuntime().allocBytes
	pr, err := data.Solve(pcfg.Trials)
	tot.solveAlloc += readRuntime().allocBytes - a0
	solve := rec.end(sid)
	if err != nil {
		o.op(fmt.Sprintf("solve re-run: %v", err))
		return nil
	}

	fid := rec.start("finalize", 0)
	space, err := finalize(res.Graph, pr, data, cfg)
	finish := rec.end(fid)
	if err != nil {
		o.op(fmt.Sprintf("finalize re-run: %v", err))
		return nil
	}

	var diffs []string
	if !sameGeoms(pr.Geoms, res.Probe.Geoms) {
		diffs = append(diffs, fmt.Sprintf("stage re-run chose geometry %v, the attack %v", pr.Geoms, res.Probe.Geoms))
	}
	if space.Count() != res.Space.Count() {
		diffs = append(diffs, fmt.Sprintf("stage re-run found %d solutions, the attack %d", space.Count(), res.Space.Count()))
	}
	o.op(diffs...)

	spans := rec.snapshot()
	for _, sp := range spans {
		if sp.ID == cid {
			tot.probeSelf += selfTime(sp, children(spans, cid))
		}
	}
	tot.solveBusy += solve
	tot.finalizeBusy += finish
	tot.stageSum += collect + solve + finish
	return nil
}

// runAttackTraced is a traced attack-workload run: one traced attack with
// its stage re-runs, then the idle-daemon probe for the system layers.
func runAttackTraced(ctx context.Context, s victimSpec, daemonBin, work string, rec *recorder, o *outcome) error {
	var tot layerTotals
	if err := tracedAttack(ctx, rec, s, true, &tot, o); err != nil {
		return err
	}
	if tot.attackWall == 0 {
		return fmt.Errorf("traced attack failed")
	}
	sys, err := idleDaemonProbe(daemonBin, work, rec, o)
	if err != nil {
		return err
	}
	o.vals = tot.metrics()
	for k, v := range sys {
		o.vals[k] = v
	}
	return nil
}

// finalize is the attack's last three steps: spatial dimensions, the timing
// channel from the campaign's encoding-interval samples, and the space.
func finalize(g *attack.ObsGraph, pr *attack.ProbeResult, data *attack.ProbeData, cfg hd.AttackConfig) (*hd.SolutionSpace, error) {
	if len(data.Enc) == 0 {
		return nil, fmt.Errorf("probe campaign gathered no encoding-interval samples")
	}
	dims, err := attack.PropagateDims(g, pr, cfg.Finalize.InH)
	if err != nil {
		return nil, err
	}
	tm, err := attack.TimingChannelFromSamples(g, dims, data.Enc, cfg.TimingTolerance)
	if err != nil {
		return nil, err
	}
	return attack.Finalize(g, pr, dims, tm, cfg.Finalize)
}

func sameGeoms(a, b map[int]attack.Geom) bool {
	if len(a) != len(b) {
		return false
	}
	for id, g := range a {
		if h, ok := b[id]; !ok || h != g {
			return false
		}
	}
	return true
}

// attackLayerMetrics are the attack layers' per-layer metrics.
func (t *layerTotals) metrics() map[string]float64 {
	mb := func(b float64) float64 { return b / 1e6 }
	return map[string]float64{
		"accel.busy_s":          t.accelBusy.Seconds(),
		"accel.run_p50_ms":      percentile(t.accelRunsMS, 50),
		"accel.run_p90_ms":      percentile(t.accelRunsMS, 90),
		"accel.alloc_mb":        mb(t.accelAlloc),
		"accel.trace_events":    t.traceEvents,
		"accel.events_per_s":    t.traceEvents / t.accelBusy.Seconds(),
		"probe.self_s":          t.probeSelf.Seconds(),
		"probe.alloc_mb":        mb(t.probeAlloc),
		"probe.positions":       t.positions,
		"solve.busy_s":          t.solveBusy.Seconds(),
		"solve.alloc_mb":        mb(t.solveAlloc),
		"finalize.busy_s":       t.finalizeBusy.Seconds(),
		"runtime.gc_cpu_s":      t.gcCPU,
		"runtime.gc_cycles":     t.gcCycles,
		"attack.accounted_frac": t.stageSum.Seconds() / t.attackWall.Seconds(),
		"attack.traced_wall_s":  t.attackWall.Seconds(),
		"attack.geom_exact":     float64(t.geomExact),
	}
}
