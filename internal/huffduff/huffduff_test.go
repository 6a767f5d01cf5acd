package huffduff

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/converge"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

// deployVictim builds, lightly prunes, and deploys an architecture on the
// simulated accelerator.
func deployVictim(t *testing.T, arch *models.Arch, keep float64) (*accel.Machine, *models.Binding) {
	t.Helper()
	m, bind, err := newVictim(arch, keep)
	if err != nil {
		t.Fatal(err)
	}
	return m, bind
}

// newVictim is deployVictim for callers without a *testing.T.
func newVictim(arch *models.Arch, keep float64) (*accel.Machine, *models.Binding, error) {
	bind, err := arch.Build(rand.New(rand.NewSource(1234)))
	if err != nil {
		return nil, nil, err
	}
	if keep < 1 {
		prune.GlobalMagnitude(bind.Net.Params(), keep)
	}
	return accel.NewMachine(accel.DefaultConfig(), arch, bind), bind, nil
}

// attackRun is one finished attack on a freshly deployed victim.
type attackRun struct {
	res   *Result
	bind  *models.Binding
	costs attackCosts
	// ledger is every snapshot the attack's convergence ledger recorded.
	ledger []converge.Snapshot
}

// attackCosts are the costs of one attack that depend only on the code,
// never on the host, so tier-1 pins them (checkCostPins).
type attackCosts struct {
	queries, deviceCycles, traceEvents, solutions float64
	// cellsEvaluated is the symbolic grid cells the final solve evaluated.
	// log10Volume and queriesTo90Pct come from the convergence ledger: the
	// final log10 solution-space volume, and the victim queries spent when
	// 90% of the collapse had happened.
	cellsEvaluated, log10Volume, queriesTo90Pct float64
}

// runAttack deploys a victim and attacks it with a convergence ledger
// attached; the ledger only observes.
func runAttack(arch *models.Arch, keep float64, cfg Config) (attackRun, error) {
	m, bind, err := newVictim(arch, keep)
	if err != nil {
		return attackRun{}, err
	}
	led := converge.NewLedger()
	cfg.Ledger = led
	res, err := Attack(m, cfg)
	led.Close()
	if err != nil {
		return attackRun{}, err
	}
	dev, sum := m.Campaign(), led.Summary()
	return attackRun{res: res, bind: bind, ledger: led.Snapshots(), costs: attackCosts{
		queries:        float64(dev.Runs),
		deviceCycles:   dev.SimulatedTime * m.Cfg.ClockHz,
		traceEvents:    float64(dev.TraceReadEvents + dev.TraceWriteEvents),
		solutions:      float64(res.Space.Count()),
		cellsEvaluated: float64(res.Probe.Cells),
		log10Volume:    sum.FinalLog10Volume,
		queriesTo90Pct: float64(sum.QueriesTo90Pct),
	}}, nil
}

func attackVictim(t *testing.T, arch *models.Arch, keep float64, cfg Config) attackRun {
	t.Helper()
	if raceEnabled {
		t.Skip("full attack campaign; the race-instrumented simulator is an order of magnitude slower")
	}
	run, err := runAttack(arch, keep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// sharedAttack is a SmallCNN DefaultConfig attack that runs at most once per
// test binary; every test that asks for it gets the same run, and fails if
// the attack failed. Tests must not modify the shared result.
type sharedAttack struct {
	keep float64
	once sync.Once
	run  attackRun
	err  error
}

var (
	smallCNNDense  = &sharedAttack{keep: 1}
	smallCNNPruned = &sharedAttack{keep: 0.5}
)

func (s *sharedAttack) get(t *testing.T) attackRun {
	t.Helper()
	if raceEnabled {
		t.Skip("full attack campaign; the race-instrumented simulator is an order of magnitude slower")
	}
	s.once.Do(func() { s.run, s.err = runAttack(models.SmallCNN(), s.keep, DefaultConfig()) })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.run
}

// checkCostPins fails t when a cost exceeds its pin by more than 5%, or 10%
// for cells evaluated, whose count moves with solve-schedule changes.
// A pin is the cost measured when it was set: lower it when a change lowers
// the cost, and raise it only with a reason.
func checkCostPins(t *testing.T, got, pin attackCosts) {
	t.Helper()
	for _, c := range []struct {
		name          string
		got, pin, tol float64
	}{
		{"victim queries", got.queries, pin.queries, 1.05},
		{"device cycles", got.deviceCycles, pin.deviceCycles, 1.05},
		{"trace events", got.traceEvents, pin.traceEvents, 1.05},
		{"solutions", got.solutions, pin.solutions, 1.05},
		{"cells evaluated", got.cellsEvaluated, pin.cellsEvaluated, 1.1},
		{"final log10 volume", got.log10Volume, pin.log10Volume, 1.05},
		{"queries to 90% of the collapse", got.queriesTo90Pct, pin.queriesTo90Pct, 1.05},
	} {
		if c.got > c.pin*c.tol {
			t.Errorf("%s = %.10g, above its pin %.10g x %.2f", c.name, c.got, c.pin, c.tol)
		}
	}
}

func TestGraphRecoverySmallCNN(t *testing.T) {
	arch := models.SmallCNN()
	res := smallCNNDense.get(t).res
	g := res.Graph
	if len(g.Nodes) != len(arch.Units)+1 {
		t.Fatalf("graph nodes = %d, want %d", len(g.Nodes), len(arch.Units)+1)
	}
	wantKinds := []NodeKind{NodeInput, NodeConv, NodeConv, NodeConv, NodeLinear}
	for i, k := range wantKinds {
		if g.Nodes[i].Kind != k {
			t.Fatalf("node %d kind = %s, want %s\n%s", i, g.Nodes[i].Kind, k, g)
		}
	}
}

func TestProberRecoversSmallCNNGeometry(t *testing.T) {
	res := smallCNNDense.get(t).res
	want := map[int]Geom{
		1: {Kernel: 5, Stride: 1, Pool: 1},
		2: {Kernel: 3, Stride: 1, Pool: 2},
		3: {Kernel: 3, Stride: 2, Pool: 1},
	}
	for node, g := range want {
		got := res.Probe.Geoms[node]
		if got != g {
			t.Fatalf("node %d geometry = %+v, want %+v", node, got, g)
		}
		if !res.Probe.Exact[node] {
			t.Fatalf("node %d matched only by refinement", node)
		}
	}
}

func TestTimingChannelRecoversKRatios(t *testing.T) {
	res := smallCNNDense.get(t).res // true K: 8, 16, 16
	wantRatios := map[int]float64{1: 1, 2: 2, 3: 2}
	for node, want := range wantRatios {
		got := res.Timing.KRatio[node]
		if math.Abs(got-want)/want > 0.15 {
			t.Fatalf("node %d k-ratio = %.3f, want ~%.1f", node, got, want)
		}
	}
}

func TestSolutionSpaceContainsTruth(t *testing.T) {
	arch := models.SmallCNN() // first conv K = 8
	res := smallCNNDense.get(t).res
	sp := res.Space
	if sp.K1Min > 8 || sp.K1Max < 8 {
		t.Fatalf("true k1=8 outside recovered range [%d,%d]", sp.K1Min, sp.K1Max)
	}
	foundTruth := false
	for _, sol := range sp.Solutions {
		if sol.K1 != 8 {
			continue
		}
		foundTruth = true
		// The k1=8 candidate must reproduce the victim's conv geometry and
		// channel counts exactly.
		convIdx := 0
		for _, u := range sol.Arch.Units {
			if u.Kind != models.UnitConv {
				continue
			}
			truth := arch.Units[arch.ConvUnits()[convIdx]]
			if u.OutC != truth.OutC || u.Kernel != truth.Kernel || u.Stride != truth.Stride || u.Pool != truth.Pool {
				t.Fatalf("candidate conv %d = %+v, truth %+v", convIdx, u, truth)
			}
			convIdx++
		}
		// Architecture must be buildable.
		if _, err := sol.Arch.Shapes(); err != nil {
			t.Fatalf("candidate arch invalid: %v", err)
		}
	}
	if !foundTruth {
		t.Fatal("no k1=8 candidate in solution space")
	}
	// The space stays small (paper: < 100).
	if sp.Count() > 100 {
		t.Fatalf("solution space %d too large", sp.Count())
	}
}

// TestSmallCNNCostPins pins the dense SmallCNN attack's deterministic costs.
func TestSmallCNNCostPins(t *testing.T) {
	checkCostPins(t, smallCNNDense.get(t).costs, attackCosts{
		queries: 3074, deviceCycles: 24_257_256, traceEvents: 2_165_366, solutions: 13,
		cellsEvaluated: 108_053, log10Volume: 1.114, queriesTo90Pct: 3074,
	})
}

func TestSolutionDensityRecovered(t *testing.T) {
	arch := models.SmallCNN()
	run := attackVictim(t, arch, 0.4, DefaultConfig())
	res, bind := run.res, run.bind
	// Find the k1=8 candidate and compare recovered density with the
	// victim's true first-layer density.
	for _, sol := range res.Space.Solutions {
		if sol.K1 != 8 {
			continue
		}
		trueDensity := 1 - bind.Conv[0].Weight.W.Sparsity(0)
		got := sol.Density[0]
		if math.Abs(got-trueDensity) > 0.1 {
			t.Fatalf("recovered density %.3f, true %.3f", got, trueDensity)
		}
		return
	}
	t.Fatal("k1=8 candidate missing")
}

func TestAttackResNetStyleGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("full-graph attack")
	}
	arch := models.ResNet18(16)
	cfg := DefaultConfig()
	cfg.Probe.Trials = 6
	run := attackVictim(t, arch, 0.6, cfg)
	res := run.res

	// Kinds: adds and the global pool must be classified correctly.
	for i, u := range arch.Units {
		node := res.Graph.Nodes[i+1]
		switch u.Kind {
		case models.UnitConv:
			if node.Kind != NodeConv {
				t.Fatalf("unit %d (%s): kind %s", i, u.Name, node.Kind)
			}
		case models.UnitAdd:
			if node.Kind != NodeAdd {
				t.Fatalf("unit %d (%s): kind %s", i, u.Name, node.Kind)
			}
		case models.UnitAvgPool:
			if node.Kind != NodePool {
				t.Fatalf("unit %d (%s): kind %s", i, u.Name, node.Kind)
			}
		case models.UnitLinear:
			if node.Kind != NodeLinear {
				t.Fatalf("unit %d (%s): kind %s", i, u.Name, node.Kind)
			}
		}
	}

	// Geometry recovery across all 20 convs (17 main + 3 shortcuts).
	// Kernels and pooling must be exact everywhere. Stride *placement*
	// within the deepest blocks (4×4/8×8 maps) is a documented blind spot:
	// once every probe grid is pairwise distinct, (s2,s1) and (s1,s2)
	// orderings inside a residual block predict identical partitions and
	// identical block output dims, so they are observationally equivalent.
	// We therefore require exact strides on all but the deepest two stages
	// and dimension-equivalence everywhere.
	strideMiss := 0
	for i, u := range arch.Units {
		if u.Kind != models.UnitConv {
			continue
		}
		got := res.Probe.Geoms[i+1]
		if got.Kernel != u.Kernel || got.Pool != u.Pool {
			t.Fatalf("unit %d (%s): recovered %+v, true k=%d s=%d p=%d", i, u.Name, got, u.Kernel, u.Stride, u.Pool)
		}
		if got.Stride != u.Stride {
			strideMiss++
			t.Logf("stride swap at unit %d (%s): recovered s=%d, true s=%d", i, u.Name, got.Stride, u.Stride)
		}
	}
	if strideMiss > 4 {
		t.Fatalf("%d stride misses; only deep-block swaps are acceptable", strideMiss)
	}
	// Dimension equivalence at block boundaries: stride swaps move where
	// the downsampling happens inside a block but must preserve every
	// residual join and pooling input (checked by the solver); verify
	// against ground truth.
	shapes, err := arch.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range arch.Units {
		if u.Kind != models.UnitAdd && u.Kind != models.UnitAvgPool {
			continue
		}
		if got := res.Dims.OutH[i+1]; got != shapes[i].H {
			t.Fatalf("unit %d (%s): recovered outH %d, true %d", i, u.Name, got, shapes[i].H)
		}
	}

	// Global pool factor.
	for i, u := range arch.Units {
		if u.Kind == models.UnitAvgPool {
			if got := res.Probe.PoolFactors[i+1]; got != u.Pool {
				t.Fatalf("pool factor %d, want %d", got, u.Pool)
			}
		}
	}

	// Timing channel: the measured psum-volume ratio (Δt-derived) must
	// match the true P·Q·K ratio for every conv. Comparing volumes rather
	// than bare k-ratios keeps the check valid at stride-swapped layers.
	truePsumH := map[int]int{}
	kTrue := map[int]int{}
	for i, u := range arch.Units {
		if u.Kind != models.UnitConv {
			continue
		}
		inH := 32
		if u.In[0] != models.InputID {
			inH = shapes[u.In[0]].H
		}
		pad := (u.Kernel - 1) / 2
		truePsumH[i+1] = (inH+2*pad-u.Kernel)/u.Stride + 1
		kTrue[i+1] = u.OutC
	}
	ref := res.Timing.RefNode
	for node, k := range kTrue {
		wantVol := float64(k*truePsumH[node]*truePsumH[node]) / float64(kTrue[ref]*truePsumH[ref]*truePsumH[ref])
		p := res.Dims.PsumH[node]
		pr := res.Dims.PsumH[ref]
		gotVol := res.Timing.KRatio[node] * float64(p*p) / float64(pr*pr)
		if math.Abs(gotVol-wantVol)/wantVol > 0.2 {
			t.Fatalf("node %d psum volume ratio %.3f, want %.3f", node, gotVol, wantVol)
		}
	}

	checkCostPins(t, run.costs, attackCosts{
		queries: 578, deviceCycles: 5_208_434, traceEvents: 1_366_113, solutions: 4,
		cellsEvaluated: 1_502_723, log10Volume: 10.637, queriesTo90Pct: 578,
	})
	checkSolveGoldens(t, "resnet18_16", res.Data)
}

// TestTrialEscalationResolvesAlias reproduces §5.4's probability
// amplification: at a harder pruning level, few trials leave the conv3+pool2
// layer's pattern partially observed, which the conv3+stride2 alias matches
// exactly; enough independent trials reveal the missing distinction and flip
// the solve to the true geometry.
func TestTrialEscalationResolvesAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("long amplification experiment")
	}
	arch := models.SmallCNN()
	m, _ := deployVictim(t, arch, 0.5)
	rng := rand.New(rand.NewSource(4242))
	img := tensor.New(1, 3, 32, 32)
	img.Uniform(rng, 0.05, 0.95)
	tr, err := m.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(segs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultProbeConfig()
	cfg.Trials = 128
	data, err := Collect(m, g, 3, 32, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	final, err := data.Solve(128)
	if err != nil {
		t.Fatal(err)
	}
	want := Geom{Kernel: 3, Stride: 1, Pool: 2}
	if final.Geoms[2] != want {
		t.Fatalf("node 2 at T=128: %+v, want %+v", final.Geoms[2], want)
	}
	// With few trials the solve may land on the alias; by T=128 it must
	// have converged, and convergence must be monotone-stable afterwards.
	prev, err := data.Solve(64)
	if err == nil && SameGeometry(prev, final) {
		t.Log("geometry already converged by T=64")
	}
	checkSolveGoldens(t, "alias", data)
}

func TestObservabilityRate(t *testing.T) {
	res := smallCNNPruned.get(t).res
	rate := ObservabilityRate(res.Data, res.Probe)
	// The paper reports ~77% for single random probes; anything clearly
	// above chance confirms the channel works. Our pruned random-weight
	// victims are usually near 100%.
	if rate < 0.5 {
		t.Fatalf("observability rate %.2f too low", rate)
	}
	if rate > 1 {
		t.Fatalf("rate %.2f out of range", rate)
	}
}

// TestProbeSnapshots pins the probe snapshots the collection appends to the
// ledger in its ctx: at most nine per collection, their notes counting the
// positions done strictly up to the campaign total, queries never falling,
// and the volume flat — probing gathers evidence, the solve spends it.
func TestProbeSnapshots(t *testing.T) {
	run := smallCNNPruned.get(t)
	cfg := run.res.Data.Cfg
	total := cfg.Trials * 4 * cfg.Q
	var probes []converge.Snapshot
	var before converge.Snapshot
	for i, s := range run.ledger {
		if s.Stage != "probe" {
			continue
		}
		if len(probes) == 0 {
			if i == 0 {
				t.Fatal("ledger opens on a probe snapshot; want calibrate first")
			}
			before = run.ledger[i-1]
		}
		probes = append(probes, s)
	}
	if len(probes) == 0 || len(probes) > 9 {
		t.Fatalf("%d probe snapshots for one collection, want 1 to 9", len(probes))
	}
	done, queries := 0, before.Queries
	for _, s := range probes {
		var k, n int
		if _, err := fmt.Sscanf(s.Note, "positions=%d/%d", &k, &n); err != nil || n != total || k <= done {
			t.Errorf("probe snapshot %d note %q after %d positions, want positions=k/%d with k > %d", s.Seq, s.Note, done, total, done)
		}
		done = k
		if s.Queries < queries {
			t.Errorf("probe snapshot %d: queries fell from %d to %d", s.Seq, queries, s.Queries)
		}
		queries = s.Queries
		if math.Abs(s.Log10Volume-before.Log10Volume) > 1e-12 || s.BitsEliminated > 0 {
			t.Errorf("probe snapshot %d: log10 volume %v (%v bits eliminated), want the %s snapshot's %v",
				s.Seq, s.Log10Volume, s.BitsEliminated, before.Stage, before.Log10Volume)
		}
	}
	if done != total {
		t.Errorf("last probe snapshot at %d positions, want %d", done, total)
	}
}

func TestSampleSolutions(t *testing.T) {
	res := smallCNNPruned.get(t).res
	rng := rand.New(rand.NewSource(9))
	n := 3
	if len(res.Space.Solutions) < n {
		n = len(res.Space.Solutions)
	}
	got := SampleSolutions(res.Space, n, rng)
	if len(got) != n {
		t.Fatalf("sampled %d, want %d", len(got), n)
	}
	seen := map[int]bool{}
	for _, s := range got {
		if seen[s.K1] {
			t.Fatal("duplicate sample")
		}
		seen[s.K1] = true
	}
	all := SampleSolutions(res.Space, 10000, rng)
	if len(all) != len(res.Space.Solutions) {
		t.Fatal("oversampling should return everything")
	}
}

func TestDefenceBreaksNaiveProber(t *testing.T) {
	if raceEnabled {
		t.Skip("full attack campaign; the race-instrumented simulator is an order of magnitude slower")
	}
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(55))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := accel.DefaultConfig()
	cfg.ZeroPadProb = 0.02 // §9.2: randomly leave zeros uncompressed
	m := accel.NewMachine(cfg, arch, bind)
	_, err = Attack(m, DefaultConfig())
	if err == nil {
		t.Fatal("attack should fail against the randomized-padding defence")
	}
}

func TestNoiseTolerantProberDefeatsWeakDefence(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated-trials experiment")
	}
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(56))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	acfg := accel.DefaultConfig()
	acfg.ZeroPadProb = 0.0005 // a weak deployment of the defence
	m := accel.NewMachine(acfg, arch, bind)
	cfg := DefaultConfig()
	cfg.Probe.NoiseTolerant = true
	cfg.Probe.Trials = 4
	res, err := Attack(m, cfg)
	if err != nil {
		t.Fatalf("noise-tolerant attack failed: %v", err)
	}
	if res.Probe.Geoms[1].Kernel != 5 {
		t.Fatalf("first-layer kernel %d, want 5", res.Probe.Geoms[1].Kernel)
	}
}

func TestBuildGraphErrors(t *testing.T) {
	if _, err := BuildGraph(nil); err == nil {
		t.Fatal("expected error for empty obs")
	}
	// Segment 0 that reads data is not an input DMA.
	bad := []trace.SegmentObs{{Index: 0, InputBytes: 4}, {Index: 1, WeightBytes: 2}}
	if _, err := BuildGraph(bad); err == nil {
		t.Fatal("expected error for non-DMA segment 0")
	}
	// Weightless, dep-less middle segment is unclassifiable.
	bad2 := []trace.SegmentObs{{Index: 0}, {Index: 1}, {Index: 2, WeightBytes: 1}}
	if _, err := BuildGraph(bad2); err == nil {
		t.Fatal("expected error for unclassifiable segment")
	}
}

func TestWeightNNZInversion(t *testing.T) {
	cfg := DefaultFinalizeConfig()
	// 12 bits per entry: 100 entries = 150 bytes.
	if got := cfg.WeightNNZ(150); got != 100 {
		t.Fatalf("WeightNNZ = %d, want 100", got)
	}
}

func TestNodeKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{NodeInput: "input", NodeConv: "conv", NodeAdd: "add", NodePool: "pool", NodeLinear: "linear"} {
		if k.String() != want {
			t.Fatalf("%v", k)
		}
	}
}
