// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§8). Each benchmark prints the rows/series the paper reports;
// absolute numbers differ (synthetic dataset, width-scaled victims, CPU
// training — see DESIGN.md), but the shape — who wins, by what factor,
// where crossovers fall — is the reproduction target. EXPERIMENTS.md records
// paper-vs-measured for every row.
//
// Run with: go test -bench=. -benchmem -benchtime=1x
package huffduff_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/huffduff/huffduff"
	"github.com/huffduff/huffduff/internal/accel"
	"github.com/huffduff/huffduff/internal/adv"
	"github.com/huffduff/huffduff/internal/dataset"
	"github.com/huffduff/huffduff/internal/dram"
	attack "github.com/huffduff/huffduff/internal/huffduff"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/obs"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/reversecnn"
	"github.com/huffduff/huffduff/internal/symconv"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
	"github.com/huffduff/huffduff/internal/train"
)

// ---------------------------------------------------------------------------
// Table 1 (+ §4.2 in-text): solution-space size, dense vs naïve sparse.
// ---------------------------------------------------------------------------

func BenchmarkTable1SolutionSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\n[Table 1] solution-space size (paper: dense ResNet-18 = 8; sparse ResNet-18 = 4e96; sparse VGG-S = 2.6e74)\n")
		fmt.Printf("%-12s %16s %14s\n", "network", "dense solutions", "sparse log10")
		for _, arch := range []*models.Arch{models.ResNet18(1), models.VGGS(1)} {
			denseObs, err := reversecnn.FromArch(arch, reversecnn.DenseProfile, 1)
			if err != nil {
				b.Fatal(err)
			}
			chain, _, _ := denseObs.ChainObs()
			sols, err := reversecnn.SolveDense(chain, arch.InH, arch.InC, reversecnn.DefaultSpace(), 0)
			if err != nil {
				b.Fatal(err)
			}
			sparseObs, err := reversecnn.FromArch(arch, reversecnn.LTHProfile, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			count, err := reversecnn.SparseCount(sparseObs.Obs, sparseObs.Xs, sparseObs.Cs, 0.999, reversecnn.DefaultSpace())
			if err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%-12s %16d %14d\n", arch.Name, len(sols), reversecnn.OrdersOfMagnitude(count))
		}
	}
}

// ---------------------------------------------------------------------------
// §5.2: single-probe boundary-effect observability (paper: ~77%).
// ---------------------------------------------------------------------------

func BenchmarkBoundaryObservability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch := models.SmallCNN()
		rng := rand.New(rand.NewSource(21))
		bind, err := arch.Build(rng)
		if err != nil {
			b.Fatal(err)
		}
		prune.GlobalMagnitude(bind.Net.Params(), 0.3)
		m := accel.NewMachine(accel.DefaultConfig(), arch, bind)
		cfg := attack.DefaultConfig()
		cfg.Probe.Trials = 16
		res, err := attack.Attack(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rate := attack.ObservabilityRate(res.Data, res.Probe)
		fmt.Printf("\n[§5.2] single-probe boundary-effect observability: %.0f%% (paper: 77%% on pruned kernels)\n", 100*rate)
	}
}

// ---------------------------------------------------------------------------
// §8.2 Prober: geometry convergence vs trial count (paper: 2048 trials
// always sufficient; most layers converge far earlier).
// ---------------------------------------------------------------------------

func BenchmarkProberConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch := models.SmallCNN()
		rng := rand.New(rand.NewSource(1234))
		bind, err := arch.Build(rng)
		if err != nil {
			b.Fatal(err)
		}
		prune.GlobalMagnitude(bind.Net.Params(), 0.5)
		m := accel.NewMachine(accel.DefaultConfig(), arch, bind)

		img := tensor.New(arch.InC, arch.InH, arch.InW)
		img.Uniform(rng, 0.05, 0.95)
		tr, err := m.Run(img)
		if err != nil {
			b.Fatal(err)
		}
		segs, err := traceAnalyze(tr)
		if err != nil {
			b.Fatal(err)
		}
		g, err := attack.BuildGraph(segs)
		if err != nil {
			b.Fatal(err)
		}
		cfg := attack.DefaultProbeConfig()
		cfg.Trials = 128
		data, err := attack.Collect(m, g, arch.InC, arch.InH, arch.InW, cfg)
		if err != nil {
			b.Fatal(err)
		}
		truth := map[int]attack.Geom{
			1: {Kernel: 5, Stride: 1, Pool: 1},
			2: {Kernel: 3, Stride: 1, Pool: 2},
			3: {Kernel: 3, Stride: 2, Pool: 1},
		}
		fmt.Printf("\n[§8.2 prober] correct conv geometries vs trial count (3 layers total):\n")
		fmt.Printf("%8s %8s\n", "trials", "correct")
		for _, t := range []int{2, 4, 8, 16, 32, 64, 128} {
			pr, err := data.Solve(t)
			correct := 0
			if err == nil {
				for node, want := range truth {
					if pr.Geoms[node] == want {
						correct++
					}
				}
			}
			fmt.Printf("%8d %8d\n", t, correct)
		}
	}
}

// ---------------------------------------------------------------------------
// §8.2 GLB-bound table: extra GLB bandwidth before the first DRAM-bound
// layer, per memory configuration.
// ---------------------------------------------------------------------------

func BenchmarkGLBBoundTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\n[§8.2 table] GLB headroom multiplier before a layer becomes DRAM-bound\n")
		fmt.Printf("(paper: VGG-S 2/4/2.3/4.6/2.7/5.3; ResNet-18 1.8/3.5/2/4.1/2.3/4.7)\n")
		fmt.Printf("%-12s", "network")
		for _, mem := range dram.EvaluatedSpecs() {
			fmt.Printf(" %9s-%d", strings.SplitN(mem.Name, "-", 2)[0], mem.Channels)
		}
		fmt.Println()
		for _, mk := range []func(int) *models.Arch{models.VGGS, models.ResNet18} {
			arch := mk(8)
			rng := rand.New(rand.NewSource(2))
			bind, err := arch.Build(rng)
			if err != nil {
				b.Fatal(err)
			}
			prune.GlobalMagnitude(bind.Net.Params(), 0.1)
			cfg := accel.DefaultConfig()
			m := accel.NewMachine(cfg, arch, bind)
			img := tensor.New(arch.InC, arch.InH, arch.InW)
			img.Uniform(rng, 0, 1)
			if _, err := m.Run(img); err != nil {
				b.Fatal(err)
			}
			fmt.Printf("%-12s", arch.Name)
			for _, mem := range dram.EvaluatedSpecs() {
				c := cfg
				c.Mem = mem
				headroom := 1e18
				for u, unit := range arch.Units {
					if unit.Kind != models.UnitConv {
						continue
					}
					psums := bind.PsumOut(u).Size()
					out := bind.UnitTensor(u)
					outBytes := c.ActCodec.Size(out.Data)
					glb, dr := accel.EncodingBounds(c, psums, outBytes)
					if h := glb / dr; h < headroom {
						headroom = h
					}
				}
				fmt.Printf(" %11.1f", headroom)
			}
			fmt.Println()
		}
	}
}

// ---------------------------------------------------------------------------
// §8.2 Finalizing: first-layer channel range and final solution count
// (paper: ResNet-18 [30,73] → 44 solutions; VGG-S [58,123] → 66).
// ---------------------------------------------------------------------------

func BenchmarkSolutionSpaceFinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fmt.Printf("\n[§8.2 finalizing] first-layer channel range and solution count\n")
		fmt.Printf("(paper, full-size victims: ResNet-18 [30,73] -> 44; VGG-S [58,123] -> 66)\n")
		fmt.Printf("%-14s %8s %12s %10s %10s\n", "victim", "true k1", "k1 range", "solutions", "truth in")
		for _, mk := range []func(int) *models.Arch{models.ResNet18, models.VGGS} {
			arch := mk(8)
			rng := rand.New(rand.NewSource(3))
			bind, err := arch.Build(rng)
			if err != nil {
				b.Fatal(err)
			}
			prune.GlobalMagnitude(bind.Net.Params(), 0.4)
			m := accel.NewMachine(accel.DefaultConfig(), arch, bind)
			cfg := attack.DefaultConfig()
			cfg.Probe.Trials = 16
			res, err := attack.Attack(m, cfg)
			if err != nil {
				b.Fatalf("%s: %v", arch.Name, err)
			}
			trueK1 := arch.Units[arch.ConvUnits()[0]].OutC
			in := trueK1 >= res.Space.K1Min && trueK1 <= res.Space.K1Max
			fmt.Printf("%-14s %8d [%4d,%4d] %10d %10v\n",
				arch.Name, trueK1, res.Space.K1Min, res.Space.K1Max, res.Space.Count(), in)
		}
	}
}

// ---------------------------------------------------------------------------
// Shared setup for the accuracy/transfer figures: trained victim, candidate
// architectures from the attack, and baselines.
// ---------------------------------------------------------------------------

type surrogate struct {
	name string
	bind *models.Binding
	acc  float64
}

type figSetup struct {
	once sync.Once
	err  error

	tr, te    *dataset.Dataset
	victimAcc float64
	victim    *models.Binding
	varch     *models.Arch
	footprint int
	space     *attack.SolutionSpace

	baseline   surrogate   // Fig. 4 prior-generation baseline
	transfers  []surrogate // Fig. 5/6 baselines B1–B4
	candidates []surrogate // sampled HuffDuff candidates
	oracle     surrogate
}

var figs figSetup

// init trains the victim, runs the attack, and trains every surrogate the
// accuracy/transfer figures share — once for all figure benchmarks.
func (f *figSetup) init(b *testing.B) {
	f.once.Do(func() {
		// This exact recipe (1200 samples, 3 epochs + prune + 2 fine-tune
		// epochs, seed 10) trains the scaled ResNet victim to ~70 %;
		// trimming samples or the fine-tune destabilizes SGD at this width
		// and collapses the victim, voiding the transfer figures.
		f.tr, f.te = dataset.Synthetic(77, 1200, 400, 0.1)
		rng := rand.New(rand.NewSource(10))
		f.varch = models.ResNet18(16)
		bind, err := f.varch.Build(rng)
		if err != nil {
			f.err = err
			return
		}
		cfg := train.DefaultConfig()
		cfg.Epochs = 3
		train.Fit(bind.Net, f.tr, cfg)
		prune.GlobalMagnitude(bind.Net.Params(), 0.3)
		cfg.Epochs = 2
		train.Fit(bind.Net, f.tr, cfg)
		f.victim = bind
		f.victimAcc = train.Accuracy(bind.Net, f.te, 64)
		f.footprint = bind.Net.NNZParams()

		m := accel.NewMachine(accel.DefaultConfig(), f.varch, bind)
		acfg := attack.DefaultConfig()
		acfg.Probe.Trials = 16
		res, err := attack.Attack(m, acfg)
		if err != nil {
			f.err = fmt.Errorf("attack on trained victim: %w", err)
			return
		}
		f.space = res.Space

		// keep is relative to the surrogate's own weight count (the paper
		// prunes baselines "2x" and "5x"); 1 disables pruning.
		mk := func(name string, arch *models.Arch, keep float64, seed int64) surrogate {
			footprint := 0
			if keep < 1 {
				wc, err := arch.WeightCount()
				if err != nil {
					f.err = err
					return surrogate{}
				}
				footprint = int(float64(wc) * keep)
			}
			bind, err := trainCandidate(arch, seed, f.tr, footprint)
			if err != nil {
				f.err = err
				return surrogate{}
			}
			return surrogate{name: name, bind: bind, acc: train.Accuracy(bind.Net, f.te, 64)}
		}
		f.baseline = mk("baseline (vgg-s)", models.VGGS(16), 1, 100)
		f.transfers = []surrogate{
			mk("B1 vgg-s 2x pruned", models.VGGS(16), 0.5, 301),
			mk("B2 vgg-s 5x pruned", models.VGGS(16), 0.2, 302),
			mk("B3 mobilenetv2 2x pruned", models.MobileNetV2(16), 0.5, 303),
			mk("B4 mobilenetv2 5x pruned", models.MobileNetV2(16), 0.2, 304),
		}
		rng2 := rand.New(rand.NewSource(45))
		for si, sol := range attack.SampleSolutions(f.space, 2, rng2) {
			name := fmt.Sprintf("huffduff candidate k1=%d", sol.K1)
			f.candidates = append(f.candidates, mk(name, sol.Arch, 1, int64(400+si)))
		}
		f.oracle = mk("oracle (true arch)", models.ResNet18(16), 1, 500)
	})
	if f.err != nil {
		b.Fatal(f.err)
	}
}

// trainCandidate builds, trains, and (when footprint > 0) prunes a network
// to the given absolute nonzero budget with a fine-tuning pass.
func trainCandidate(arch *models.Arch, seed int64, tr *dataset.Dataset, footprint int) (*models.Binding, error) {
	rng := rand.New(rand.NewSource(seed))
	bind, err := arch.Build(rng)
	if err != nil {
		return nil, err
	}
	cfg := train.DefaultConfig()
	cfg.Epochs = 3
	cfg.Seed = seed
	train.Fit(bind.Net, tr, cfg)
	if footprint > 0 {
		if keep := float64(footprint) / float64(bind.Net.NumParams()); keep < 1 {
			prune.GlobalMagnitude(bind.Net.Params(), keep)
			cfg.Epochs = 1
			train.Fit(bind.Net, tr, cfg)
		}
	}
	return bind, nil
}

// ---------------------------------------------------------------------------
// Fig. 4: accuracy of sampled candidates vs prior-generation baseline under
// the iso-footprint constraint.
// ---------------------------------------------------------------------------

func BenchmarkFig4Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs.init(b)
		fmt.Printf("\n[Fig. 4] accuracy, victim %s at %.1f%% (footprint %d nnz)\n",
			figs.varch.Name, 100*figs.victimAcc, figs.footprint)
		fmt.Printf("%-28s accuracy %5.1f%%\n", figs.baseline.name, 100*figs.baseline.acc)
		for _, c := range figs.candidates {
			fmt.Printf("%-28s accuracy %5.1f%%\n", c.name, 100*c.acc)
		}
		fmt.Printf("%-28s accuracy %5.1f%%  (paper: candidates beat the prior-generation baseline and approach the victim)\n",
			"victim", 100*figs.victimAcc)
	}
}

// ---------------------------------------------------------------------------
// Figs. 5 and 6: black-box targeted transfer success, ε = 32 and ε = 16.
// ---------------------------------------------------------------------------

func transferFigure(b *testing.B, eps float64) {
	figs.init(b)
	cfg := adv.DefaultBIM(eps)
	const evalN = 30

	fmt.Printf("\n[Fig. %d] targeted transfer success (least-likely label, eps=%g/255)\n", map[float64]int{32: 5, 16: 6}[eps], eps)
	report := func(s surrogate) {
		res, err := adv.EvaluateTransfer(figs.victim.Net, s.bind.Net, figs.te, evalN, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("%-28s %5.1f%% (%d/%d)\n", s.name, 100*res.Rate(), res.Successes, res.Total)
	}
	for _, s := range figs.transfers {
		report(s)
	}
	for _, s := range figs.candidates {
		report(s)
	}
	report(figs.oracle)
}

func BenchmarkFig5Transfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		transferFigure(b, 32)
	}
}

func BenchmarkFig6Transfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		transferFigure(b, 16)
	}
}

// ---------------------------------------------------------------------------
// Observability overhead: the same SmallCNN campaign with instrumentation
// disabled (nil Recorder), a no-op Recorder (full call dispatch, no
// storage), and the in-memory Collector. The nil path is the acceptance
// bar: ≤2% over the uninstrumented baseline.
// ---------------------------------------------------------------------------

func BenchmarkRecorderOverhead(b *testing.B) {
	campaign := func(rec huffduff.ObsRecorder) float64 {
		arch := models.SmallCNN()
		rng := rand.New(rand.NewSource(21))
		bind, err := arch.Build(rng)
		if err != nil {
			b.Fatal(err)
		}
		prune.GlobalMagnitude(bind.Net.Params(), 0.5)
		m := accel.NewMachine(accel.DefaultConfig(), arch, bind)
		cfg := attack.DefaultConfig()
		cfg.Probe.Trials = 8
		cfg.Obs = rec
		start := time.Now()
		if _, err := attack.Attack(m, cfg); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	for i := 0; i < b.N; i++ {
		campaign(nil) // warm caches so the baseline isn't penalized
		base := campaign(nil)
		noop := campaign(obs.Noop())
		coll := campaign(obs.NewCollector())
		pct := func(v float64) float64 { return 100 * (v - base) / base }
		fmt.Printf("\n[obs overhead] SmallCNN campaign: nil %.3fs, Noop %.3fs (%+.1f%%), Collector %.3fs (%+.1f%%)\n",
			base, noop, pct(noop), coll, pct(coll))
		fmt.Println("acceptance: disabled instrumentation (nil Recorder) costs ≤2%.")
	}
}

// ---------------------------------------------------------------------------
// Ablation: the symbolic engine (exact evaluation in GF(2⁶¹−1)) vs numeric
// float evaluation with random weights, for pattern prediction (DESIGN.md
// design-choice ablation).
// ---------------------------------------------------------------------------

func BenchmarkAblationSymbolicVsNumeric(b *testing.B) {
	pat := probe.Pattern{M: 0, N: 1, Q: 16, FeatRow: 16}
	layers := [][3]int{{5, 1, 1}, {3, 1, 2}, {3, 2, 1}}
	for i := 0; i < b.N; i++ {
		// Symbolic prediction.
		var eng symconv.Engine
		symKeys := make([]symconv.Value, pat.Q)
		for q := 0; q < pat.Q; q++ {
			g := eng.ProbeGrid(pat, q, 32, 32)
			for li, l := range layers {
				g = eng.MaxPool(eng.Conv(g, fmt.Sprintf("l%d", li), l[0], l[1]), l[2])
			}
			symKeys[q] = symconv.Signature(g)
		}
		symPat := symconv.ClassPattern(symKeys)

		// Numeric random-evaluation surrogate: same structure, random
		// weights, exact float comparison of sorted outputs.
		rng := rand.New(rand.NewSource(9))
		numPat := numericPattern(rng, pat, layers)
		agree := symconv.SamePartition(symPat, numPat)
		if i == 0 {
			fmt.Printf("\n[ablation] symbolic %s vs numeric %s (agree: %v)\n",
				symconv.PatternString(symPat), symconv.PatternString(numPat), agree)
			fmt.Println("float evaluation reproduces the partition with high probability, but rounding")
			fmt.Println("can merge or split values; the field engine's exact arithmetic cannot.")
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation: timing-channel k-ratio error with and without the Δt head
// correction, across DRAM block sizes.
// ---------------------------------------------------------------------------

func BenchmarkAblationTimingCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch := models.SmallCNN() // true k-ratios 1 : 2 : 2
		rng := rand.New(rand.NewSource(12))
		bind, err := arch.Build(rng)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("\n[ablation] timing k-ratio relative error vs DRAM block size\n")
		fmt.Printf("%8s %14s %14s\n", "block", "uncorrected", "corrected")
		for _, block := range []int{32, 64, 128, 256} {
			cfg := accel.DefaultConfig()
			cfg.BlockBytes = block
			m := accel.NewMachine(cfg, arch, bind)
			errU, errC := timingErrors(b, m, arch, block)
			fmt.Printf("%8d %13.1f%% %13.1f%%\n", block, 100*errU, 100*errC)
		}
	}
}

func timingErrors(b *testing.B, m *accel.Machine, arch *models.Arch, block int) (uncorrected, corrected float64) {
	rng := rand.New(rand.NewSource(13))
	img := tensor.New(arch.InC, arch.InH, arch.InW)
	img.Uniform(rng, 0.05, 0.95)
	tr, err := m.Run(img)
	if err != nil {
		b.Fatal(err)
	}
	segs, err := traceAnalyze(tr)
	if err != nil {
		b.Fatal(err)
	}
	trueRatio := map[int]float64{1: 1, 2: 2, 3: 2}
	// Pre-pool psum spatial sizes: c1 32², c2 32² (pool follows), c3 8²
	// (16×16 input, stride 2).
	truePsum := map[int]int{1: 32 * 32, 2: 32 * 32, 3: 8 * 8}
	measure := func(correct bool) float64 {
		perK := map[int]float64{}
		for node := 1; node <= 3; node++ {
			dt := segs[node].EncodingTime()
			if correct && segs[node].OutputBytes > block {
				dt = dt * float64(segs[node].OutputBytes) / float64(segs[node].OutputBytes-block)
			}
			perK[node] = dt / float64(truePsum[node])
		}
		worst := 0.0
		for node, want := range trueRatio {
			got := perK[node] / perK[1]
			if e := abs(got-want) / want; e > worst {
				worst = e
			}
		}
		return worst
	}
	return measure(false), measure(true)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// traceAnalyze is a tiny alias keeping call sites readable.
func traceAnalyze(tr *huffduff.Trace) ([]trace.SegmentObs, error) { return trace.Analyze(tr) }

// numericPattern is the random-evaluation surrogate of the symbolic engine:
// it instantiates the same probe structure with random values and random
// weights and classifies probes by the exact multiset of output values.
func numericPattern(rng *rand.Rand, pat probe.Pattern, layers [][3]int) []int {
	vals := probe.RandomValues(rng, pat)
	var nets []nn.Layer
	for _, l := range layers {
		var inC int = 1
		conv := nn.NewConv2D(rng, inC, 1, l[0], l[1], nn.SamePad(l[0]), 1, true)
		conv.Bias.W.Uniform(rng, -0.2, 0.2)
		nets = append(nets, conv)
		if l[2] > 1 {
			nets = append(nets, nn.NewMaxPool2D(l[2]))
		}
	}
	keys := make([]string, pat.Q)
	for q := 0; q < pat.Q; q++ {
		x := probe.Image(pat, vals, q, 1, 32, 32).Reshape(1, 1, 32, 32)
		for _, l := range nets {
			x = l.Forward(x, false)
		}
		sorted := append([]float64(nil), x.Data...)
		sort.Float64s(sorted)
		keys[q] = fmt.Sprintf("%v", sorted)
	}
	return symconv.ClassPattern(keys)
}
