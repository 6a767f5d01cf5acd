package symconv

import (
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/tensor"
)

// predict runs the engine over a chain of (kernel, stride, pool) layers and
// returns the predicted class pattern across probes.
func predict(t *testing.T, pat probe.Pattern, h, w int, layers [][3]int) []int {
	t.Helper()
	var e Engine
	s := e.Probes([]probe.Pattern{pat}, h, w)
	for li, l := range layers {
		s = e.MaxPool(e.Conv(s, tag(li), l[0], l[1]), l[2])
	}
	return s.Pattern()
}

func tag(i int) string { return string(rune('L')) + string(rune('0'+i)) }

// The paper's running example: a 3-wide filter with bias on a 1-d input
// gives the nnz pattern ABCC (§5.4).
func TestKernel3PatternABCC(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 4, FeatRow: 0}
	got := predict(t, pat, 1, 12, [][3]int{{3, 1, 1}})
	want := []int{0, 1, 2, 2}
	if !SamePartition(got, want) {
		t.Fatalf("pattern = %s, want ABCC", PatternString(got))
	}
}

// A pointwise 1×1 layer is shift-equivariant everywhere: AAAA (§6.2).
func TestKernel1PatternAAAA(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 4, FeatRow: 0}
	got := predict(t, pat, 1, 12, [][3]int{{1, 1, 1}})
	if NumClasses(got) != 1 {
		t.Fatalf("pattern = %s, want AAAA", PatternString(got))
	}
}

// A 5-wide same-padded filter has a two-cell boundary zone whose influence
// extends four probe positions before the pattern converges: ABCDEE.
func TestKernel5PatternABCDEE(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 6, FeatRow: 0}
	got := predict(t, pat, 1, 16, [][3]int{{5, 1, 1}})
	want := []int{0, 1, 2, 3, 4, 4}
	if !SamePartition(got, want) {
		t.Fatalf("pattern = %s, want ABCDEE", PatternString(got))
	}
}

// 3-wide conv followed by 2-wide max pooling alternates with period 2:
// the paper's §6.2 example expects ABCDCD….
func TestKernel3Pool2PatternPeriodTwo(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 8, FeatRow: 6}
	got := predict(t, pat, 16, 20, [][3]int{{3, 1, 2}})
	// After convergence classes must alternate with period 2 and adjacent
	// probes must differ (the pooling phase).
	for i := 6; i < 8; i++ {
		if got[i] != got[i-2] {
			t.Fatalf("pattern %s: no period-2 convergence", PatternString(got))
		}
	}
	if got[6] == got[7] {
		t.Fatalf("pattern %s: pooling phases collapsed", PatternString(got))
	}
	if SamePartition(got, predict(t, pat, 16, 20, [][3]int{{3, 1, 1}})) {
		t.Fatal("pool=2 and pool=1 predictions identical")
	}
}

// Stride-2 convolutions alias adjacent probes into the same output phase.
func TestStride2PatternDiffersFromStride1(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 8, FeatRow: 0}
	s1 := predict(t, pat, 1, 20, [][3]int{{3, 1, 1}})
	s2 := predict(t, pat, 1, 20, [][3]int{{3, 2, 1}})
	if SamePartition(s1, s2) {
		t.Fatal("stride 1 and 2 predictions identical")
	}
}

// Hypotheses must be pairwise distinguishable for the 2-d probe geometry the
// attack actually uses; otherwise the prober cannot converge.
func TestHypothesesDistinguishable2D(t *testing.T) {
	// A single-impulse family alone cannot separate conv3+pool2 from
	// conv5+stride2 (both are ABCDEDED…); combining two feature widths —
	// "multiple carefully constructed images collectively" (§1) — breaks
	// the aliasing.
	fams := []probe.Pattern{
		{M: 0, N: 1, Q: 10, FeatRow: 16},
		{M: 0, N: 2, Q: 10, FeatRow: 16},
	}
	combined := func(layers [][3]int) []int {
		var joint []string
		for fi, pat := range fams {
			p := predict(t, pat, 32, 32, layers)
			for i, c := range p {
				for len(joint) <= i {
					joint = append(joint, "")
				}
				joint[i] += string(rune('a'+fi)) + PatternString([]int{c})
			}
		}
		return ClassPattern(joint)
	}
	type hyp struct{ k, s, p int }
	var hyps []hyp
	var pats [][]int
	for _, k := range []int{1, 3, 5, 7} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{1, 2} {
				if k == 1 && p > 1 {
					// Pooling after a pointwise conv produces no boundary
					// effect and is excluded from the hypothesis space by
					// prior (pooling follows spatial convolutions in the
					// paper's workloads).
					continue
				}
				hyps = append(hyps, hyp{k, s, p})
				pats = append(pats, combined([][3]int{{k, s, p}}))
			}
		}
	}
	for i := range hyps {
		for j := i + 1; j < len(hyps); j++ {
			if SamePartition(pats[i], pats[j]) {
				// The single known alias under "same" padding: conv3+pool2
				// and conv5+stride2 share shift group and boundary span.
				// The attack carries both candidates and breaks the tie
				// with a smaller-kernel prior (see huffduff).
				if hyps[i] == (hyp{3, 1, 2}) && hyps[j] == (hyp{5, 2, 1}) {
					continue
				}
				t.Fatalf("hypotheses %+v and %+v indistinguishable (pattern %s)",
					hyps[i], hyps[j], PatternString(pats[i]))
			}
		}
	}
}

// Second-layer geometry must be distinguishable after a known first layer
// (the downstream-probing claim of §5.3).
func TestDownstreamLayerDistinguishable(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 12, FeatRow: 16}
	first := [3]int{3, 1, 1}
	a := predict(t, pat, 32, 32, [][3]int{first, {3, 1, 1}})
	b := predict(t, pat, 32, 32, [][3]int{first, {1, 1, 1}})
	c := predict(t, pat, 32, 32, [][3]int{first, {5, 1, 1}})
	d := predict(t, pat, 32, 32, [][3]int{first, {3, 2, 1}})
	pats := [][]int{a, b, c, d}
	for i := range pats {
		for j := i + 1; j < len(pats); j++ {
			if SamePartition(pats[i], pats[j]) {
				t.Fatalf("downstream hypotheses %d and %d indistinguishable", i, j)
			}
		}
	}
}

// The symbolic prediction must refine the numerically observed partition on
// a real (random-weight) network — the engine's soundness property: rows
// predicted equal are always observed equal.
func TestPredictionRefinesNumericObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pat := probe.Pattern{M: 0, N: 1, Q: 8, FeatRow: 16}
	h, w := 32, 32

	for trial := 0; trial < 5; trial++ {
		kernel := []int{1, 3, 5}[trial%3]
		// Numeric single-channel conv + bias + ReLU.
		conv := nn.NewConv2D(rng, 1, 4, kernel, 1, nn.SamePad(kernel), 1, true)
		conv.Bias.W.Uniform(rng, -0.1, 0.1)
		relu := nn.NewReLU()

		vals := probe.RandomValues(rng, pat)
		var nnzs []int
		for i := 0; i < pat.Q; i++ {
			img := probe.Image(pat, vals, i, 1, h, w)
			out := relu.Forward(conv.Forward(img.Reshape(1, 1, h, w), false), false)
			nnzs = append(nnzs, out.NNZ(0))
		}
		observed := ClassPattern(nnzs)
		predicted := predict(t, pat, h, w, [][3]int{{kernel, 1, 1}})
		if !Refines(predicted, observed) {
			t.Fatalf("kernel %d: predicted %s does not refine observed %s",
				kernel, PatternString(predicted), PatternString(observed))
		}
	}
}

func TestAddGrids(t *testing.T) {
	var e Engine
	pat := probe.Pattern{M: 0, N: 1, Q: 2, FeatRow: 0}
	g0, g1 := single(probeImage(pat, 0, 1, 6)), single(probeImage(pat, 1, 1, 6))
	if wholeSignature(e.Add(g0, g0).Backgrounds[0]) == wholeSignature(g0.Backgrounds[0]) {
		t.Fatal("a+a should differ from a")
	}
	if wholeSignature(e.Add(g0, g1).Backgrounds[0]) != wholeSignature(e.Add(g1, g0).Backgrounds[0]) {
		t.Fatal("grid addition not commutative")
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	var e Engine
	pats := []probe.Pattern{{M: 0, N: 1, Q: 1, FeatRow: 0}}
	a := e.Probes(pats, 1, 4)
	b := e.Probes(pats, 1, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Add(a, b)
}

func TestClassPatternAndHelpers(t *testing.T) {
	p := ClassPattern([]int{7, 7, 3, 7, 9})
	want := []int{0, 0, 1, 0, 2}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("ClassPattern = %v", p)
		}
	}
	if NumClasses(p) != 3 {
		t.Fatalf("NumClasses = %d", NumClasses(p))
	}
	if PatternString(p) != "AABAC" {
		t.Fatalf("PatternString = %s", PatternString(p))
	}
}

func TestRefines(t *testing.T) {
	fine := []int{0, 1, 2, 2}
	coarse := []int{0, 0, 1, 1}
	if !Refines(fine, coarse) {
		t.Fatal("ABCC should refine AABB")
	}
	if Refines(coarse, fine) {
		t.Fatal("AABB should not refine ABCC")
	}
	if !SamePartition(fine, []int{5, 9, 1, 1}) {
		t.Fatal("relabelled partitions should match")
	}
	if Refines([]int{0}, []int{0, 1}) {
		t.Fatal("length mismatch should not refine")
	}
}

// sanity: AvgPool collapses like a linear map (period behaviour similar to
// maxpool for class prediction).
func TestAvgPoolChangesPattern(t *testing.T) {
	pat := probe.Pattern{M: 0, N: 1, Q: 8, FeatRow: 0}
	var e Engine
	c := e.Conv(e.Probes([]probe.Pattern{pat}, 1, 20), "l0", 3, 1)
	if SamePartition(c.Pattern(), e.AvgPool(c, 2).Pattern()) {
		t.Fatal("avg pooling did not change the predicted pattern")
	}
}

// tensor import is needed for the numeric cross-check helper types.
var _ = tensor.New
