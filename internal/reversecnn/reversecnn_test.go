package reversecnn

import (
	"math/big"
	"testing"

	"github.com/huffduff/huffduff/internal/models"
)

// chainObsFor computes exact dense observations for a simple conv chain.
func chainObsFor(x0, c0 int, geoms []Geom) []LayerObs {
	var obs []LayerObs
	x, c := x0, c0
	for _, g := range geoms {
		p := outSpatial(x, g.R, g.Stride)
		po := p / g.Pool
		obs = append(obs, LayerObs{
			I: x * x * c,
			O: po * po * g.K,
			W: g.R * g.R * c * g.K,
		})
		x, c = po, g.K
	}
	return obs
}

func TestSolveDenseRecoversTruth(t *testing.T) {
	truth := []Geom{
		{R: 5, Stride: 1, Pool: 1, K: 8},
		{R: 3, Stride: 1, Pool: 2, K: 16},
		{R: 3, Stride: 2, Pool: 1, K: 16},
	}
	obs := chainObsFor(32, 3, truth)
	sols, err := SolveDense(obs, 32, 3, DefaultSpace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) == 0 {
		t.Fatal("no solutions")
	}
	found := false
	for _, s := range sols {
		match := true
		for i := range truth {
			if s[i] != truth[i] {
				match = false
				break
			}
		}
		if match {
			found = true
		}
	}
	if !found {
		t.Fatalf("truth not among %d solutions", len(sols))
	}
	// Dense solving must stay tractable (Table 1: 8 solutions for a whole
	// ResNet-18).
	if len(sols) > 64 {
		t.Fatalf("dense solution count %d unreasonably large", len(sols))
	}
}

func TestSolveDenseLimit(t *testing.T) {
	truth := []Geom{{R: 3, Stride: 2, Pool: 1, K: 4}}
	obs := chainObsFor(16, 3, truth)
	sols, err := SolveDense(obs, 16, 3, DefaultSpace(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 1 {
		t.Fatalf("limit ignored: %d solutions", len(sols))
	}
}

func TestSolveDenseInvalidInput(t *testing.T) {
	if _, err := SolveDense(nil, 0, 3, DefaultSpace(), 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestSolveDenseInconsistentObsGivesNoSolutions(t *testing.T) {
	obs := []LayerObs{{I: 999, O: 10, W: 27}}
	sols, err := SolveDense(obs, 32, 3, DefaultSpace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) != 0 {
		t.Fatal("expected zero solutions for inconsistent footprints")
	}
}

func TestStrideVsPoolAmbiguityIsCounted(t *testing.T) {
	// A stride-2 conv and a stride-1 conv followed by 2×2 pooling produce
	// identical dense footprints — a genuine ambiguity ReverseCNN reports
	// as multiple solutions.
	truth := []Geom{{R: 3, Stride: 2, Pool: 1, K: 4}}
	obs := chainObsFor(32, 3, truth)
	sols, err := SolveDense(obs, 32, 3, DefaultSpace(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) < 2 {
		t.Fatalf("expected stride/pool ambiguity, got %d solutions", len(sols))
	}
}

func TestSparseCountExplodes(t *testing.T) {
	truth := []Geom{
		{R: 3, Stride: 1, Pool: 1, K: 64},
		{R: 3, Stride: 1, Pool: 1, K: 64},
	}
	dense := chainObsFor(32, 3, truth)
	// Prune weights 10×, halve activations: observations shrink.
	sparseObs := make([]LayerObs, len(dense))
	for i, o := range dense {
		sparseObs[i] = LayerObs{I: o.I / 2, O: o.O / 2, W: o.W / 10}
	}
	xs := []int{32, 32}
	cs := []int{3, 64}
	count, err := SparseCount(sparseObs, xs, cs, 0.999, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	// Per layer the k-range alone spans hundreds of candidates.
	if count.Cmp(big.NewInt(10000)) < 0 {
		t.Fatalf("sparse count %s suspiciously small", count.String())
	}
}

func TestSparseCountMonotoneInAlpha(t *testing.T) {
	truth := []Geom{{R: 3, Stride: 1, Pool: 1, K: 32}}
	obs := chainObsFor(32, 3, truth)
	obs[0].W /= 5
	xs, cs := []int{32}, []int{3}
	loose, err := SparseCount(obs, xs, cs, 0.99, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	looser, err := SparseCount(obs, xs, cs, 0.999, DefaultSpace())
	if err != nil {
		t.Fatal(err)
	}
	if looser.Cmp(loose) <= 0 {
		t.Fatalf("count not monotone in alpha: %s vs %s", loose, looser)
	}
}

func TestSparseCountErrors(t *testing.T) {
	if _, err := SparseCount([]LayerObs{{}}, []int{1}, []int{1, 2}, 0.9, DefaultSpace()); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := SparseCount(nil, nil, nil, 1.5, DefaultSpace()); err == nil {
		t.Fatal("expected alpha error")
	}
}

func TestOrdersOfMagnitude(t *testing.T) {
	if OrdersOfMagnitude(big.NewInt(1)) != 0 {
		t.Fatal("1 -> 0")
	}
	if OrdersOfMagnitude(big.NewInt(999)) != 2 {
		t.Fatal("999 -> 2")
	}
	n := new(big.Int).Exp(big.NewInt(10), big.NewInt(96), nil)
	if OrdersOfMagnitude(n) != 96 {
		t.Fatal("10^96 -> 96")
	}
}

func TestFromArchChains(t *testing.T) {
	vgg := models.VGGS(1)
	ao, err := FromArch(vgg, DenseProfile, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ao.Obs) != 13 {
		t.Fatalf("VGG-S conv count %d, want 13", len(ao.Obs))
	}
	if len(ao.MainChain) != 13 {
		t.Fatalf("VGG-S main chain %d, want 13", len(ao.MainChain))
	}
	res := models.ResNet18(1)
	aor, err := FromArch(res, DenseProfile, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(aor.Obs) != 20 {
		t.Fatalf("ResNet-18 conv count %d, want 20 (17 main + 3 shortcut)", len(aor.Obs))
	}
	if len(aor.MainChain) != 17 {
		t.Fatalf("ResNet-18 main chain %d, want 17", len(aor.MainChain))
	}
	// First layer sees the full dense input image.
	if aor.Obs[0].I != 3*32*32 {
		t.Fatalf("first-layer I = %d", aor.Obs[0].I)
	}
	// Table 1: dense solving leaves exactly 8 ResNet-18 architectures (the
	// paper's count) and 32 VGG-S ones.
	for _, c := range []struct {
		arch *models.Arch
		ao   *ArchObs
		want int
	}{{vgg, ao, 32}, {res, aor, 8}} {
		chain, _, _ := c.ao.ChainObs()
		sols, err := SolveDense(chain, c.arch.InH, c.arch.InC, DefaultSpace(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) != c.want {
			t.Errorf("%s: %d dense solutions, want %d", c.arch.Name, len(sols), c.want)
		}
	}
}

func TestFromArchProfilesShrinkWeights(t *testing.T) {
	res := models.ResNet18(1)
	dense, err := FromArch(res, DenseProfile, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := FromArch(res, LTHProfile, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	totalDense, totalSparse := 0, 0
	for i := range dense.Obs {
		if sparse.Obs[i].W > dense.Obs[i].W {
			t.Fatalf("layer %d: sparse W %d > dense %d", i, sparse.Obs[i].W, dense.Obs[i].W)
		}
		totalDense += dense.Obs[i].W
		totalSparse += sparse.Obs[i].W
	}
	ratio := float64(totalDense) / float64(totalSparse)
	if ratio < 5 || ratio > 40 {
		t.Fatalf("LTH profile compression ratio %.1f not in the ~10x regime", ratio)
	}
}

func TestFromArchBadActDensity(t *testing.T) {
	if _, err := FromArch(models.SmallCNN(), DenseProfile, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestLTHProfileShape(t *testing.T) {
	n := 17
	if LTHProfile(0, n) < LTHProfile(n-1, n) {
		t.Fatal("first layer should be densest")
	}
	if LTHProfile(0, n) > 0.5 || LTHProfile(n-1, n) < 0.003 {
		t.Fatalf("profile out of regime: %g .. %g", LTHProfile(0, n), LTHProfile(n-1, n))
	}
	if LTHProfile(0, 1) != 0.45 {
		t.Fatal("single-layer profile")
	}
}
