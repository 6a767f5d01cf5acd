package prune

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/huffduff/huffduff/internal/dataset"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/tensor"
)

func makeParam(name string, vals []float64, decay bool) *nn.Param {
	return &nn.Param{
		Name:  name,
		W:     tensor.FromSlice(append([]float64(nil), vals...), len(vals)),
		Grad:  tensor.New(len(vals)),
		Decay: decay,
	}
}

func TestGlobalMagnitudeKeepsLargest(t *testing.T) {
	p1 := makeParam("a", []float64{0.1, -5, 0.2, 4}, true)
	p2 := makeParam("b", []float64{3, -0.05, 0.3, -2}, true)
	GlobalMagnitude([]*nn.Param{p1, p2}, 0.5)
	// 8 weights, keep 4: the largest magnitudes are 5, 4, 3, 2.
	wantAlive := map[string][]float64{
		"a": {0, -5, 0, 4},
		"b": {3, 0, 0, -2},
	}
	for _, p := range []*nn.Param{p1, p2} {
		for i, v := range p.W.Data {
			if v != wantAlive[p.Name][i] {
				t.Fatalf("%s after prune = %v", p.Name, p.W.Data)
			}
		}
	}
}

func TestGlobalMagnitudeSkipsNonDecayParams(t *testing.T) {
	w := makeParam("w", []float64{0.001, 0.002}, true)
	bn := makeParam("bn", []float64{0.0001, 0.0001}, false)
	GlobalMagnitude([]*nn.Param{w, bn}, 0.5)
	if bn.Mask != nil {
		t.Fatal("non-decay param was masked")
	}
	if bn.W.Data[0] == 0 {
		t.Fatal("non-decay param was pruned")
	}
}

func TestGlobalMagnitudeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := makeParam("w", make([]float64, 1000), true)
	p.W.Randn(rng, 1)
	GlobalMagnitude([]*nn.Param{p}, 0.5)
	s1 := OverallSparsity([]*nn.Param{p})
	// Pruning again to a smaller keep must only remove more.
	GlobalMagnitude([]*nn.Param{p}, 0.25)
	s2 := OverallSparsity([]*nn.Param{p})
	if s2 <= s1 {
		t.Fatalf("sparsity did not increase: %g -> %g", s1, s2)
	}
	if math.Abs(s2-0.75) > 0.01 {
		t.Fatalf("sparsity = %g, want ~0.75", s2)
	}
}

// globalMagnitudeReference is GlobalMagnitude's plain form, 24-byte entries
// appended from nil: the reference its compact entries must match.
func globalMagnitudeReference(params []*nn.Param, keep float64) {
	ps := prunable(params)
	type entry struct {
		p   *nn.Param
		idx int
		mag float64
	}
	var alive []entry
	total := 0
	for _, p := range ps {
		total += p.W.Size()
		for i, v := range p.W.Data {
			if p.Mask != nil && p.Mask.Data[i] == 0 {
				continue
			}
			alive = append(alive, entry{p, i, math.Abs(v)})
		}
	}
	target := int(float64(total) * keep)
	if target >= len(alive) {
		ensureMasks(ps)
		return
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].mag < alive[j].mag })
	ensureMasks(ps)
	for _, e := range alive[:len(alive)-target] {
		e.p.Mask.Data[e.idx] = 0
	}
	for _, p := range ps {
		p.ApplyMask()
	}
}

// TestGlobalMagnitudeMatchesReference compares GlobalMagnitude's masks and
// weights with the reference's on zoo networks whose weights are quantized
// so that magnitudes tie, over two rounds, the second over the first's
// masks.
func TestGlobalMagnitudeMatchesReference(t *testing.T) {
	archs := []*models.Arch{models.SmallCNN(), models.ResNet18(16), models.VGGS(8), models.MobileNetV2(8)}
	build := func(arch *models.Arch) []*nn.Param {
		bind, err := arch.Build(rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		ps := bind.Net.Params()
		for _, p := range ps {
			for i, v := range p.W.Data {
				p.W.Data[i] = math.Round(v*32) / 32
			}
		}
		return ps
	}
	for _, arch := range archs {
		for _, keep := range []float64{0.1, 0.5, 0.6} {
			got, want := build(arch), build(arch)
			for round, k := range []float64{keep, keep / 2} {
				GlobalMagnitude(got, k)
				globalMagnitudeReference(want, k)
				for i, p := range got {
					q := want[i]
					if (p.Mask == nil) != (q.Mask == nil) {
						t.Fatalf("%s keep %g round %d: %s mask presence differs", arch.Name, keep, round, p.Name)
					}
					if p.Mask != nil && !slices.Equal(p.Mask.Data, q.Mask.Data) {
						t.Fatalf("%s keep %g round %d: %s masks differ", arch.Name, keep, round, p.Name)
					}
					if !slices.Equal(p.W.Data, q.W.Data) {
						t.Fatalf("%s keep %g round %d: %s weights differ", arch.Name, keep, round, p.Name)
					}
				}
			}
		}
	}
}

func TestGlobalMagnitudeBadKeepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GlobalMagnitude(nil, 0)
}

func TestLayerwiseMagnitude(t *testing.T) {
	p1 := makeParam("a", []float64{1, 2, 3, 4}, true)
	p2 := makeParam("b", []float64{100, 200, 300, 400}, true)
	LayerwiseMagnitude([]*nn.Param{p1, p2}, 0.5)
	// Each layer keeps its own top half, so a keeps 3,4 even though b's
	// values dominate globally.
	if p1.W.Data[2] != 3 || p1.W.Data[3] != 4 || p1.W.Data[0] != 0 {
		t.Fatalf("a = %v", p1.W.Data)
	}
	if p2.W.Data[0] != 0 || p2.W.Data[3] != 400 {
		t.Fatalf("b = %v", p2.W.Data)
	}
}

func TestReportAndOverallSparsity(t *testing.T) {
	p := makeParam("w", []float64{1, 0, 2, 0}, true)
	stats := Report([]*nn.Param{p})
	if len(stats) != 1 || stats[0].Alive != 2 || stats[0].Total != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if got := OverallSparsity([]*nn.Param{p}); got != 0.5 {
		t.Fatalf("overall = %g", got)
	}
	if OverallSparsity(nil) != 0 {
		t.Fatal("empty params should give 0")
	}
}

func TestSnapshotRewindRespectsMask(t *testing.T) {
	p := makeParam("w", []float64{1, 2, 3, 4}, true)
	snap := Capture([]*nn.Param{p})
	p.W.Data[0] = 99
	GlobalMagnitude([]*nn.Param{p}, 0.5) // prunes 2 smallest of current values
	snap.Rewind([]*nn.Param{p})
	// Rewound to initial values but with mask applied.
	alive := p.W.NNZ(0)
	if alive != 2 {
		t.Fatalf("alive after rewind = %d", alive)
	}
	for i, v := range p.W.Data {
		if v != 0 && v != []float64{1, 2, 3, 4}[i] {
			t.Fatalf("rewind gave %v", p.W.Data)
		}
	}
}

func TestRewindUnknownParamPanics(t *testing.T) {
	p := makeParam("w", []float64{1}, true)
	snap := Capture([]*nn.Param{p})
	other := makeParam("x", []float64{1}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	snap.Rewind([]*nn.Param{other})
}

func TestLotteryTicketReachesTargetSparsity(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := rand.New(rand.NewSource(5))
	bind, err := models.SmallCNN().Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := dataset.Synthetic(7, 60, 10, 0.05)
	steps := 0
	trainFn := func(net *nn.Network, ds *dataset.Dataset) {
		steps++
		// Cheap surrogate training: a couple of tiny gradient steps is
		// enough to give magnitudes structure for this test.
		x, y := ds.Batch(0, 20)
		net.ZeroGrads()
		logits := net.Forward(x, true)
		_, grad := gradOf(logits, y)
		net.Backward(grad)
		for _, p := range net.Params() {
			p.W.AxpyInPlace(-0.01, p.Grad)
			p.ApplyMask()
		}
	}
	sp := LotteryTicket(bind.Net, tr, 3, 0.5, trainFn)
	if steps != 4 {
		t.Fatalf("train called %d times, want 4", steps)
	}
	if math.Abs(sp-0.875) > 0.02 {
		t.Fatalf("final sparsity %g, want ~0.875 (0.5^3 kept)", sp)
	}
}

// gradOf is a minimal cross-entropy gradient to avoid importing train
// (which would create an import cycle in tests).
func gradOf(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	grad := tensor.New(n, k)
	loss := 0.0
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		exps := make([]float64, k)
		for j, v := range row {
			exps[j] = math.Exp(v - max)
			sum += exps[j]
		}
		for j := 0; j < k; j++ {
			p := exps[j] / sum
			g := p
			if j == labels[i] {
				g -= 1
				loss -= math.Log(math.Max(p, 1e-12))
			}
			grad.Data[i*k+j] = g / float64(n)
		}
	}
	return loss / float64(n), grad
}

func TestChannelMagnitude(t *testing.T) {
	p := &nn.Param{
		Name:  "conv.weight",
		W:     tensor.FromSlice([]float64{0.1, 0.1, 5, 5, 0.2, 0.2, 3, 3}, 4, 2),
		Grad:  tensor.New(8),
		Decay: true,
	}
	p.Grad = tensor.New(4, 2)
	ChannelMagnitude([]*nn.Param{p}, 0.5)
	// Channels 1 (norm 50) and 3 (norm 18) survive; 0 and 2 are zeroed.
	want := []float64{0, 0, 5, 5, 0, 0, 3, 3}
	for i, v := range want {
		if p.W.Data[i] != v {
			t.Fatalf("after channel prune: %v", p.W.Data)
		}
	}
	if got := AliveChannels(p); got != 2 {
		t.Fatalf("AliveChannels = %d", got)
	}
}

func TestChannelMagnitudeKeepsAtLeastOne(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.FromSlice([]float64{1, 2, 3, 4}, 4, 1), Grad: tensor.New(4, 1), Decay: true}
	ChannelMagnitude([]*nn.Param{p}, 0.01)
	if AliveChannels(p) != 1 {
		t.Fatalf("alive = %d, want 1", AliveChannels(p))
	}
}

func TestChannelMagnitudeBadKeepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ChannelMagnitude(nil, 2)
}
