package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/tensor"
)

// naiveConv2D is a direct-summation reference implementation used to check
// the im2col/GEMM path.
func naiveConv2D(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	nB, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	p, q := c.OutSize(h, w)
	out := tensor.New(nB, c.OutC, p, q)
	cg := c.InC / c.Groups
	outCg := c.OutC / c.Groups
	for n := 0; n < nB; n++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / outCg
			for oy := 0; oy < p; oy++ {
				for ox := 0; ox < q; ox++ {
					s := 0.0
					for cc := 0; cc < cg; cc++ {
						for ky := 0; ky < c.Kernel; ky++ {
							for kx := 0; kx < c.Kernel; kx++ {
								iy := oy*c.Stride + ky - c.Pad
								ix := ox*c.Stride + kx - c.Pad
								if iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								s += c.Weight.W.At(oc, cc, ky, kx) * x.At4(n, g*cg+cc, iy, ix)
							}
						}
					}
					if c.Bias != nil {
						s += c.Bias.W.Data[oc]
					}
					out.Set4(s, n, oc, oy, ox)
				}
			}
		}
	}
	return out
}

func TestConv2DForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D(rng, 1, 1, 3, 1, 0, 1, false)
	// Identity-ish kernel: only center weight = 2.
	c.Weight.W.Zero()
	c.Weight.W.Set(2, 0, 0, 1, 1)
	x := tensor.New(1, 1, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i + 1)
	}
	out := c.Forward(x, false)
	if out.Dim(2) != 1 || out.Dim(3) != 1 {
		t.Fatalf("out shape %v", out.Shape())
	}
	if out.Data[0] != 10 { // center of 3x3 is 5, times 2
		t.Fatalf("out = %g, want 10", out.Data[0])
	}
}

func TestConv2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		inC, outC, k, stride, pad, groups int
		bias                              bool
	}{
		{3, 8, 3, 1, 1, 1, true},
		{3, 8, 3, 2, 1, 1, false},
		{4, 6, 5, 1, 2, 1, true},
		{4, 4, 3, 1, 1, 4, false}, // depthwise
		{6, 9, 3, 2, 1, 3, true},  // grouped
		{3, 5, 1, 1, 0, 1, true},  // pointwise
		{2, 3, 7, 1, 3, 1, false},
	}
	for _, tc := range cases {
		c := NewConv2D(rng, tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.groups, tc.bias)
		if tc.bias {
			c.Bias.W.Uniform(rng, -1, 1)
		}
		x := tensor.New(2, tc.inC, 9, 9)
		x.Randn(rng, 1)
		got := c.Forward(x, false)
		want := naiveConv2D(c, x)
		if !tensor.ApproxEqual(got, want, 1e-9) {
			t.Fatalf("conv mismatch for %+v", tc)
		}
	}
}

func TestConv2DBadGroupsPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv2D(rng, 3, 8, 3, 1, 1, 2, false)
}

// gradCheckLayer checks Backward against a central-difference approximation
// on both the input and every parameter.
func gradCheckLayer(t *testing.T, mk func() Layer, inShape []int, train bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	l := mk()
	x := tensor.New(inShape...)
	x.Randn(rng, 1)
	out := l.Forward(x, train)
	r := tensor.New(out.Shape()...)
	r.Randn(rng, 1)
	loss := func() float64 {
		o := l.Forward(x, train)
		s := 0.0
		for i := range o.Data {
			s += o.Data[i] * r.Data[i]
		}
		return s
	}
	_ = out
	ZeroGrads(l.Params())
	l.Forward(x, train)
	gradX := l.Backward(r.Clone())

	const eps = 1e-5
	checkSlice := func(name string, vals, grads []float64, limit int) {
		step := len(vals)/limit + 1
		for i := 0; i < len(vals); i += step {
			orig := vals[i]
			vals[i] = orig + eps
			up := loss()
			vals[i] = orig - eps
			down := loss()
			vals[i] = orig
			num := (up - down) / (2 * eps)
			if diff := math.Abs(num - grads[i]); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grads[i], num)
			}
		}
	}
	checkSlice("input", x.Data, gradX.Data, 30)
	for _, p := range l.Params() {
		checkSlice(p.Name, p.W.Data, p.Grad.Data, 30)
	}
}

func TestConv2DGradCheck(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewConv2D(rand.New(rand.NewSource(7)), 2, 3, 3, 1, 1, 1, true)
	}, []int{2, 2, 5, 5}, false)
}

func TestConv2DStridedGradCheck(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewConv2D(rand.New(rand.NewSource(8)), 2, 4, 3, 2, 1, 2, false)
	}, []int{1, 2, 6, 6}, false)
}

func TestLinearGradCheck(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		return NewLinear(rand.New(rand.NewSource(9)), 7, 4)
	}, []int{3, 7}, false)
}

func TestBatchNormGradCheck(t *testing.T) {
	gradCheckLayer(t, func() Layer {
		bn := NewBatchNorm2D(3)
		bn.Momentum = 0 // keep running stats fixed so loss() re-evaluation is stable
		return bn
	}, []int{2, 3, 4, 4}, true)
}

func TestAvgPoolGradCheck(t *testing.T) {
	gradCheckLayer(t, func() Layer { return NewAvgPool2D(2) }, []int{2, 2, 4, 4}, false)
}

func TestBatchNormTrainNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2D(4)
	x := tensor.New(8, 4, 6, 6)
	x.Randn(rng, 3)
	x.Apply(func(v float64) float64 { return v + 10 })
	out := bn.Forward(x, true)
	// Per-channel mean ~0, var ~1.
	for c := 0; c < 4; c++ {
		var sum, sq float64
		cnt := 0
		for n := 0; n < 8; n++ {
			for i := 0; i < 36; i++ {
				v := out.Data[(n*4+c)*36+i]
				sum += v
				sq += v * v
				cnt++
			}
		}
		mean := sum / float64(cnt)
		variance := sq/float64(cnt) - mean*mean
		if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %g var %g", c, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2D(2)
	bn.Momentum = 1 // running stats = last batch stats
	x := tensor.New(4, 2, 3, 3)
	x.Randn(rng, 2)
	bn.Forward(x, true)
	evalOut := bn.Forward(x, false)
	trainOut := bn.Forward(x, true)
	if !tensor.ApproxEqual(evalOut, trainOut, 1e-6) {
		t.Fatal("eval with momentum=1 running stats should match train output on same batch")
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	out := r.Forward(x, true)
	want := []float64{0, 0, 2, 0}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("ReLU forward = %v", out.Data)
		}
	}
	g := r.Backward(tensor.FromSlice([]float64{5, 5, 5, 5}, 1, 4))
	wantG := []float64{0, 0, 5, 0}
	for i, v := range wantG {
		if g.Data[i] != v {
			t.Fatalf("ReLU backward = %v", g.Data)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	m := NewMaxPool2D(2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		0, 0, 1, 1,
		0, 9, 1, 1,
	}, 1, 1, 4, 4)
	out := m.Forward(x, false)
	want := []float64{4, 8, 9, 1}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("maxpool forward = %v, want %v", out.Data, want)
		}
	}
	g := m.Backward(tensor.FromSlice([]float64{10, 20, 30, 40}, 1, 1, 2, 2))
	if g.At4(0, 0, 1, 1) != 10 || g.At4(0, 0, 1, 3) != 20 || g.At4(0, 0, 3, 1) != 30 {
		t.Fatalf("maxpool backward routing wrong: %v", g.Data)
	}
	// Ties route to the first (row-major) max position.
	if g.At4(0, 0, 2, 2) != 40 {
		t.Fatalf("tie routing wrong: %v", g.Data)
	}
}

func TestAvgPoolForward(t *testing.T) {
	a := NewAvgPool2D(2)
	x := tensor.FromSlice([]float64{1, 3, 2, 4, 5, 7, 6, 8, 0, 0, 0, 0, 0, 0, 0, 0}, 1, 1, 4, 4)
	out := a.Forward(x, false)
	if out.Data[0] != 4 { // (1+3+5+7)/4
		t.Fatalf("avgpool = %v", out.Data)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 4)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	out := f.Forward(x, false)
	if out.Dim(0) != 2 || out.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", out.Shape())
	}
	back := f.Backward(out)
	if !tensor.ApproxEqual(back, x, 0) {
		t.Fatal("flatten backward should invert shape")
	}
}

func buildTinyResidualNet(rng *rand.Rand) *Network {
	b := NewBuilder()
	in := b.Input()
	c1 := b.Chain(in, NewConv2D(rng, 1, 4, 3, 1, 1, 1, false), NewBatchNorm2D(4), NewReLU())
	c2 := b.Chain(c1, NewConv2D(rng, 4, 4, 3, 1, 1, 1, false), NewBatchNorm2D(4))
	sum := b.Add(c2, c1, true)
	head := b.Chain(sum, NewFlatten(), NewLinear(rng, 4*6*6, 3))
	return b.Build(head)
}

func TestNetworkForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := buildTinyResidualNet(rng)
	x := tensor.New(2, 1, 6, 6)
	x.Randn(rng, 1)
	out := net.Forward(x, true)
	if out.Dim(0) != 2 || out.Dim(1) != 3 {
		t.Fatalf("network out shape %v", out.Shape())
	}
	if got := len(net.Layers()); got != 7 {
		t.Fatalf("Layers() = %d, want 7", got)
	}
}

func TestNetworkResidualGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net := buildTinyResidualNet(rng)
	// Freeze BN statistics for a deterministic loss surface.
	for _, l := range net.Layers() {
		if bn, ok := l.(*BatchNorm2D); ok {
			bn.Momentum = 0
		}
	}
	x := tensor.New(1, 1, 6, 6)
	x.Randn(rng, 1)
	out := net.Forward(x, true)
	r := tensor.New(out.Shape()...)
	r.Randn(rng, 1)
	loss := func() float64 {
		o := net.Forward(x, true)
		s := 0.0
		for i := range o.Data {
			s += o.Data[i] * r.Data[i]
		}
		return s
	}
	net.ZeroGrads()
	net.Forward(x, true)
	gradX := net.Backward(r.Clone())

	const eps = 1e-5
	check := func(name string, vals, grads []float64) {
		step := len(vals)/20 + 1
		for i := 0; i < len(vals); i += step {
			orig := vals[i]
			vals[i] = orig + eps
			up := loss()
			vals[i] = orig - eps
			down := loss()
			vals[i] = orig
			num := (up - down) / (2 * eps)
			if diff := math.Abs(num - grads[i]); diff > 2e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: analytic %g vs numeric %g", name, i, grads[i], num)
			}
		}
	}
	check("input", x.Data, gradX.Data)
	for _, p := range net.Params() {
		check(p.Name, p.W.Data, p.Grad.Data)
	}
}

func TestNetworkParamCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	net := buildTinyResidualNet(rng)
	// conv1 4*1*9=36, bn 8, conv2 4*4*9=144, bn 8, fc 144*3+3 = 435
	want := 36 + 8 + 144 + 8 + 435
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestMaskedParamStaysZero(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := NewConv2D(rng, 1, 2, 3, 1, 1, 1, false)
	mask := tensor.New(c.Weight.W.Shape()...)
	mask.Fill(1)
	mask.Data[0] = 0
	mask.Data[5] = 0
	c.Weight.Mask = mask
	x := tensor.New(1, 1, 4, 4)
	x.Randn(rng, 1)
	c.Forward(x, true)
	if c.Weight.W.Data[0] != 0 || c.Weight.W.Data[5] != 0 {
		t.Fatal("masked weights not zeroed on forward")
	}
	g := tensor.New(1, 2, 4, 4)
	g.Fill(1)
	c.Backward(g)
	if c.Weight.Grad.Data[0] != 0 || c.Weight.Grad.Data[5] != 0 {
		t.Fatal("masked weights received gradient")
	}
}

func TestSamePad(t *testing.T) {
	for k, want := range map[int]int{1: 0, 3: 1, 5: 2, 7: 3} {
		if got := SamePad(k); got != want {
			t.Fatalf("SamePad(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	layers := []Layer{
		NewReLU(),
		NewMaxPool2D(2),
		NewAvgPool2D(2),
		NewFlatten(),
		NewConv2D(rand.New(rand.NewSource(1)), 1, 1, 3, 1, 1, 1, false),
		NewLinear(rand.New(rand.NewSource(1)), 2, 2),
		NewBatchNorm2D(1),
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on Backward before Forward", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1))
		}()
	}
}

// Eval-mode BatchNorm is a constant affine map; its input gradient must be
// the plain chain rule (this matters for adversarial-example generation,
// which backpropagates through eval-mode forwards).
func TestBatchNormEvalGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bn := NewBatchNorm2D(3)
	bn.RunningMean.Randn(rng, 1)
	bn.RunningVar.Uniform(rng, 0.5, 2)
	bn.Gamma.W.Uniform(rng, 0.5, 1.5)
	bn.Beta.W.Randn(rng, 1)
	x := tensor.New(1, 3, 4, 4)
	x.Randn(rng, 1)
	out := bn.Forward(x, false)
	r := tensor.New(out.Shape()...)
	r.Randn(rng, 1)
	ZeroGrads(bn.Params())
	bn.Forward(x, false)
	gradX := bn.Backward(r.Clone())
	const eps = 1e-6
	for i := 0; i < x.Size(); i += 3 {
		orig := x.Data[i]
		loss := func() float64 {
			o := bn.Forward(x, false)
			s := 0.0
			for j := range o.Data {
				s += o.Data[j] * r.Data[j]
			}
			return s
		}
		x.Data[i] = orig + eps
		up := loss()
		x.Data[i] = orig - eps
		down := loss()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-gradX.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("eval grad[%d]: analytic %g vs numeric %g", i, gradX.Data[i], num)
		}
	}
}
