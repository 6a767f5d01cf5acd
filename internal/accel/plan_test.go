package accel

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/probe"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
)

// deployRandomized builds arch, prunes it to keep and gives every batch norm
// random running statistics and affine terms: BN's defaults (γ=1, β=0,
// mean 0, var 1) hide arithmetic that rounds differently from nn's.
func deployRandomized(t testing.TB, arch *models.Arch, keep float64, seed int64) *Machine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	if keep < 1 {
		prune.GlobalMagnitude(bind.Net.Params(), keep)
	}
	for _, bn := range bind.BN {
		if bn == nil {
			continue
		}
		for c := 0; c < bn.C; c++ {
			bn.RunningMean.Data[c] = 0.5 * rng.NormFloat64()
			bn.RunningVar.Data[c] = 0.1 + 2*rng.Float64()
			bn.Gamma.W.Data[c] = 0.5 + rng.Float64()
			bn.Beta.W.Data[c] = 0.3 * rng.NormFloat64()
		}
	}
	return NewMachine(DefaultConfig(), arch, bind)
}

// runAndCheck runs img on m and compares the run with nn's forward pass:
// every unit's output equal, ±0 counting as equal and nonzero values bit
// for bit, and the run's psum counts, nonzeros and output bytes equal to
// those of nn's tensors.
func runAndCheck(t testing.TB, m *Machine, img *tensor.Tensor, what string) {
	t.Helper()
	if _, err := m.Run(img); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	checkForward(t, m, img, what)
}

func checkForward(t testing.TB, m *Machine, img *tensor.Tensor, what string) {
	t.Helper()
	a := m.Arch
	m.Bind.Net.Forward(img.Reshape(1, a.InC, a.InH, a.InW), false)
	layers := m.LastStats().Layers
	for i, u := range a.Units {
		want := m.Bind.UnitTensor(i)
		got := m.plan.units[i].out.data
		if len(got) != want.Size() {
			t.Fatalf("%s: unit %d (%s) has %d outputs, nn %d", what, i, u.Name, len(got), want.Size())
		}
		for j, v := range want.Data {
			if got[j] != v {
				t.Fatalf("%s: unit %d (%s) output %d = %v, nn %v", what, i, u.Name, j, got[j], v)
			}
		}
		psums := want.Size()
		if ps := m.Bind.PsumOut(i); ps != nil {
			psums = ps.Size()
		}
		l := layers[i]
		if l.Psums != psums || l.OutNNZ != want.NNZ(0) || l.OutBytes != m.Cfg.ActCodec.Size(want.Data) {
			t.Fatalf("%s: unit %d (%s) psums/nnz/bytes %d/%d/%d, nn %d/%d/%d", what, i, u.Name,
				l.Psums, l.OutNNZ, l.OutBytes, psums, want.NNZ(0), m.Cfg.ActCodec.Size(want.Data))
		}
	}
}

// checkRecomputed fails unless the last run recomputed no cell of any
// unit (all) or, with all false, only part of unit 0's output: the cones
// the speed of a probing campaign rests on.
func checkRecomputed(t testing.TB, m *Machine, all bool, what string) {
	t.Helper()
	if !all {
		u := m.plan.units[0].out
		if r := u.dirty; r.Area() >= u.h*u.w {
			t.Fatalf("%s: unit 0 recomputed all of its %dx%d map", what, u.h, u.w)
		}
		return
	}
	for i, u := range m.plan.units {
		if !u.out.dirty.Empty() {
			t.Fatalf("%s: an identical input recomputed cells %+v of unit %d", what, u.out.dirty, i)
		}
	}
}

// editRect overwrites the cells [y0,y1)×[x0,x1) of the channels in mask
// (bit c for channel c) with values from next.
func editRect(img *tensor.Tensor, mask, y0, y1, x0, x1 int, next func() float64) {
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	for ch := 0; ch < c; ch++ {
		if mask&(1<<ch) == 0 {
			continue
		}
		for y := y0; y < min(y1, h); y++ {
			for x := x0; x < min(x1, w); x++ {
				img.Data[(ch*h+y)*w+x] = next()
			}
		}
	}
}

// branchy has what no zoo model has: an add whose second input has the
// wider cone, a conv bias, a ReLU after the classifier, and pools over maps
// of odd size.
func branchy() *models.Arch {
	return &models.Arch{Name: "branchy", InC: 3, InH: 16, InW: 13, NumClasses: 10, Units: []models.Unit{
		{Kind: models.UnitConv, Name: "narrow", In: []int{models.InputID}, OutC: 4, Kernel: 1, Stride: 1, Pool: 1, BN: true, ReLU: true},
		{Kind: models.UnitConv, Name: "wide", In: []int{models.InputID}, OutC: 4, Kernel: 5, Stride: 1, Pool: 1, BN: true},
		{Kind: models.UnitAdd, Name: "add", In: []int{0, 1}, ReLU: true},
		{Kind: models.UnitConv, Name: "down", In: []int{2}, OutC: 6, Kernel: 3, Stride: 2, Pool: 2, ReLU: true, Bias: true},
		{Kind: models.UnitAvgPool, Name: "gap", In: []int{3}, Pool: 2},
		{Kind: models.UnitLinear, Name: "fc", In: []int{4}, OutC: 10, ReLU: true},
	}}
}

func TestInferenceMatchesForward(t *testing.T) {
	archs := []*models.Arch{branchy(), models.SmallCNN(), models.VGGS(8), models.ResNet18(8), models.MobileNetV2(8), models.AlexNet(8)}
	keeps := []float64{1, 0.5, 0.2}
	trials, chain := 2, 12
	if testing.Short() {
		archs, keeps, trials, chain = archs[:4], keeps[1:2], 1, 6
	}
	for ai, arch := range archs {
		for _, keep := range keeps {
			t.Run(fmt.Sprintf("%s/keep%.1f", arch.Name, keep), func(t *testing.T) {
				seed := int64(100*ai) + int64(10*keep)
				m := deployRandomized(t, arch, keep, seed)
				rng := rand.New(rand.NewSource(seed))
				c, h, w := arch.InC, arch.InH, arch.InW
				img := tensor.New(c, h, w)
				for i := 0; i < 2; i++ {
					img.Uniform(rng, 0, 1)
					runAndCheck(t, m, img, fmt.Sprintf("random image %d", i))
				}
				// The prober's four families; odd positions are sent twice,
				// as the robust prober sends each.
				families := []probe.Pattern{
					{N: 1, Q: 6, FeatRow: h / 2},
					{N: 2, Q: 6, FeatRow: h/2 - 1},
					{N: 1, Q: 6, FeatRow: h / 2, FromRight: true},
					{N: 2, Q: 6, FeatRow: h/2 - 1, FromRight: true},
				}
				for tr := 0; tr < trials; tr++ {
					for fi, fam := range families {
						vals := probe.RandomValues(rng, fam)
						for q := 0; q < fam.Q; q++ {
							for r := 0; r < 1+q%2; r++ {
								what := fmt.Sprintf("trial %d family %d position %d", tr, fi, q)
								runAndCheck(t, m, probe.Image(fam, vals, q, c, h, w), what)
								if q > 0 {
									checkRecomputed(t, m, r > 0, what)
								}
							}
						}
					}
				}
				// Rectangular edits of one image in place, with exact
				// repeats mixed in.
				next := func() float64 {
					if rng.Intn(4) == 0 {
						return 0
					}
					return rng.Float64()
				}
				runAndCheck(t, m, img, "the chain's first image")
				for i := 0; i < chain; i++ {
					repeat := rng.Intn(4) == 0
					if !repeat {
						y0, x0 := rng.Intn(h), rng.Intn(w)
						editRect(img, 1+rng.Intn(1<<c-1), y0, y0+1+rng.Intn(4), x0, x0+1+rng.Intn(4), next)
					}
					runAndCheck(t, m, img, fmt.Sprintf("edit %d", i))
					if repeat {
						checkRecomputed(t, m, true, fmt.Sprintf("edit %d", i))
					}
				}
				// A run that stops after its first unit leaves buffers from
				// two inputs; the next run must not trust them, even on the
				// very input the stopped run was given.
				editRect(img, 1, h/2, h/2+3, w/2, w/2+3, next)
				m.plan.begin(img.Data)
				m.plan.run(0)
				runAndCheck(t, m, img, "the input of a stopped run")
				editRect(img, 1<<c-1, 0, 2, 0, 2, next)
				runAndCheck(t, m, img, "an edit after a stopped run")
			})
		}
	}
}

// FuzzInferenceMatchesForward checks the inference plan against nn's
// forward pass on sequences of rectangular edits the fuzzer chooses, on a
// victim it chooses: MobileNetV2 has grouped taps, and branchy's 13-cell
// rows leave each block of four a tail. Each edit is six bytes: a channel
// mask and repeat flag, the rectangle's corners and a value.
func FuzzInferenceMatchesForward(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{7, 16, 17, 16, 17, 200, 1, 16, 18, 17, 18, 0, 0x80, 0, 0, 0, 0, 0})
	f.Add(uint8(1), int64(2), []byte{1, 0, 32, 0, 32, 255, 6, 31, 32, 0, 1, 9, 0x87, 5, 9, 20, 30, 100})
	f.Add(uint8(2), int64(3), []byte{2, 15, 3, 30, 2, 50, 0x80, 0, 0, 0, 0, 0, 5, 0, 1, 28, 4, 0})
	f.Add(uint8(3), int64(4), []byte{4, 7, 2, 11, 2, 90, 3, 0, 15, 12, 1, 0, 0x81, 0, 0, 0, 0, 0, 1, 3, 5, 0, 12, 77})
	archs := []*models.Arch{models.SmallCNN(), models.ResNet18(16), models.MobileNetV2(8), branchy()}
	f.Fuzz(func(t *testing.T, model uint8, seed int64, edits []byte) {
		if len(edits) > 6*32 {
			edits = edits[:6*32]
		}
		arch := archs[int(model)%len(archs)]
		m := deployRandomized(t, arch, 0.5, seed%4)
		c, h, w := arch.InC, arch.InH, arch.InW
		img := tensor.New(c, h, w)
		img.Uniform(rand.New(rand.NewSource(seed)), 0, 1)
		runAndCheck(t, m, img, "the first image")
		for i := 0; i+6 <= len(edits); i += 6 {
			e := edits[i : i+6]
			repeat := e[0]&0x80 != 0
			if !repeat {
				y0, x0 := int(e[1])%h, int(e[3])%w
				v := float64(e[5]) / 255
				editRect(img, int(e[0])&(1<<c-1), y0, y0+int(e[2])%h, x0, x0+int(e[4])%w, func() float64 { return v })
			}
			runAndCheck(t, m, img, fmt.Sprintf("edit %d", i/6))
			if repeat {
				checkRecomputed(t, m, true, fmt.Sprintf("edit %d", i/6))
			}
		}
	})
}
