package models

import (
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/tensor"
)

func allArchs(scale int) []*Arch {
	return []*Arch{VGGS(scale), ResNet18(scale), AlexNet(scale), MobileNetV2(scale), SmallCNN()}
}

func TestArchValidation(t *testing.T) {
	for _, a := range allArchs(8) {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if _, err := a.Shapes(); err != nil {
			t.Fatalf("%s shapes: %v", a.Name, err)
		}
	}
}

func TestFullSizeArchWeightCounts(t *testing.T) {
	// VGG-16-style conv5_3 is 512*512*3*3 = 2,359,296 (quoted in paper §4.2).
	a := VGGS(1)
	shapes, err := a.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, u := range a.Units {
		if u.Name == "conv5_3" {
			inC := shapes[u.In[0]].C
			if got := u.OutC * inC * 9; got != 2359296 {
				t.Fatalf("conv5_3 weights = %d, want 2359296", got)
			}
			found = true
		}
		_ = i
	}
	if !found {
		t.Fatal("conv5_3 not found")
	}
	// ResNet-18 stem has 64 output channels (paper k-range centres there).
	r := ResNet18(1)
	if r.Units[0].OutC != 64 {
		t.Fatalf("resnet stem outC = %d, want 64", r.Units[0].OutC)
	}
	// ResNet-18 has 17 convs on the main path + 3 shortcut convs.
	if got := len(r.ConvUnits()); got != 20 {
		t.Fatalf("resnet18 conv units = %d, want 20", got)
	}
}

func TestBuildAndForwardAllArchs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, a := range allArchs(16) {
		bind, err := a.Build(rng)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		x := tensor.New(2, a.InC, a.InH, a.InW)
		x.Randn(rng, 1)
		out := bind.Net.Forward(x, false)
		if out.Dim(0) != 2 || out.Dim(1) != a.NumClasses {
			t.Fatalf("%s: output shape %v", a.Name, out.Shape())
		}
		// Every unit output and psum must be populated consistently.
		shapes, _ := a.Shapes()
		for i, u := range a.Units {
			got := bind.UnitTensor(i)
			if got == nil {
				t.Fatalf("%s unit %d: nil output", a.Name, i)
			}
			if u.Kind != UnitLinear {
				s := shapes[i]
				if got.Dim(1) != s.C || got.Dim(2) != s.H || got.Dim(3) != s.W {
					t.Fatalf("%s unit %d (%s): shape %v, want CHW %d %d %d", a.Name, i, u.Name, got.Shape(), s.C, s.H, s.W)
				}
			}
			if u.Kind == UnitConv && bind.PsumOut(i) == nil {
				t.Fatalf("%s unit %d: conv unit without psum", a.Name, i)
			}
			if u.Kind == UnitAdd && bind.PsumOut(i) != nil {
				t.Fatalf("%s unit %d: add unit with psum", a.Name, i)
			}
		}
	}
}

func TestPsumShapeIsPrePool(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := SmallCNN()
	bind, err := a.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, 32, 32)
	x.Randn(rng, 1)
	bind.Net.Forward(x, false)
	// Unit 1 (c2) pools by 2: psum is 32x32, written output is 16x16.
	psum := bind.PsumOut(1)
	out := bind.UnitTensor(1)
	if psum.Dim(2) != 32 || out.Dim(2) != 16 {
		t.Fatalf("psum H=%d out H=%d, want 32/16", psum.Dim(2), out.Dim(2))
	}
}

func TestWeightCountMatchesBuiltNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, a := range allArchs(16) {
		want, err := a.WeightCount()
		if err != nil {
			t.Fatal(err)
		}
		bind, err := a.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, p := range bind.Net.Params() {
			if p.Decay { // conv + linear weights carry decay; BN/bias do not
				got += p.W.Size()
			}
		}
		if got != want {
			t.Fatalf("%s: WeightCount %d, built %d", a.Name, want, got)
		}
	}
}

func TestScaleCFloorAndParity(t *testing.T) {
	if scaleC(64, 1) != 64 {
		t.Fatal("scale 1 must be identity")
	}
	if scaleC(64, 16) != 4 {
		t.Fatalf("scaleC(64,16) = %d", scaleC(64, 16))
	}
	if scaleC(8, 16) != 4 {
		t.Fatalf("floor violated: %d", scaleC(8, 16))
	}
	if scaleC(96, 16)%2 != 0 {
		t.Fatal("parity violated")
	}
}

func TestValidateCatchesBadArch(t *testing.T) {
	bad := &Arch{Name: "bad", InC: 3, InH: 32, InW: 32, NumClasses: 10,
		Units: []Unit{{Kind: UnitConv, Name: "c", In: []int{5}, OutC: 4, Kernel: 3, Stride: 1, Pool: 1}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected forward-reference error")
	}
	bad2 := &Arch{Name: "bad2", InC: 3, InH: 32, InW: 32, NumClasses: 10,
		Units: []Unit{{Kind: UnitConv, Name: "c", In: []int{InputID}, OutC: 0, Kernel: 3, Stride: 1, Pool: 1}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected bad-geometry error")
	}
	bad3 := &Arch{Name: "bad3", InC: 0, InH: 32, InW: 32}
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected bad-input error")
	}
}

func TestArchString(t *testing.T) {
	s := ResNet18(8).String()
	if s == "" {
		t.Fatal("empty String")
	}
}
