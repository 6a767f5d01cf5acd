package huffduff_test

import (
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff"
)

// TestPublicAPIEndToEnd exercises the documented public facade exactly as
// the README quick start does.
func TestPublicAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end attack")
	}
	rng := rand.New(rand.NewSource(7))
	secret := huffduff.SmallCNN()
	bind, err := secret.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	huffduff.PruneGlobal(bind.Net.Params(), 0.5)
	if sp := huffduff.OverallSparsity(bind.Net.Params()); sp < 0.45 || sp > 0.55 {
		t.Fatalf("sparsity = %g", sp)
	}
	device := huffduff.NewMachine(huffduff.DefaultAccelConfig(), secret, bind)
	res, err := huffduff.Attack(device, huffduff.DefaultAttackConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Space.Count() < 1 || res.Space.Count() > 100 {
		t.Fatalf("solution count %d out of the feasibly-testable range", res.Space.Count())
	}
	trueK1 := secret.Units[0].OutC
	if trueK1 < res.Space.K1Min || trueK1 > res.Space.K1Max {
		t.Fatalf("true k1 %d outside [%d,%d]", trueK1, res.Space.K1Min, res.Space.K1Max)
	}
	sols := huffduff.SampleSolutions(res.Space, 2, rng)
	for _, s := range sols {
		if _, err := s.Arch.Build(rng); err != nil {
			t.Fatalf("sampled arch unbuildable: %v", err)
		}
	}
}

// TestPublicAPITrainingPath covers the data/training/adversarial facade.
func TestPublicAPITrainingPath(t *testing.T) {
	if testing.Short() {
		t.Skip("training")
	}
	tr, te := huffduff.Synthetic(5, 200, 50, 0.05)
	rng := rand.New(rand.NewSource(9))
	bind, err := huffduff.SmallCNN().Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := huffduff.DefaultTrainConfig()
	cfg.Epochs = 2
	huffduff.Fit(bind.Net, tr, cfg)
	acc := huffduff.Accuracy(bind.Net, te, 32)
	// API smoke test, not a learning benchmark: two epochs on 200 samples
	// of the deliberately hard synthetic task just needs to beat chance.
	if acc < 0.15 {
		t.Fatalf("accuracy %.2f too low", acc)
	}
	res, err := huffduff.EvaluateTransfer(bind.Net, bind.Net, te, 10, huffduff.DefaultBIM(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no transfer evaluations ran")
	}
}

// TestModelZooScales ensures every public constructor produces valid archs
// across scales.
func TestModelZooScales(t *testing.T) {
	for _, mk := range []func(int) *huffduff.Arch{huffduff.VGGS, huffduff.ResNet18, huffduff.AlexNet, huffduff.MobileNetV2} {
		for _, scale := range []int{1, 4, 16} {
			a := mk(scale)
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
		}
	}
}

// TestDRAMFacade covers the re-exported memory constructors.
func TestDRAMFacade(t *testing.T) {
	if huffduff.LPDDR3(1).Bandwidth() >= huffduff.LPDDR4X(1).Bandwidth() {
		t.Fatal("memory generations out of order")
	}
}
