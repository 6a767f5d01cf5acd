package accel

import (
	"math"
	"strings"
	"testing"

	"github.com/huffduff/huffduff/internal/models"
)

func TestSpeedupZeroGuard(t *testing.T) {
	if got := (Stats{}).Speedup(); got != 1 {
		t.Fatalf("zero-MAC Speedup = %v, want 1", got)
	}
	s := Stats{DenseMACs: 100, EffectualMACs: 25}
	if got := s.Speedup(); got != 4 {
		t.Fatalf("Speedup = %v, want 4", got)
	}
}

func TestEnergyBreakdownTotal(t *testing.T) {
	e := EnergyBreakdown{DRAM: 1.5, GLB: 2.25, MAC: 0.75}
	if got := e.Total(); got != 4.5 {
		t.Fatalf("Total = %v, want 4.5", got)
	}
	if got := (EnergyBreakdown{}).Total(); got != 0 {
		t.Fatalf("zero Total = %v, want 0", got)
	}
}

func TestStatsStringFormatting(t *testing.T) {
	s := Stats{
		DRAMReadBytes:  1000,
		DRAMWriteBytes: 500,
		EffectualMACs:  2000,
		DenseMACs:      8000,
		Latency:        1.5e-6,
		EnergyPJ:       EnergyBreakdown{DRAM: 3e6},
	}
	str := s.String()
	for _, want := range []string{"1000 B read", "500 B written", "2000 effectual MACs", "4.0x skip", "1.5 us", "3.0 uJ"} {
		if !strings.Contains(str, want) {
			t.Fatalf("Stats.String() = %q, missing %q", str, want)
		}
	}
}

// TestStatsResetBetweenRuns pins the reset contract: LastStats covers only
// the most recent inference, while Campaign accumulates across runs.
func TestStatsResetBetweenRuns(t *testing.T) {
	arch := models.SmallCNN()
	m := deploy(t, arch, DefaultConfig())

	img := randImage(arch, 1)
	if _, err := m.Run(img); err != nil {
		t.Fatal(err)
	}
	first := m.LastStats()
	if first.DRAMReadBytes == 0 || first.EffectualMACs == 0 {
		t.Fatalf("first run produced empty stats: %+v", first)
	}
	if len(first.Layers) != len(arch.Units) {
		t.Fatalf("per-layer stats cover %d units, want %d", len(first.Layers), len(arch.Units))
	}

	if _, err := m.Run(img); err != nil {
		t.Fatal(err)
	}
	second := m.LastStats()
	// Same weights, same input: reads must match exactly between runs rather
	// than doubling — a leak across runs would show up here.
	if second.DRAMReadBytes != first.DRAMReadBytes {
		t.Fatalf("second-run DRAM reads %d != first-run %d (stats leak across runs?)",
			second.DRAMReadBytes, first.DRAMReadBytes)
	}
	if second.DenseMACs != first.DenseMACs {
		t.Fatalf("second-run dense MACs %v != first-run %v", second.DenseMACs, first.DenseMACs)
	}

	c := m.Campaign()
	if c.Runs != 2 {
		t.Fatalf("campaign runs = %d, want 2", c.Runs)
	}
	if c.DRAMReadBytes != first.DRAMReadBytes+second.DRAMReadBytes {
		t.Fatalf("campaign reads %d != %d + %d", c.DRAMReadBytes, first.DRAMReadBytes, second.DRAMReadBytes)
	}
	if len(c.Layers) != len(first.Layers) {
		t.Fatalf("campaign layers = %d, want %d", len(c.Layers), len(first.Layers))
	}
	for i := range c.Layers {
		want := first.Layers[i].EffectualMACs + second.Layers[i].EffectualMACs
		if math.Abs(c.Layers[i].EffectualMACs-want) > 1e-9 {
			t.Fatalf("campaign layer %d effectual MACs %v, want %v", i, c.Layers[i].EffectualMACs, want)
		}
	}
	if !strings.Contains(c.String(), "campaign: 2 runs") {
		t.Fatalf("campaign table header wrong:\n%s", c.String())
	}

	m.ResetCampaign()
	if got := m.Campaign(); got.Runs != 0 || len(got.Layers) != 0 {
		t.Fatalf("ResetCampaign left state: %+v", got)
	}
}

// TestGLBEnergyFromDensePsums is the regression test for the GLB traffic
// model: the encoder is GLB-bound on *dense* psums (§7) — every psum word is
// written once and read once at PsumBits width — so GLB energy must be
// derived from the layer psum counts plus one streaming pass of the
// compressed DRAM traffic, not from compressed bytes alone.
func TestGLBEnergyFromDensePsums(t *testing.T) {
	arch := models.SmallCNN()
	cfg := DefaultConfig()
	m := deploy(t, arch, cfg)
	if _, err := m.Run(randImage(arch, 3)); err != nil {
		t.Fatal(err)
	}
	s := m.LastStats()

	psumBytes := 0.0
	for _, l := range s.Layers {
		psumBytes += float64(l.Psums) * float64(cfg.PsumBits) / 8
	}
	if psumBytes == 0 {
		t.Fatal("no psums recorded")
	}
	dramBytes := float64(s.DRAMReadBytes + s.DRAMWriteBytes)
	wantGLB := (2*psumBytes + dramBytes) * EnergyPerGLBByte
	if math.Abs(s.EnergyPJ.GLB-wantGLB) > 1e-6*wantGLB {
		t.Fatalf("GLB energy %v, want %v (2·psumBytes=%v + dram=%v)",
			s.EnergyPJ.GLB, wantGLB, 2*psumBytes, dramBytes)
	}
	if want := dramBytes * EnergyPerDRAMByte; math.Abs(s.EnergyPJ.DRAM-want) > 1e-6*want {
		t.Fatalf("DRAM energy %v, want %v", s.EnergyPJ.DRAM, want)
	}
	if want := s.EffectualMACs * EnergyPerMAC; math.Abs(s.EnergyPJ.MAC-want) > 1e-6*want {
		t.Fatalf("MAC energy %v, want %v", s.EnergyPJ.MAC, want)
	}
	// Dense psums dominate compressed traffic on a pruned network, so the
	// fixed model (vs the old compressed-bytes ×2 approximation) must price
	// the GLB above the pure streaming term.
	if s.EnergyPJ.GLB <= dramBytes*EnergyPerGLBByte {
		t.Fatalf("GLB energy %v not above streaming-only %v — dense-psum term missing",
			s.EnergyPJ.GLB, dramBytes*EnergyPerGLBByte)
	}
}
