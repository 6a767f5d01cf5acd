package accel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/dram"
	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/prune"
	"github.com/huffduff/huffduff/internal/tensor"
	"github.com/huffduff/huffduff/internal/trace"
)

func deploy(t *testing.T, arch *models.Arch, cfg Config) *Machine {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewMachine(cfg, arch, bind)
}

func randImage(arch *models.Arch, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	img := tensor.New(1, arch.InC, arch.InH, arch.InW)
	img.Uniform(rng, 0, 1)
	return img
}

func TestRunRejectsBadInput(t *testing.T) {
	m := deploy(t, models.SmallCNN(), DefaultConfig())
	if _, err := m.Run(tensor.New(2, 3, 32, 32)); err == nil {
		t.Fatal("expected error for batch > 1")
	}
	if _, err := m.Run(tensor.New(1, 3, 16, 16)); err == nil {
		t.Fatal("expected error for wrong geometry")
	}
}

func TestTraceSegmentsMatchUnits(t *testing.T) {
	arch := models.SmallCNN()
	m := deploy(t, arch, DefaultConfig())
	tr, err := m.Run(randImage(arch, 1))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(arch.Units)+1 {
		t.Fatalf("segments = %d, want %d", len(obs), len(arch.Units)+1)
	}
	// Sequential chain: each unit depends exactly on its predecessor.
	for i := 1; i < len(obs); i++ {
		if len(obs[i].Deps) != 1 || obs[i].Deps[0] != i-1 {
			t.Fatalf("segment %d deps = %v", i, obs[i].Deps)
		}
	}
}

func TestTraceFootprintsMatchGroundTruth(t *testing.T) {
	arch := models.SmallCNN()
	cfg := DefaultConfig()
	m := deploy(t, arch, cfg)
	img := randImage(arch, 2)
	tr, err := m.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Input DMA segment size = compressed input.
	wantIn := cfg.ActCodec.Size(img.Data)
	if obs[0].OutputBytes != wantIn {
		t.Fatalf("input DMA bytes = %d, want %d", obs[0].OutputBytes, wantIn)
	}
	// nn's forward pass is an implementation independent of the machine's.
	m.Bind.Net.Forward(img, false)
	for i := range arch.Units {
		seg := obs[i+1]
		if got, want := seg.WeightBytes, m.weightBytes(i); got != want {
			t.Fatalf("unit %d weight bytes = %d, want %d", i, got, want)
		}
		out := m.Bind.UnitTensor(i)
		wantOut := cfg.ActCodec.Size(out.Data)
		if seg.OutputBytes != wantOut {
			t.Fatalf("unit %d output bytes = %d, want %d", i, seg.OutputBytes, wantOut)
		}
	}
}

func TestResNetDataflowGraphRecovered(t *testing.T) {
	arch := models.ResNet18(16)
	m := deploy(t, arch, DefaultConfig())
	tr, err := m.Run(randImage(arch, 3))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != len(arch.Units)+1 {
		t.Fatalf("segments = %d, want %d", len(obs), len(arch.Units)+1)
	}
	// Every add unit's recovered deps must equal its true input units.
	for i, u := range arch.Units {
		if u.Kind != models.UnitAdd {
			continue
		}
		seg := obs[i+1]
		want := map[int]bool{}
		for _, in := range u.In {
			want[in+1] = true // shift by input DMA segment
		}
		if len(seg.Deps) != len(want) {
			t.Fatalf("unit %d (%s): deps %v, want %v", i, u.Name, seg.Deps, u.In)
		}
		for _, d := range seg.Deps {
			if !want[d] {
				t.Fatalf("unit %d (%s): unexpected dep %d (want %v)", i, u.Name, d, u.In)
			}
		}
	}
}

func TestEncodingGLBBoundTimesScaleWithPsums(t *testing.T) {
	// With abundant DRAM bandwidth the encoding interval must be
	// proportional to the dense psum count, not the compressed size.
	arch := models.SmallCNN()
	cfg := DefaultConfig()
	cfg.Mem = dram.LPDDR4X(2) // fast: GLB-bound
	m := deploy(t, arch, cfg)
	tr, err := m.Run(randImage(arch, 4))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Compare conv units 0 and 1 (psum counts 8*32*32 vs 16*32*32), as
	// nn's forward pass computes them.
	m.Bind.Net.Forward(randImage(arch, 4), false)
	p0 := m.Bind.PsumOut(0).Size()
	p1 := m.Bind.PsumOut(1).Size()
	dt0 := obs[1].EncodingTime()
	dt1 := obs[2].EncodingTime()
	gotRatio := dt1 / dt0
	wantRatio := float64(p1) / float64(p0)
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.1 {
		t.Fatalf("Δt ratio = %.3f, want ~%.3f (psum ratio)", gotRatio, wantRatio)
	}
}

func TestEncodingDRAMBoundTimesScaleWithBytes(t *testing.T) {
	arch := models.SmallCNN()
	cfg := DefaultConfig()
	// Starve the DRAM so the encoder becomes writeback-bound.
	cfg.Mem = dram.Spec{Name: "slow", MTps: 10, BusBytes: 2, Channels: 1, Efficiency: 1}
	m := deploy(t, arch, cfg)
	tr, err := m.Run(randImage(arch, 5))
	if err != nil {
		t.Fatal(err)
	}
	obs, err := trace.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	bw := cfg.Mem.Bandwidth()
	for i := 0; i < 2; i++ {
		seg := obs[i+1]
		wantDt := float64(seg.OutputBytes-cfg.BlockBytes) / bw // first block issues at t0
		if seg.OutputBytes <= cfg.BlockBytes {
			continue
		}
		if math.Abs(seg.EncodingTime()-wantDt)/wantDt > 0.05 {
			t.Fatalf("unit %d: Δt = %g, want ~%g (DRAM-bound)", i, seg.EncodingTime(), wantDt)
		}
	}
}

func TestEncodingBounds(t *testing.T) {
	cfg := DefaultConfig()
	glb, dr := EncodingBounds(cfg, 4800, 1000)
	if math.Abs(glb-4800/(24*200e6)) > 1e-15 {
		t.Fatalf("glb = %g", glb)
	}
	if math.Abs(dr-1000/cfg.Mem.Bandwidth()) > 1e-18 {
		t.Fatalf("dram = %g", dr)
	}
}

func TestDeterministicTraceWithoutDefence(t *testing.T) {
	arch := models.SmallCNN()
	m := deploy(t, arch, DefaultConfig())
	img := randImage(arch, 6)
	tr1, _ := m.Run(img)
	tr2, _ := m.Run(img)
	if len(tr1.Accesses) != len(tr2.Accesses) {
		t.Fatal("trace lengths differ across identical runs")
	}
	for i := range tr1.Accesses {
		if tr1.Accesses[i] != tr2.Accesses[i] {
			t.Fatalf("access %d differs", i)
		}
	}
}

func TestZeroPadDefenceRandomizesVolumes(t *testing.T) {
	arch := models.SmallCNN()
	cfg := DefaultConfig()
	cfg.ZeroPadProb = 0.05
	m := deploy(t, arch, cfg)
	img := randImage(arch, 7)
	tr1, _ := m.Run(img)
	tr2, _ := m.Run(img)
	o1, _ := trace.Analyze(tr1)
	o2, _ := trace.Analyze(tr2)
	s1 := trace.OutputSignature(o1)
	s2 := trace.OutputSignature(o2)
	same := true
	for i := range s1 {
		if s1[i] != s2[i] {
			same = false
		}
		if s1[i] < trace.OutputSignature(o1)[i] {
			t.Fatal("defence must never shrink transfers")
		}
	}
	if same {
		t.Fatal("defence left identical runs identical; no obfuscation")
	}
}

func TestDRAMSpecs(t *testing.T) {
	specs := dram.EvaluatedSpecs()
	if len(specs) != 6 {
		t.Fatalf("specs = %d", len(specs))
	}
	// Bandwidth must increase across generations and double with channels.
	if !(specs[0].Bandwidth() < specs[2].Bandwidth() && specs[2].Bandwidth() < specs[4].Bandwidth()) {
		t.Fatal("generation ordering broken")
	}
	for i := 0; i < 6; i += 2 {
		if math.Abs(specs[i+1].Bandwidth()-2*specs[i].Bandwidth()) > 1 {
			t.Fatalf("dual channel != 2x single for %s", specs[i].Name)
		}
	}
	if specs[0].String() == "" {
		t.Fatal("empty String")
	}
}

func TestRunStats(t *testing.T) {
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(42))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(DefaultConfig(), arch, bind)
	img := randImage(arch, 8)
	tr, err := m.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	s := m.LastStats()
	r, w := tr.TotalBytes()
	if s.DRAMReadBytes != r || s.DRAMWriteBytes != w {
		t.Fatalf("stats traffic %d/%d, trace %d/%d", s.DRAMReadBytes, s.DRAMWriteBytes, r, w)
	}
	if s.DenseMACs <= 0 || s.EffectualMACs <= 0 || s.EffectualMACs > s.DenseMACs {
		t.Fatalf("MAC counters: %g effectual of %g dense", s.EffectualMACs, s.DenseMACs)
	}
	if s.Latency <= 0 {
		t.Fatal("latency not recorded")
	}
	if s.EnergyPJ.Total() <= 0 || s.EnergyPJ.DRAM <= 0 {
		t.Fatalf("energy: %+v", s.EnergyPJ)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

// Pruning must increase the zero-skipping speedup and reduce traffic.
func TestPruningImprovesStats(t *testing.T) {
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(43))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(arch, 9)
	dense := NewMachine(DefaultConfig(), arch, bind)
	if _, err := dense.Run(img); err != nil {
		t.Fatal(err)
	}
	before := dense.LastStats()

	prune.GlobalMagnitude(bind.Net.Params(), 0.2)
	sparseM := NewMachine(DefaultConfig(), arch, bind)
	if _, err := sparseM.Run(img); err != nil {
		t.Fatal(err)
	}
	after := sparseM.LastStats()
	if after.Speedup() <= before.Speedup() {
		t.Fatalf("pruning did not improve skip factor: %.2f -> %.2f", before.Speedup(), after.Speedup())
	}
	if after.DRAMReadBytes >= before.DRAMReadBytes {
		t.Fatalf("pruning did not shrink weight traffic: %d -> %d", before.DRAMReadBytes, after.DRAMReadBytes)
	}
}

func TestDenseConfigTransfersIgnoreSparsity(t *testing.T) {
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(44))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	img := randImage(arch, 10)
	m := NewMachine(DenseConfig(), arch, bind)
	tr1, _ := m.Run(img)
	prune.GlobalMagnitude(bind.Net.Params(), 0.2)
	m2 := NewMachine(DenseConfig(), arch, bind)
	tr2, _ := m2.Run(img)
	o1, _ := trace.Analyze(tr1)
	o2, _ := trace.Analyze(tr2)
	// On a dense accelerator weight transfers do not shrink with pruning.
	if o1[1].WeightBytes != o2[1].WeightBytes {
		t.Fatalf("dense weight bytes changed with pruning: %d vs %d", o1[1].WeightBytes, o2[1].WeightBytes)
	}
}

// Structured-sparse transfers must be content-independent: re-randomizing
// the surviving weights cannot change any transfer size (§2's observation
// that such accelerators fall to dense-era attacks).
func TestStructuredTransfersContentIndependent(t *testing.T) {
	arch := models.SmallCNN()
	rng := rand.New(rand.NewSource(45))
	bind, err := arch.Build(rng)
	if err != nil {
		t.Fatal(err)
	}
	prune.ChannelMagnitude(bind.Net.Params(), 0.5)
	img := randImage(arch, 11)
	m1 := NewMachine(StructuredConfig(), arch, bind)
	tr1, err := m1.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	// Re-randomize surviving weights (masks keep the channel structure).
	for _, p := range bind.Net.Params() {
		p.W.Randn(rng, 0.1)
		p.ApplyMask()
	}
	m2 := NewMachine(StructuredConfig(), arch, bind)
	tr2, err := m2.Run(img)
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := trace.Analyze(tr1)
	o2, _ := trace.Analyze(tr2)
	for i := range o1 {
		if o1[i].WeightBytes != o2[i].WeightBytes {
			t.Fatalf("segment %d weight bytes changed with content: %d vs %d", i, o1[i].WeightBytes, o2[i].WeightBytes)
		}
		if o1[i].OutputBytes != o2[i].OutputBytes {
			t.Fatalf("segment %d output bytes changed with content: %d vs %d", i, o1[i].OutputBytes, o2[i].OutputBytes)
		}
	}
}

func TestStructuredWeightBytesFormula(t *testing.T) {
	w := tensor.New(4, 6) // 4 channels, 6 weights each
	w.Data[0] = 1         // channel 0 alive
	w.Data[3*6] = 2       // channel 3 alive
	// 2 alive channels x 6 bytes + 1 bitmap byte
	if got := structuredWeightBytes(w); got != 13 {
		t.Fatalf("structured bytes = %d, want 13", got)
	}
}

// The §8.2 table's shape: GLB headroom grows with each LPDDR generation at
// either channel count, and a second channel exactly doubles it.
func TestGLBHeadroomTable(t *testing.T) {
	for _, arch := range []*models.Arch{models.VGGS(8), models.ResNet18(8)} {
		rng := rand.New(rand.NewSource(2))
		bind, err := arch.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		prune.GlobalMagnitude(bind.Net.Params(), 0.1)
		cfg := DefaultConfig()
		m := NewMachine(cfg, arch, bind)
		if _, err := m.Run(randImage(arch, 12)); err != nil {
			t.Fatal(err)
		}
		layers := m.LastStats().Layers
		headroom := map[string]float64{}
		for _, mem := range dram.EvaluatedSpecs() {
			c := cfg
			c.Mem = mem
			headroom[fmt.Sprintf("%s/%d", mem.Name, mem.Channels)] = GLBHeadroom(c, arch, layers)
		}
		for _, ch := range []int{1, 2} {
			h3 := headroom[fmt.Sprintf("%s/%d", dram.LPDDR3(ch).Name, ch)]
			h4 := headroom[fmt.Sprintf("%s/%d", dram.LPDDR4(ch).Name, ch)]
			h4x := headroom[fmt.Sprintf("%s/%d", dram.LPDDR4X(ch).Name, ch)]
			if !(h3 < h4 && h4 < h4x) {
				t.Errorf("%s, %d channel(s): headroom LPDDR3 %g, LPDDR4 %g, LPDDR4X %g not increasing", arch.Name, ch, h3, h4, h4x)
			}
		}
		for _, mk := range []func(int) dram.Spec{dram.LPDDR3, dram.LPDDR4, dram.LPDDR4X} {
			one := headroom[fmt.Sprintf("%s/1", mk(1).Name)]
			two := headroom[fmt.Sprintf("%s/2", mk(2).Name)]
			if math.Abs(two-2*one) > 1e-12*two {
				t.Errorf("%s, %s: dual-channel headroom %g, single %g: not 2x", arch.Name, mk(1).Name, two, one)
			}
		}
	}
}
