package huffduff

import (
	"errors"
	"math"
	"testing"

	"github.com/huffduff/huffduff/internal/faults"
)

func chainGraph(kinds ...NodeKind) *ObsGraph {
	g := &ObsGraph{}
	for i, k := range kinds {
		n := ObsNode{ID: i, Kind: k}
		if i > 0 {
			n.Deps = []int{i - 1}
		}
		g.Nodes = append(g.Nodes, n)
	}
	return g
}

func TestPropagateDims(t *testing.T) {
	g := chainGraph(NodeInput, NodeConv, NodeConv, NodePool, NodeLinear)
	pr := &ProbeResult{
		Geoms: map[int]Geom{
			1: {Kernel: 3, Stride: 1, Pool: 2},
			2: {Kernel: 3, Stride: 2, Pool: 1},
		},
		PoolFactors: map[int]int{3: 8},
	}
	dims, err := PropagateDims(g, pr, 32)
	if err != nil {
		t.Fatal(err)
	}
	if dims.PsumH[1] != 32 || dims.OutH[1] != 16 {
		t.Fatalf("node1 dims %d/%d", dims.PsumH[1], dims.OutH[1])
	}
	if dims.PsumH[2] != 8 || dims.OutH[2] != 8 {
		t.Fatalf("node2 dims %d/%d", dims.PsumH[2], dims.OutH[2])
	}
	if dims.OutH[3] != 1 {
		t.Fatalf("pool out %d", dims.OutH[3])
	}
	if dims.OutH[4] != 1 {
		t.Fatalf("linear out %d", dims.OutH[4])
	}
}

func TestPropagateDimsMissingGeometry(t *testing.T) {
	g := chainGraph(NodeInput, NodeConv)
	if _, err := PropagateDims(g, &ProbeResult{Geoms: map[int]Geom{}}, 32); err == nil {
		t.Fatal("expected error for missing geometry")
	}
}

func TestPropagateDimsAddMismatch(t *testing.T) {
	g := &ObsGraph{Nodes: []ObsNode{
		{ID: 0, Kind: NodeInput},
		{ID: 1, Kind: NodeConv, Deps: []int{0}},
		{ID: 2, Kind: NodeConv, Deps: []int{0}},
		{ID: 3, Kind: NodeAdd, Deps: []int{1, 2}},
	}}
	pr := &ProbeResult{Geoms: map[int]Geom{
		1: {Kernel: 3, Stride: 1, Pool: 1},
		2: {Kernel: 3, Stride: 2, Pool: 1},
	}}
	if _, err := PropagateDims(g, pr, 32); err == nil {
		t.Fatal("expected branch-dims error")
	}
}

func TestTimingChannelRatios(t *testing.T) {
	// Two convs: psum 32² k=4 and psum 16² k=8; GLB-bound Δt ∝ psums·k.
	// One head-corrected sample per node, as ProbeData.Enc holds them.
	g := chainGraph(NodeInput, NodeConv, NodeConv)
	dims := &SpatialDims{PsumH: map[int]int{1: 32, 2: 16}, OutH: map[int]int{}}
	samples := [][]float64{nil, {1024 * 4 * 1e-9}, {256 * 8 * 1e-9}}
	tm, err := TimingChannelFromSamples(g, dims, samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm.RefNode != 1 {
		t.Fatalf("ref node %d", tm.RefNode)
	}
	if math.Abs(tm.KRatio[1]-1) > 1e-9 {
		t.Fatalf("ref ratio %g", tm.KRatio[1])
	}
	if math.Abs(tm.KRatio[2]-2) > 1e-6 {
		t.Fatalf("ratio = %g, want 2", tm.KRatio[2])
	}
	for _, id := range []int{1, 2} {
		if tm.SampleCount[id] != 1 || tm.Dispersion[id] != 0 {
			t.Fatalf("node %d: %d samples, dispersion %g; want 1 and 0", id, tm.SampleCount[id], tm.Dispersion[id])
		}
	}
}

func TestTimingChannelErrors(t *testing.T) {
	g := chainGraph(NodeInput)
	if _, err := TimingChannelFromSamples(g, &SpatialDims{}, [][]float64{nil}, 0); err == nil {
		t.Fatal("expected no-conv error")
	}
	g2 := chainGraph(NodeInput, NodeConv)
	if _, err := TimingChannelFromSamples(g2, &SpatialDims{PsumH: map[int]int{}}, [][]float64{nil, {1}}, 0); err == nil {
		t.Fatal("expected missing-psum-dims error")
	}
	dims := &SpatialDims{PsumH: map[int]int{1: 8}}
	for name, samples := range map[string][][]float64{
		"zero encoding time":   {nil, {0}},
		"no samples":           {nil, nil},
		"dispersion over 0.25": {nil, {1, 2, 3}},
	} {
		if _, err := TimingChannelFromSamples(g2, dims, samples, 0); !errors.Is(err, faults.ErrTimingUnusable) {
			t.Fatalf("%s: got %v, want ErrTimingUnusable", name, err)
		}
	}
}

func TestFinalizeErrors(t *testing.T) {
	g := chainGraph(NodeInput)
	fin := DefaultFinalizeConfig()
	if _, err := Finalize(g, &ProbeResult{}, &SpatialDims{}, &TimingResult{}, fin); err == nil {
		t.Fatal("expected nothing-to-finalize error")
	}
}

func TestMathRound(t *testing.T) {
	for in, want := range map[float64]int{0.4: 0, 0.5: 1, 1.49: 1, 2.5: 3, -0.6: -1} {
		if got := mathRound(in); got != want {
			t.Fatalf("mathRound(%g) = %d, want %d", in, got, want)
		}
	}
}

func TestChanAt(t *testing.T) {
	if chanAt(0, 3, 100) != 3 {
		t.Fatal("constant channels ignored")
	}
	if chanAt(2.0, 0, 8) != 16 {
		t.Fatal("ratio channels wrong")
	}
	if chanAt(0.001, 0, 1) != 1 {
		t.Fatal("channels must floor at 1")
	}
}
