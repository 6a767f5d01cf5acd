package symconv

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/probe"
)

// TestSoundnessRandomStacks is the engine's central property: for random
// layer stacks with random weights, probe positions predicted equal by the
// symbolic engine must observe exactly equal nnz, for every layer of the
// stack (the one-sided-error guarantee of §5.4 that the whole attack rests
// on).
func TestSoundnessRandomStacks(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized soundness sweep")
	}
	for trial := 0; trial < 25; trial++ {
		checkSoundness(t, int64(1000+trial))
	}
}

// FuzzSoundness checks the same property on fuzzer-chosen seeds.
func FuzzSoundness(f *testing.F) {
	for trial := 0; trial < 25; trial++ {
		f.Add(int64(1000 + trial))
	}
	f.Fuzz(checkSoundness)
}

// randomStack draws one soundness case from rng: a stack of one to three
// (kernel, stride, pool) layers on a 32×32 input and a probe family. ok is
// false when the draw leaves no usable stack.
func randomStack(rng *rand.Rand) (stack [][3]int, pat probe.Pattern, ok bool) {
	geoms := [][3]int{
		{1, 1, 1}, {3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {5, 1, 1}, {5, 2, 1}, {7, 1, 1},
	}
	depth := 1 + rng.Intn(3)
	h := 32
	for d := 0; d < depth; d++ {
		g := geoms[rng.Intn(len(geoms))]
		pad := (g[0] - 1) / 2
		nh := ((h+2*pad-g[0])/g[1] + 1) / g[2]
		if nh < 4 {
			break
		}
		stack = append(stack, g)
		h = nh
	}
	if len(stack) == 0 {
		return nil, pat, false
	}
	pat = probe.Pattern{M: 0, N: 1 + rng.Intn(2), Q: 8, FeatRow: 14}
	return stack, pat, pat.Validate(32, 32) == nil
}

// stackPatterns returns the engine's predicted partition of pat's probes
// after every layer of stack.
func stackPatterns(pat probe.Pattern, stack [][3]int) [][]int {
	var eng Engine
	sigs := make([][]Value, len(stack))
	for q := 0; q < pat.Q; q++ {
		g := eng.ProbeGrid(pat, q, 32, 32)
		for li, l := range stack {
			g = eng.MaxPool(eng.Conv(g, fmt.Sprintf("l%d", li), l[0], l[1]), l[2])
			sigs[li] = append(sigs[li], Signature(g))
		}
	}
	out := make([][]int, len(stack))
	for li := range sigs {
		out[li] = ClassPattern(sigs[li])
	}
	return out
}

// checkSoundness draws seed's stack, runs it numerically with random
// multichannel weights, and fails t unless every layer's predicted
// partition refines the observed nnz partition.
func checkSoundness(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	stack, pat, ok := randomStack(rng)
	if !ok {
		return
	}
	pred := stackPatterns(pat, stack)

	channels := 2 + rng.Intn(4)
	var layers []nn.Layer
	inC := 1
	for _, l := range stack {
		conv := nn.NewConv2D(rng, inC, channels, l[0], l[1], nn.SamePad(l[0]), 1, true)
		conv.Bias.W.Uniform(rng, -0.2, 0.2)
		layers = append(layers, conv, nn.NewReLU())
		if l[2] > 1 {
			layers = append(layers, nn.NewMaxPool2D(l[2]))
		}
		inC = channels
	}
	vals := probe.RandomValues(rng, pat)
	nnzPerLayer := make([][]int, len(stack))
	for q := 0; q < pat.Q; q++ {
		x := probe.Image(pat, vals, q, 1, 32, 32).Reshape(1, 1, 32, 32)
		unit := 0
		for i := 0; i < len(layers); {
			x = layers[i].Forward(x, false) // conv
			i++
			x = layers[i].Forward(x, false) // relu
			i++
			if i < len(layers) {
				if mp, ok := layers[i].(*nn.MaxPool2D); ok {
					x = mp.Forward(x, false)
					i++
				}
			}
			nnzPerLayer[unit] = append(nnzPerLayer[unit], x.NNZ(0))
			unit++
		}
	}

	for li := range stack {
		obs := ClassPattern(nnzPerLayer[li])
		if !Refines(pred[li], obs) {
			t.Fatalf("seed %d layer %d (%v): prediction %s does not refine observation %s",
				seed, li, stack[li], PatternString(pred[li]), PatternString(obs))
		}
	}
}
