// Package prune implements unstructured weight pruning: one-shot global
// magnitude pruning and Lottery-Ticket-style iterative pruning with weight
// rewinding (Frankle & Carbin, the method the paper uses to produce its 10×
// compressed victims).
package prune

import (
	"fmt"
	"math"
	"sort"

	"github.com/huffduff/huffduff/internal/dataset"
	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/tensor"
)

// prunable selects the parameters pruning applies to: conv and linear
// weights (the ones marked for weight decay), never biases or BN affine
// terms. This matches standard practice and the paper's setup.
func prunable(params []*nn.Param) []*nn.Param {
	var ps []*nn.Param
	for _, p := range params {
		if p.Decay {
			ps = append(ps, p)
		}
	}
	return ps
}

// GlobalMagnitude prunes the smallest-magnitude weights across all prunable
// parameters until the surviving (unmasked) fraction is keep. Existing masks
// are respected: already-pruned weights stay pruned. It installs/updates
// masks in place.
func GlobalMagnitude(params []*nn.Param, keep float64) {
	if keep <= 0 || keep > 1 {
		panic(fmt.Sprintf("prune: keep fraction %g out of (0,1]", keep))
	}
	ps := prunable(params)
	// One entry per alive weight: ps[param].W.Data[idx] has magnitude mag.
	type entry struct {
		mag        float64
		param, idx int32
	}
	total, n := 0, 0
	for _, p := range ps {
		total += p.W.Size()
		if p.Mask == nil {
			n += p.W.Size()
		} else {
			n += p.Mask.NNZ(0)
		}
	}
	alive := make([]entry, 0, n)
	for pi, p := range ps {
		for i, v := range p.W.Data {
			if p.Mask != nil && p.Mask.Data[i] == 0 {
				continue
			}
			alive = append(alive, entry{math.Abs(v), int32(pi), int32(i)})
		}
	}
	target := int(float64(total) * keep)
	if target >= len(alive) {
		ensureMasks(ps)
		return
	}
	// Which of two equal magnitudes is pruned depends only on their order
	// here, since sort.Slice's permutation is a function of the length and
	// of less: the entries' layout does not change the masks.
	sort.Slice(alive, func(i, j int) bool { return alive[i].mag < alive[j].mag })
	ensureMasks(ps)
	for _, e := range alive[:len(alive)-target] {
		ps[e.param].Mask.Data[e.idx] = 0
	}
	for _, p := range ps {
		p.ApplyMask()
	}
}

// LayerwiseMagnitude prunes each prunable parameter independently to the
// given keep fraction. Used for pruning baseline surrogates to a target
// sparsity (Fig. 5/6 baselines B1–B4).
func LayerwiseMagnitude(params []*nn.Param, keep float64) {
	if keep <= 0 || keep > 1 {
		panic(fmt.Sprintf("prune: keep fraction %g out of (0,1]", keep))
	}
	ps := prunable(params)
	ensureMasks(ps)
	for _, p := range ps {
		var alive []int
		for i := range p.W.Data {
			if p.Mask.Data[i] != 0 {
				alive = append(alive, i)
			}
		}
		target := int(float64(p.W.Size()) * keep)
		if target >= len(alive) {
			continue
		}
		sort.Slice(alive, func(a, b int) bool {
			return math.Abs(p.W.Data[alive[a]]) < math.Abs(p.W.Data[alive[b]])
		})
		for _, idx := range alive[:len(alive)-target] {
			p.Mask.Data[idx] = 0
		}
		p.ApplyMask()
	}
}

func ensureMasks(ps []*nn.Param) {
	for _, p := range ps {
		if p.Mask == nil {
			p.Mask = tensor.New(p.W.Shape()...)
			p.Mask.Fill(1)
		}
	}
}

// Stats summarizes sparsity for one parameter.
type Stats struct {
	Name     string
	Total    int
	Alive    int
	Sparsity float64
}

// Report returns per-parameter sparsity stats for prunable parameters.
func Report(params []*nn.Param) []Stats {
	var out []Stats
	for _, p := range prunable(params) {
		alive := p.W.NNZ(0)
		out = append(out, Stats{
			Name:     p.Name,
			Total:    p.W.Size(),
			Alive:    alive,
			Sparsity: 1 - float64(alive)/float64(p.W.Size()),
		})
	}
	return out
}

// OverallSparsity returns the fraction of pruned weights across prunable
// parameters.
func OverallSparsity(params []*nn.Param) float64 {
	total, alive := 0, 0
	for _, p := range prunable(params) {
		total += p.W.Size()
		alive += p.W.NNZ(0)
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(alive)/float64(total)
}

// Snapshot captures weights for lottery-ticket rewinding.
type Snapshot struct {
	values map[*nn.Param]*tensor.Tensor
}

// Capture saves a copy of every parameter's current weights.
func Capture(params []*nn.Param) *Snapshot {
	s := &Snapshot{values: make(map[*nn.Param]*tensor.Tensor)}
	for _, p := range params {
		s.values[p] = p.W.Clone()
	}
	return s
}

// Rewind restores captured weights, then re-applies current masks (the
// lottery-ticket reset: initial weights, surviving structure).
func (s *Snapshot) Rewind(params []*nn.Param) {
	for _, p := range params {
		saved, ok := s.values[p]
		if !ok {
			panic(fmt.Sprintf("prune: parameter %s not in snapshot", p.Name))
		}
		copy(p.W.Data, saved.Data)
		p.ApplyMask()
	}
}

// TrainFunc trains the network in place (injected so prune does not depend
// on a specific training loop).
type TrainFunc func(net *nn.Network, ds *dataset.Dataset)

// LotteryTicket performs iterative magnitude pruning with weight rewinding:
// rounds of (train → prune keepPerRound of surviving weights → rewind to
// initial weights), ending with a final training run. After r rounds overall
// keep = keepPerRound^r. Returns the final overall sparsity.
func LotteryTicket(net *nn.Network, ds *dataset.Dataset, rounds int, keepPerRound float64, trainFn TrainFunc) float64 {
	params := net.Params()
	initial := Capture(params)
	for round := 0; round < rounds; round++ {
		trainFn(net, ds)
		keep := math.Pow(keepPerRound, float64(round+1))
		GlobalMagnitude(params, keep)
		initial.Rewind(params)
	}
	trainFn(net, ds)
	return OverallSparsity(params)
}

// ChannelMagnitude performs structured pruning: for every prunable
// parameter it ranks output channels (rows of the first dimension) by L2
// norm and zeroes whole channels until the keep fraction survives, always
// retaining at least one channel. Structured sparsity is the easy case for
// the attacker (§2): a structured-sparse accelerator's transfer sizes do not
// depend on data content, so dense-era attacks apply unchanged.
func ChannelMagnitude(params []*nn.Param, keep float64) {
	if keep <= 0 || keep > 1 {
		panic(fmt.Sprintf("prune: keep fraction %g out of (0,1]", keep))
	}
	ps := prunable(params)
	ensureMasks(ps)
	for _, p := range ps {
		outC := p.W.Dim(0)
		per := p.W.Size() / outC
		norms := make([]float64, outC)
		for c := 0; c < outC; c++ {
			s := 0.0
			for _, v := range p.W.Data[c*per : (c+1)*per] {
				s += v * v
			}
			norms[c] = s
		}
		order := make([]int, outC)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return norms[order[a]] < norms[order[b]] })
		target := int(float64(outC) * keep)
		if target < 1 {
			target = 1
		}
		for _, c := range order[:outC-target] {
			for i := c * per; i < (c+1)*per; i++ {
				p.Mask.Data[i] = 0
			}
		}
		p.ApplyMask()
	}
}

// AliveChannels returns how many output channels of a parameter retain at
// least one nonzero weight.
func AliveChannels(p *nn.Param) int {
	outC := p.W.Dim(0)
	per := p.W.Size() / outC
	alive := 0
	for c := 0; c < outC; c++ {
		for _, v := range p.W.Data[c*per : (c+1)*per] {
			if v != 0 {
				alive++
				break
			}
		}
	}
	return alive
}
