package nn

import (
	"fmt"
	"math"

	"github.com/huffduff/huffduff/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor. In training mode it
// uses batch statistics and maintains running estimates; in eval mode it
// applies the running statistics, which is what the deployed victim does on
// the accelerator (the paper folds this into the post-processing unit).
type BatchNorm2D struct {
	C        int
	Eps      float64
	Momentum float64

	Gamma *Param
	Beta  *Param

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	// forward cache
	lastX     *tensor.Tensor
	lastXHat  *tensor.Tensor
	lastMean  []float64
	lastInvSD []float64
	lastTrain bool
}

// NewBatchNorm2D constructs a batch norm with gamma=1, beta=0.
func NewBatchNorm2D(c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		Gamma:       newParam("bn.gamma", []int{c}, false),
		Beta:        newParam("bn.beta", []int{c}, false),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.New(c),
	}
	bn.Gamma.W.Fill(1)
	bn.RunningVar.Fill(1)
	return bn
}

// Name implements Layer.
func (bn *BatchNorm2D) Name() string { return fmt.Sprintf("bn(%d)", bn.C) }

// Params implements Layer.
func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Forward implements Layer.
func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: %s got input %v", bn.Name(), x.Shape()))
	}
	nB, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	cnt := nB * h * w
	out := tensor.New(x.Shape()...)

	mean := make([]float64, bn.C)
	invSD := make([]float64, bn.C)
	if train {
		for c := 0; c < bn.C; c++ {
			var sum float64
			for n := 0; n < nB; n++ {
				base := (n*bn.C + c) * h * w
				for _, v := range x.Data[base : base+h*w] {
					sum += v
				}
			}
			m := sum / float64(cnt)
			var sq float64
			for n := 0; n < nB; n++ {
				base := (n*bn.C + c) * h * w
				for _, v := range x.Data[base : base+h*w] {
					d := v - m
					sq += d * d
				}
			}
			v := sq / float64(cnt)
			mean[c] = m
			invSD[c] = 1 / math.Sqrt(v+bn.Eps)
			bn.RunningMean.Data[c] = (1-bn.Momentum)*bn.RunningMean.Data[c] + bn.Momentum*m
			bn.RunningVar.Data[c] = (1-bn.Momentum)*bn.RunningVar.Data[c] + bn.Momentum*v
		}
	} else {
		for c := 0; c < bn.C; c++ {
			mean[c] = bn.RunningMean.Data[c]
			invSD[c] = 1 / math.Sqrt(bn.RunningVar.Data[c]+bn.Eps)
		}
	}

	xhat := tensor.New(x.Shape()...)
	for n := 0; n < nB; n++ {
		for c := 0; c < bn.C; c++ {
			base := (n*bn.C + c) * h * w
			g, b := bn.Gamma.W.Data[c], bn.Beta.W.Data[c]
			m, is := mean[c], invSD[c]
			for i := base; i < base+h*w; i++ {
				xh := (x.Data[i] - m) * is
				xhat.Data[i] = xh
				out.Data[i] = g*xh + b
			}
		}
	}

	bn.lastX = x
	bn.lastXHat = xhat
	bn.lastMean = mean
	bn.lastInvSD = invSD
	bn.lastTrain = train
	return out
}

// Backward implements Layer. After a training-mode forward it uses the
// standard batch-norm gradient (statistics depend on the batch); after an
// eval-mode forward (fixed running statistics, as in adversarial-example
// generation) the normalization is a constant affine map and the plain
// chain rule applies.
func (bn *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := bn.lastX
	if x == nil {
		panic("nn: BatchNorm2D.Backward before Forward")
	}
	nB, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	cnt := float64(nB * h * w)
	gradX := tensor.New(x.Shape()...)

	for c := 0; c < bn.C; c++ {
		g := bn.Gamma.W.Data[c]
		is := bn.lastInvSD[c]
		var sumDy, sumDyXhat float64
		for n := 0; n < nB; n++ {
			base := (n*bn.C + c) * h * w
			for i := base; i < base+h*w; i++ {
				dy := grad.Data[i]
				sumDy += dy
				sumDyXhat += dy * bn.lastXHat.Data[i]
			}
		}
		bn.Beta.Grad.Data[c] += sumDy
		bn.Gamma.Grad.Data[c] += sumDyXhat
		for n := 0; n < nB; n++ {
			base := (n*bn.C + c) * h * w
			for i := base; i < base+h*w; i++ {
				dy := grad.Data[i]
				if bn.lastTrain {
					xh := bn.lastXHat.Data[i]
					gradX.Data[i] = g * is * (dy - sumDy/cnt - xh*sumDyXhat/cnt)
				} else {
					gradX.Data[i] = g * is * dy
				}
			}
		}
	}
	return gradX
}
