// Package nn is a from-scratch convolutional neural network library with
// full forward and backward passes. It provides everything the HuffDuff
// reproduction needs: training for victim/candidate models, input gradients
// for adversarial-example generation, and the forward pass the accelerator
// simulator's own inference is tested against. Only the standard library is
// used.
package nn

import (
	"fmt"

	"github.com/huffduff/huffduff/internal/tensor"
)

// Param is a trainable parameter with its gradient and an optional pruning
// mask. When Mask is non-nil, masked (zero) positions must stay zero; the
// optimizer re-applies the mask after every update and the layer applies it
// on every forward pass.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// Mask holds 0/1 entries with W's shape, or nil for a dense parameter.
	Mask *tensor.Tensor
	// Decay marks parameters subject to weight decay (conv/linear weights
	// but not biases or batch-norm affine terms).
	Decay bool
}

func newParam(name string, shape []int, decay bool) *Param {
	return &Param{
		Name:  name,
		W:     tensor.New(shape...),
		Grad:  tensor.New(shape...),
		Decay: decay,
	}
}

// ApplyMask zeroes masked weight entries. It is a no-op for dense params.
func (p *Param) ApplyMask() {
	if p.Mask == nil {
		return
	}
	p.W.MulInPlace(p.Mask)
}

// Sparsity returns the fraction of exactly-zero weights.
func (p *Param) Sparsity() float64 { return p.W.Sparsity(0) }

// Layer is a differentiable module. Forward must be called before Backward;
// layers cache whatever they need from the forward pass. A layer instance
// must appear at most once in a network.
type Layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward computes the layer output for a batched input. train selects
	// training-mode behaviour (e.g. batch statistics in BatchNorm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// convOut computes the output spatial size of a convolution/pool window.
func convOut(in, kernel, stride, pad int) int {
	out := (in+2*pad-kernel)/stride + 1
	if out < 1 {
		panic(fmt.Sprintf("nn: window %d stride %d pad %d does not fit input %d", kernel, stride, pad, in))
	}
	return out
}

// SamePad returns the padding that keeps spatial size fixed for stride 1
// ("same" padding, the TorchVision default the paper assumes).
func SamePad(kernel int) int { return (kernel - 1) / 2 }

// ConeSpan maps a span [lo, hi) of input positions along one axis to the
// span of output positions whose window reads any of them: the receptive
// field cone of a window of size kernel at the given stride and padding, on
// an axis of out outputs. A pool is a window whose kernel and stride are its
// size, with no padding. An empty span maps to the empty span (0, 0).
func ConeSpan(lo, hi, kernel, stride, pad, out int) (int, int) {
	if lo >= hi {
		return 0, 0
	}
	// Output o reads inputs [o*stride-pad, o*stride-pad+kernel).
	first := 0
	if a := lo + pad - kernel + 1; a > 0 {
		first = (a + stride - 1) / stride
	}
	last := min((hi-1+pad)/stride+1, out)
	if first >= last {
		return 0, 0
	}
	return first, last
}

// Rect is the half-open rectangle of cells [Y0, Y1) × [X0, X1) of a feature
// map.
type Rect struct{ Y0, Y1, X0, X1 int }

// Empty reports whether r holds no cell.
func (r Rect) Empty() bool { return r.Y0 >= r.Y1 || r.X0 >= r.X1 }

// Area returns the number of cells in r.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return (r.Y1 - r.Y0) * (r.X1 - r.X0)
}

// Union returns the bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	return Rect{min(r.Y0, o.Y0), max(r.Y1, o.Y1), min(r.X0, o.X0), max(r.X1, o.X1)}
}

// Cone returns the cells of an h×w output map whose window (size kernel, at
// stride, with pad cells of padding) reads a cell of r: ConeSpan on each
// axis, or the empty Rect{} if either span is empty.
func (r Rect) Cone(kernel, stride, pad, h, w int) Rect {
	y0, y1 := ConeSpan(r.Y0, r.Y1, kernel, stride, pad, h)
	x0, x1 := ConeSpan(r.X0, r.X1, kernel, stride, pad, w)
	if c := (Rect{y0, y1, x0, x1}); !c.Empty() {
		return c
	}
	return Rect{}
}
