package nn

import (
	"fmt"
	"math/rand"

	"github.com/huffduff/huffduff/internal/tensor"
)

// Conv2D is a 2-d convolution over NCHW tensors with square kernels,
// symmetric stride and padding, optional bias, and channel groups
// (Groups == InC gives a depthwise convolution, as used by MobileNetV2).
type Conv2D struct {
	InC, OutC int
	Kernel    int
	Stride    int
	Pad       int
	Groups    int

	Weight *Param // shape [OutC, InC/Groups, Kernel, Kernel]
	Bias   *Param // shape [OutC], nil when the layer has no bias

	lastX *tensor.Tensor
	// cols is im2col's column matrix, kept between calls: a victim
	// inference would otherwise allocate one per conv layer, most of the
	// simulator's garbage.
	cols []float64
}

// NewConv2D constructs a convolution with Kaiming-initialized weights.
// Pass bias=false for convolutions followed by BatchNorm.
func NewConv2D(rng *rand.Rand, inC, outC, kernel, stride, pad, groups int, bias bool) *Conv2D {
	if groups < 1 || inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: invalid groups %d for channels %d->%d", groups, inC, outC))
	}
	c := &Conv2D{
		InC: inC, OutC: outC,
		Kernel: kernel, Stride: stride, Pad: pad, Groups: groups,
	}
	c.Weight = newParam("conv.weight", []int{outC, inC / groups, kernel, kernel}, true)
	c.Weight.W.KaimingInit(rng, (inC/groups)*kernel*kernel)
	if bias {
		c.Bias = newParam("conv.bias", []int{outC}, false)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,s%d,p%d,g%d)", c.Kernel, c.Kernel, c.InC, c.OutC, c.Stride, c.Pad, c.Groups)
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.Bias == nil {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}

// OutSize returns the output spatial dimensions for an h×w input.
func (c *Conv2D) OutSize(h, w int) (int, int) {
	return convOut(h, c.Kernel, c.Stride, c.Pad), convOut(w, c.Kernel, c.Stride, c.Pad)
}

// im2col expands one sample's group-slice of input into a
// [cg*K*K, P*Q] column matrix, which the layer's next im2col overwrites.
// x is the full [C,H,W] sample.
func (c *Conv2D) im2col(x *tensor.Tensor, n, g, p, q int) *tensor.Tensor {
	cg := c.InC / c.Groups
	k := c.Kernel
	h, w := x.Dim(2), x.Dim(3)
	if size := cg * k * k * p * q; cap(c.cols) < size {
		c.cols = make([]float64, size)
	} else {
		c.cols = c.cols[:size]
		clear(c.cols)
	}
	cols := tensor.FromSlice(c.cols, cg*k*k, p*q)
	for cc := 0; cc < cg; cc++ {
		srcC := g*cg + cc
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (cc*k+ky)*k + kx
				dst := cols.Data[row*p*q:]
				for oy := 0; oy < p; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						continue // padding region stays zero
					}
					for ox := 0; ox < q; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= w {
							continue
						}
						dst[oy*q+ox] = x.At4(n, srcC, iy, ix)
					}
				}
			}
		}
	}
	return cols
}

// col2im scatter-adds a [cg*K*K, P*Q] column gradient back into the input
// gradient for sample n, group g.
func (c *Conv2D) col2im(cols *tensor.Tensor, gradX *tensor.Tensor, n, g, p, q int) {
	cg := c.InC / c.Groups
	k := c.Kernel
	h, w := gradX.Dim(2), gradX.Dim(3)
	for cc := 0; cc < cg; cc++ {
		dstC := g*cg + cc
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (cc*k+ky)*k + kx
				src := cols.Data[row*p*q:]
				for oy := 0; oy < p; oy++ {
					iy := oy*c.Stride + ky - c.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < q; ox++ {
						ix := ox*c.Stride + kx - c.Pad
						if ix < 0 || ix >= w {
							continue
						}
						gradX.Set4(gradX.At4(n, dstC, iy, ix)+src[oy*q+ox], n, dstC, iy, ix)
					}
				}
			}
		}
	}
}

// weightMatrix views the weights of group g as [outCg, cg*K*K].
func (c *Conv2D) weightMatrix(g int) *tensor.Tensor {
	outCg := c.OutC / c.Groups
	cg := c.InC / c.Groups
	k := c.Kernel
	flat := c.Weight.W.Data[g*outCg*cg*k*k : (g+1)*outCg*cg*k*k]
	return tensor.FromSlice(flat, outCg, cg*k*k)
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NumDims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input %v", c.Name(), x.Shape()))
	}
	c.Weight.ApplyMask()
	c.lastX = x
	nB, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	p, q := c.OutSize(h, w)
	out := tensor.New(nB, c.OutC, p, q)
	outCg := c.OutC / c.Groups
	for n := 0; n < nB; n++ {
		for g := 0; g < c.Groups; g++ {
			cols := c.im2col(x, n, g, p, q)
			// This sample's group of output channels is one [outCg, P*Q] block.
			lo := (n*c.OutC + g*outCg) * p * q
			dst := tensor.FromSlice(out.Data[lo:lo+outCg*p*q], outCg, p*q)
			tensor.MatMulInto(dst, c.weightMatrix(g), cols)
		}
	}
	if c.Bias != nil {
		for n := 0; n < nB; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				b := c.Bias.W.Data[oc]
				dst := out.Data[(n*c.OutC+oc)*p*q : (n*c.OutC+oc+1)*p*q]
				for i := range dst {
					dst[i] += b
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastX
	if x == nil {
		panic("nn: Conv2D.Backward before Forward")
	}
	nB, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	p, q := c.OutSize(h, w)
	gradX := tensor.New(x.Shape()...)
	outCg := c.OutC / c.Groups
	cg := c.InC / c.Groups
	k := c.Kernel
	for n := 0; n < nB; n++ {
		for g := 0; g < c.Groups; g++ {
			cols := c.im2col(x, n, g, p, q)
			// Gradient w.r.t. output for this sample/group as [outCg, P*Q].
			gm := tensor.New(outCg, p*q)
			for oc := 0; oc < outCg; oc++ {
				src := grad.Data[(n*c.OutC+g*outCg+oc)*p*q : (n*c.OutC+g*outCg+oc+1)*p*q]
				copy(gm.Data[oc*p*q:(oc+1)*p*q], src)
			}
			// dW += gm · colsᵀ
			dW := tensor.MatMul(gm, tensor.Transpose(cols))
			gFlat := c.Weight.Grad.Data[g*outCg*cg*k*k : (g+1)*outCg*cg*k*k]
			for i, v := range dW.Data {
				gFlat[i] += v
			}
			// dX via Wᵀ · gm scattered back
			wm := c.weightMatrix(g)
			dCols := tensor.MatMul(tensor.Transpose(wm), gm)
			c.col2im(dCols, gradX, n, g, p, q)
		}
	}
	if c.Bias != nil {
		for n := 0; n < nB; n++ {
			for oc := 0; oc < c.OutC; oc++ {
				src := grad.Data[(n*c.OutC+oc)*p*q : (n*c.OutC+oc+1)*p*q]
				s := 0.0
				for _, v := range src {
					s += v
				}
				c.Bias.Grad.Data[oc] += s
			}
		}
	}
	// Masked weights must not receive gradient updates.
	if c.Weight.Mask != nil {
		c.Weight.Grad.MulInPlace(c.Weight.Mask)
	}
	return gradX
}
