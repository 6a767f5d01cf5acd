package accel

import (
	"math"
	"slices"

	"github.com/huffduff/huffduff/internal/models"
	"github.com/huffduff/huffduff/internal/nn"
)

// The simulator computes every inference itself, from an inference plan it
// builds at a Machine's first run; nn.Network.Forward is the training path
// and the tests' oracle. The plan owns one activation buffer per unit and
// recomputes only what its input changed.
//
// Consecutive probe images differ only where the feature patch moved, so
// each run compares its input with the last one bit for bit and, unit by
// unit, recomputes only the output cells whose receptive field touches a
// changed cell: Krypton's incremental inference (Nakandala, Kumar and
// Papakonstantinou, SIGMOD 2019). Each unit carries one bounding rectangle
// of changed cells, shared by all its channels, through its kernel, stride,
// padding and pool; an add takes the union of its inputs' rectangles and a
// linear layer recomputes every output if any input changed. A fully changed
// input runs the same code with the whole map as its rectangle. Cells outside
// the rectangle keep the last run's values, which is exact because
// everything they read is bitwise unchanged, and so a unit's nonzero count
// changes only by what changed inside its rectangle.
//
// The arithmetic is nn's eval-mode forward pass, equal bit for bit up to
// the sign of a zero, which ReLU, nnz counts, every codec and the zero-pad
// defence ignore:
//   - a conv output sums its filter's nonzero weights times their inputs in
//     (c, ky, kx) order, as tensor.MatMul does when it skips zero weights,
//     then adds the bias. A tap on padding reads a zero of the conv's
//     zero-bordered input copy and adds w·0, as MatMul does; adding ±0
//     leaves a nonzero partial sum unchanged, so only a zero sum's sign
//     can differ;
//   - batch norm is g*((x-m)*is)+b with is = 1/√(var+eps), exactly as
//     nn.BatchNorm2D computes it in eval mode. A folded scale and shift
//     rounds differently;
//   - ReLU, max pool, add, average pool and linear use nn's operations in
//     nn's order; a linear output sums x·w over the nonzero inputs in input
//     order, then adds the bias.

// fmap is a C×H×W activation buffer, with the cells the current run
// recomputed and its nonzero count.
type fmap struct {
	data    []float64
	c, h, w int
	dirty   nn.Rect
	nnz     int
}

func newFmap(c, h, w int) fmap {
	return fmap{data: make([]float64, c*h*w), c: c, h: h, w: w}
}

// nnzIn returns the number of nonzeros in the cells r of every channel.
func (f *fmap) nnzIn(r nn.Rect) int {
	n := 0
	for k := 0; k < f.c; k++ {
		for y := r.Y0; y < r.Y1; y++ {
			for _, v := range f.data[(k*f.h+y)*f.w+r.X0 : (k*f.h+y)*f.w+r.X1] {
				if v != 0 {
					n++
				}
			}
		}
	}
	return n
}

// density is 1 - tensor.Sparsity(0), evaluated the same way.
func (f *fmap) density() float64 {
	return 1 - (1 - float64(f.nnz)/float64(len(f.data)))
}

// op is a unit's computation.
type op interface {
	// reach returns the output cells whose inputs include a changed cell.
	reach(in []*fmap) nn.Rect
	// run computes the cells out.dirty, which reach returned.
	run(in []*fmap, out *fmap)
}

// plan is a deployed network's inference plan.
type plan struct {
	units []planUnit
	// input is the current run's image; its data aliases the caller's
	// tensor during a run.
	input fmap
	// last is the input of the last complete run, and valid says that it
	// and every unit buffer belong to that run.
	last  []float64
	valid bool
}

type planUnit struct {
	op  op
	in  []*fmap
	out fmap
	// psums is the dense psum count entering the encoder.
	psums int
	// denseMACs and wDensity are a conv's dense MAC count and nonzero
	// weight fraction (0 for other units).
	denseMACs, wDensity float64
}

// newPlan builds the inference plan of a deployed network, reading its
// weights once.
func newPlan(arch *models.Arch, bind *models.Binding) (*plan, error) {
	shapes, err := arch.Shapes()
	if err != nil {
		return nil, err
	}
	p := &plan{
		units: make([]planUnit, len(arch.Units)),
		input: newFmap(arch.InC, arch.InH, arch.InW),
		last:  make([]float64, arch.InC*arch.InH*arch.InW),
	}
	for i, u := range arch.Units {
		pu := &p.units[i]
		for _, id := range u.In {
			if id == models.InputID {
				pu.in = append(pu.in, &p.input)
			} else {
				pu.in = append(pu.in, &p.units[id].out)
			}
		}
		s := shapes[i]
		pu.out = newFmap(s.C, s.H, s.W)
		pu.psums = len(pu.out.data)
		switch u.Kind {
		case models.UnitConv:
			c := newConvOp(bind.Conv[i], bind.BN[i], u, pu.in[0])
			pu.op = c
			pu.psums = c.outC * c.h * c.w
			if c.pool == 1 {
				c.pre = &pu.out
			}
			conv := bind.Conv[i]
			pu.denseMACs = float64(pu.psums) * float64(conv.InC/max(1, conv.Groups)) * float64(conv.Kernel*conv.Kernel)
			pu.wDensity = 1 - (1 - float64(len(c.taps))/float64(conv.Weight.W.Size()))
		case models.UnitAdd:
			pu.op = addOp{relu: u.ReLU}
		case models.UnitAvgPool:
			pu.op = avgPoolOp{pool: u.Pool}
		case models.UnitLinear:
			fc := bind.FC[i]
			pu.op = &linearOp{
				in:   fc.In,
				w:    slices.Clone(fc.Weight.W.Data),
				bias: slices.Clone(fc.Bias.W.Data),
				relu: u.ReLU,
			}
			pu.psums = fc.Out
		}
	}
	return p, nil
}

// begin starts a run on img: the input's changed cells are those that
// differ from the last complete run's input, or all of them. Until commit,
// the plan's buffers belong to no complete run.
func (p *plan) begin(img []float64) {
	in := &p.input
	in.data = img
	all := nn.Rect{Y0: 0, Y1: in.h, X0: 0, X1: in.w}
	in.dirty = all
	if p.valid {
		in.dirty = p.changed(img)
	}
	p.valid = false
	in.nnz = in.nnzIn(all)
}

// changed returns the bounding rectangle of the cells, in any channel, whose
// bits differ between img and the last input.
func (p *plan) changed(img []float64) nn.Rect {
	in := &p.input
	r := nn.Rect{}
	for c := 0; c < in.c; c++ {
		for y := 0; y < in.h; y++ {
			row := (c*in.h + y) * in.w
			x0, x1 := -1, -1
			for x := 0; x < in.w; x++ {
				if math.Float64bits(img[row+x]) != math.Float64bits(p.last[row+x]) {
					if x0 < 0 {
						x0 = x
					}
					x1 = x + 1
				}
			}
			if x0 >= 0 {
				r = r.Union(nn.Rect{Y0: y, Y1: y + 1, X0: x0, X1: x1})
			}
		}
	}
	return r
}

// run computes unit i and updates its output's nonzero count over the
// cells it recomputed.
func (p *plan) run(i int) {
	u := &p.units[i]
	r := u.op.reach(u.in)
	u.out.nnz -= u.out.nnzIn(r)
	u.out.dirty = r
	u.op.run(u.in, &u.out)
	u.out.nnz += u.out.nnzIn(r)
}

// commit ends a run in which every unit was computed: the input becomes the
// one the next run compares with.
func (p *plan) commit() {
	copy(p.last, p.input.data)
	p.input.data = p.last
	p.valid = true
}

// macs returns unit i's dense and effectual MAC counts for this run (0, 0
// for units without MACs): a zero-skipping PE array performs the dense
// count scaled by the weight and input activation densities.
func (p *plan) macs(i int) (dense, effectual float64) {
	u := &p.units[i]
	if u.denseMACs == 0 {
		return 0, 0
	}
	return u.denseMACs, u.denseMACs * u.wDensity * u.in[0].density()
}

// tap is one nonzero conv weight w and the offset pos, in its conv's padded
// input, of the cell it reads from the first cell of an output's window.
type tap struct {
	pos int
	w   float64
}

// convOp is conv, then bias, batch norm and ReLU, then max pool.
type convOp struct {
	outC, kernel, stride, pad, pool int
	// taps holds the nonzero weights filter by filter, each filter's in
	// (c, ky, kx) order; filter k's are taps[start[k]:start[k+1]].
	taps  []tap
	start []int
	bias  []float64 // nil without a bias
	// Batch norm's parameters and 1/√(var+eps); gamma is nil without one.
	gamma, beta, mean, invSD []float64
	relu                     bool
	// pre holds the h×w conv outputs before pooling; it is the unit's
	// output when pool is 1.
	pre  *fmap
	h, w int
	// padded is the input with pad zero cells on every side, rows pw cells
	// wide; each run refreshes it over the cells its producer recomputed.
	// It is nil when pad is 0: the conv then reads its input directly.
	padded []float64
	pw     int
}

func newConvOp(conv *nn.Conv2D, bn *nn.BatchNorm2D, u models.Unit, in *fmap) *convOp {
	c := &convOp{
		outC: conv.OutC, kernel: conv.Kernel, stride: conv.Stride, pad: conv.Pad, pool: u.Pool,
		start: make([]int, conv.OutC+1),
		relu:  u.ReLU,
		pw:    in.w + 2*conv.Pad,
	}
	c.h, c.w = conv.OutSize(in.h, in.w)
	if c.pool > 1 {
		pre := newFmap(c.outC, c.h, c.w)
		c.pre = &pre
	}
	ph := in.h + 2*c.pad
	if c.pad > 0 {
		c.padded = make([]float64, in.c*ph*c.pw)
	}
	k, cg := conv.Kernel, conv.InC/conv.Groups
	outCg := conv.OutC / conv.Groups
	w := conv.Weight.W.Data
	nnz := 0
	for _, v := range w {
		if v != 0 {
			nnz++
		}
	}
	c.taps = make([]tap, 0, nnz)
	for oc := 0; oc < conv.OutC; oc++ {
		first := oc / outCg * cg // the filter's first input channel
		for cc := 0; cc < cg; cc++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					if v := w[((oc*cg+cc)*k+ky)*k+kx]; v != 0 {
						c.taps = append(c.taps, tap{pos: ((first+cc)*ph+ky)*c.pw + kx, w: v})
					}
				}
			}
		}
		c.start[oc+1] = len(c.taps)
	}
	if conv.Bias != nil {
		c.bias = slices.Clone(conv.Bias.W.Data)
	}
	if bn != nil {
		c.gamma = slices.Clone(bn.Gamma.W.Data)
		c.beta = slices.Clone(bn.Beta.W.Data)
		c.mean = slices.Clone(bn.RunningMean.Data)
		c.invSD = make([]float64, bn.C)
		for i, v := range bn.RunningVar.Data {
			c.invSD[i] = 1 / math.Sqrt(v+bn.Eps)
		}
	}
	return c
}

func (c *convOp) reach(in []*fmap) nn.Rect {
	r := in[0].dirty.Cone(c.kernel, c.stride, c.pad, c.h, c.w)
	if c.pool > 1 {
		r = r.Cone(c.pool, c.pool, 0, c.h/c.pool, c.w/c.pool)
	}
	return r
}

func (c *convOp) run(in []*fmap, out *fmap) {
	src := in[0].data
	if c.padded != nil {
		c.refresh(in[0])
		src = c.padded
	}
	pre := c.pre
	pre.dirty = in[0].dirty.Cone(c.kernel, c.stride, c.pad, c.h, c.w)
	if !pre.dirty.Empty() {
		c.conv(src, pre.dirty)
	}
	if c.pool > 1 {
		maxPool(pre, out, c.pool)
	}
}

// refresh copies the cells in recomputed into the padded copy of in.
func (c *convOp) refresh(in *fmap) {
	r := in.dirty
	ph := in.h + 2*c.pad
	for ch := 0; ch < in.c; ch++ {
		for y := r.Y0; y < r.Y1; y++ {
			row := in.data[(ch*in.h+y)*in.w:]
			copy(c.padded[(ch*ph+y+c.pad)*c.pw+c.pad+r.X0:], row[r.X0:r.X1])
		}
	}
}

// conv computes the cells r of every channel of c.pre from src, the padded
// input. It sums each block of four adjacent cells of a row in registers,
// over one pass of the filter's taps, and the row's last cells one by one.
func (c *convOp) conv(src []float64, r nn.Rect) {
	out := c.pre
	plane := out.h * out.w
	s, pw := c.stride, c.pw
	for k := 0; k < c.outC; k++ {
		taps := c.taps[c.start[k]:c.start[k+1]]
		dst := out.data[k*plane : (k+1)*plane]
		for y := r.Y0; y < r.Y1; y++ {
			row := dst[y*out.w+r.X0 : y*out.w+r.X1]
			// at is the padded input's offset of row[j]'s window.
			at := y*s*pw + r.X0*s
			j := 0
			for ; j+4 <= len(row); j, at = j+4, at+4*s {
				var a0, a1, a2, a3 float64
				if s == 1 {
					for _, t := range taps {
						x := src[at+t.pos : at+t.pos+4]
						a0 += t.w * x[0]
						a1 += t.w * x[1]
						a2 += t.w * x[2]
						a3 += t.w * x[3]
					}
				} else {
					for _, t := range taps {
						x := src[at+t.pos:]
						a0 += t.w * x[0]
						a1 += t.w * x[s]
						a2 += t.w * x[2*s]
						a3 += t.w * x[3*s]
					}
				}
				row[j], row[j+1], row[j+2], row[j+3] = a0, a1, a2, a3
			}
			for ; j < len(row); j, at = j+1, at+s {
				a := 0.0
				for _, t := range taps {
					a += t.w * src[at+t.pos]
				}
				row[j] = a
			}
			for j, v := range row {
				if c.bias != nil {
					v += c.bias[k]
				}
				if c.gamma != nil {
					v = c.gamma[k]*((v-c.mean[k])*c.invSD[k]) + c.beta[k]
				}
				if c.relu && !(v > 0) {
					v = 0
				}
				row[j] = v
			}
		}
	}
}

// maxPool computes out's dirty cells as the maxima of their p×p windows
// of in.
func maxPool(in, out *fmap, p int) {
	r := out.dirty
	for k := 0; k < out.c; k++ {
		src := in.data[k*in.h*in.w : (k+1)*in.h*in.w]
		dst := out.data[k*out.h*out.w : (k+1)*out.h*out.w]
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				best := math.Inf(-1)
				for dy := 0; dy < p; dy++ {
					for _, v := range src[(y*p+dy)*in.w+x*p : (y*p+dy)*in.w+x*p+p] {
						if v > best {
							best = v
						}
					}
				}
				dst[y*out.w+x] = best
			}
		}
	}
}

// addOp is an elementwise residual sum, then ReLU.
type addOp struct{ relu bool }

func (addOp) reach(in []*fmap) nn.Rect { return in[0].dirty.Union(in[1].dirty) }

func (a addOp) run(in []*fmap, out *fmap) {
	r := out.dirty
	for k := 0; k < out.c; k++ {
		for y := r.Y0; y < r.Y1; y++ {
			lo, hi := (k*out.h+y)*out.w+r.X0, (k*out.h+y)*out.w+r.X1
			b := in[1].data[lo:hi]
			for j, v := range in[0].data[lo:hi] {
				v += b[j]
				if a.relu && !(v > 0) {
					v = 0
				}
				out.data[lo+j] = v
			}
		}
	}
}

// avgPoolOp averages pool×pool windows.
type avgPoolOp struct{ pool int }

func (a avgPoolOp) reach(in []*fmap) nn.Rect {
	return in[0].dirty.Cone(a.pool, a.pool, 0, in[0].h/a.pool, in[0].w/a.pool)
}

func (a avgPoolOp) run(in []*fmap, out *fmap) {
	src, p, r := in[0], a.pool, out.dirty
	norm := 1.0 / float64(p*p)
	for k := 0; k < out.c; k++ {
		plane := src.data[k*src.h*src.w : (k+1)*src.h*src.w]
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				s := 0.0
				for dy := 0; dy < p; dy++ {
					for _, v := range plane[(y*p+dy)*src.w+x*p : (y*p+dy)*src.w+x*p+p] {
						s += v
					}
				}
				out.data[(k*out.h+y)*out.w+x] = s * norm
			}
		}
	}
}

// linearOp is a fully connected layer over the flattened input, then ReLU.
type linearOp struct {
	in      int
	w, bias []float64 // w is [out, in]
	relu    bool
}

// reach is the whole 1×1 output if any input changed.
func (l *linearOp) reach(in []*fmap) nn.Rect {
	if in[0].dirty.Empty() {
		return nn.Rect{}
	}
	return nn.Rect{Y0: 0, Y1: 1, X0: 0, X1: 1}
}

func (l *linearOp) run(in []*fmap, out *fmap) {
	x := in[0]
	if out.dirty.Empty() {
		return
	}
	for j := range out.data {
		row := l.w[j*l.in : (j+1)*l.in]
		s := 0.0
		for i, v := range x.data {
			if v != 0 {
				s += v * row[i]
			}
		}
		v := s + l.bias[j]
		if l.relu && !(v > 0) {
			v = 0
		}
		out.data[j] = v
	}
}
