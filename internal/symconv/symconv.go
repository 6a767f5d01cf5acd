// Package symconv is the symbolic convolution engine of §6.2. It evaluates a
// hypothesized layer geometry on symbolic probe inputs and predicts the
// pattern of output nnz equivalence classes (the ABCC… patterns of §5.4),
// which the prober compares against the classes observed on the DRAM bus.
//
// The engine works on single-channel symbolic grids: the boundary effect is
// agnostic to channel counts (§6.4), so one generic channel predicts the
// same equivalence classes as the victim's many.
//
// A probe differs from its family's background, the probe image without its
// feature patch, only inside the receptive-field cone of the patch. So the
// engine evaluates each distinct background once over the whole map and
// each probe only over the bounding rectangle of that cone (a Set), carried
// through every layer's kernel, stride, padding and pool with nn.Rect.Cone,
// the cone the simulator's incremental inference uses. A probe's signature
// sums its cells' hashes less its background's over that rectangle; it
// differs from the whole map's sum by one constant per family, so the
// predicted partitions are those of whole-map evaluation exactly.
//
// The engine's one question is whether two cells are equal for generic
// weights, and it answers it by evaluation rather than by building
// expressions. Every named variable takes a fixed pseudo-random value in
// the prime field GF(2⁶¹−1), and every cell is evaluated twice, under two
// independent keys. By the Schwartz–Zippel lemma two different polynomials
// of degree d agree at a random point with probability at most d/(2⁶¹−1),
// so equal values stand for equal expressions. The residual "different
// expressions but equal nnz" case is exactly the one-sided observability
// error the attack already tolerates (§5.4).
package symconv

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/probe"
)

// modulus is the field's, the Mersenne prime 2⁶¹−1.
const modulus = 1<<61 - 1

// keys are the two evaluations' keys. They are constants, so every run
// predicts the same patterns.
var keys = [2]uint64{0x243f6a8885a308d3, 0x13198a2e03707344}

// Value is one cell evaluated under each key.
type Value [len(keys)]uint64

// Grid holds the cells of an H×W single-channel symbolic feature map that
// lie in R, row by row. A background holds the whole map; a probe holds only
// the bounding rectangle of the cells its feature patch reaches.
type Grid struct {
	H, W  int
	R     nn.Rect
	Cells []Value
}

// At returns the cell at (y, x), which must lie in g.R.
func (g Grid) At(y, x int) Value { return g.Cells[(y-g.R.Y0)*(g.R.X1-g.R.X0)+x-g.R.X0] }

// Set is the symbolic feature maps of every probe of a list of probe
// families at one point of a network. A probe differs from its family's
// background, the probe image without its patch carried through the same
// layers, only inside the receptive-field cone of its patch. So a set holds
// each distinct background once, over the whole map, and each probe only
// over the bounding rectangle of that cone; the probe's cells outside it are
// the background's.
type Set struct {
	// Backgrounds are the distinct backgrounds; families whose probe images
	// without the patch are equal share one.
	Backgrounds []Grid
	// Of[f] indexes family f's background.
	Of []int
	// Probes[f][q] is probe q of family f.
	Probes [][]Grid
}

// Engine evaluates symbolic layers. Cells counts the grid cells it has
// evaluated, background and probe cells alike: the solver's deterministic
// cost measure.
type Engine struct {
	Cells int
	// bufs hold the windows apply copies a layer's inputs into, one per
	// input, reused across layers.
	bufs [2][]Value
}

// grid allocates the cells r of an h×w grid and counts them as evaluated.
func (e *Engine) grid(h, w int, r nn.Rect) Grid {
	n := r.Area()
	e.Cells += n
	return Grid{H: h, W: w, R: r, Cells: make([]Value, n)}
}

// Probes builds the symbolic input set of fams on an h×w image. A
// family's background has boundary-constant columns s_j and background b
// elsewhere; its probe i holds only the n×n feature patch f_dy_dx at
// column m+i. The same variables are used for every probe and family,
// mirroring how one Values instantiation is shared.
func (e *Engine) Probes(fams []probe.Pattern, h, w int) *Set {
	s := &Set{Of: make([]int, len(fams)), Probes: make([][]Grid, len(fams))}
	// The background depends only on M and, when M > 0, on the side its
	// columns are on.
	type side struct {
		m     int
		right bool
	}
	bgs := map[side]int{}
	for f, p := range fams {
		k := side{p.M, p.FromRight && p.M > 0}
		b, ok := bgs[k]
		if !ok {
			b = len(s.Backgrounds)
			bgs[k] = b
			s.Backgrounds = append(s.Backgrounds, e.background(p, h, w))
		}
		s.Of[f] = b
		patch := make([]Value, p.N*p.N)
		for dy := 0; dy < p.N; dy++ {
			for dx := 0; dx < p.N; dx++ {
				patch[dy*p.N+dx] = variable(fmt.Sprintf("f%d_%d", dy, dx))
			}
		}
		s.Probes[f] = make([]Grid, p.Q)
		for i := range s.Probes[f] {
			fc := p.FeatureCol(i, w)
			g := e.grid(h, w, nn.Rect{Y0: p.FeatRow, Y1: p.FeatRow + p.N, X0: fc, X1: fc + p.N})
			copy(g.Cells, patch)
			s.Probes[f][i] = g
		}
	}
	return s
}

// background returns the whole-map grid of p's probe images without the
// patch.
func (e *Engine) background(p probe.Pattern, h, w int) Grid {
	g := e.grid(h, w, nn.Rect{Y0: 0, Y1: h, X0: 0, X1: w})
	b := variable("b")
	for x := 0; x < w; x++ {
		v := b
		if !p.FromRight && x < p.M {
			v = variable(fmt.Sprintf("s%d", x))
		}
		if p.FromRight && x >= w-p.M {
			v = variable(fmt.Sprintf("s%d", w-1-x))
		}
		for y := 0; y < h; y++ {
			g.Cells[y*w+x] = v
		}
	}
	return g
}

// layer is one layer's geometry and arithmetic on an oh×ow output map.
type layer struct {
	oh, ow int
	// cone returns the output cells that read a cell of an input rectangle,
	// and reads the input cells that an output rectangle reads.
	cone, reads func(nn.Rect) nn.Rect
	// fill computes the cells out.R from inputs that hold at least the
	// cells reads(out.R).
	fill func(out Grid, in []Grid)
}

// apply evaluates l over its input sets ins, which derive from one input
// set. Each output grid holds the union of the cones of its inputs'
// rectangles. A background is evaluated by the same code as a probe, with
// the whole map as its rectangle.
func (e *Engine) apply(l layer, ins ...*Set) *Set {
	in0 := ins[0]
	for _, in := range ins[1:] {
		if !slices.Equal(in.Of, in0.Of) || len(in.Probes) != len(in0.Probes) {
			panic("symconv: layer inputs derive from different probe sets")
		}
	}
	gs, bgs, src := make([]Grid, len(ins)), make([]Grid, len(ins)), make([]Grid, len(ins))
	eval := func() Grid {
		var r nn.Rect
		for _, g := range gs {
			r = r.Union(l.cone(g.R))
		}
		out := e.grid(l.oh, l.ow, r)
		if !r.Empty() {
			for i := range gs {
				src[i] = window(gs[i], bgs[i], l.reads(r), &e.bufs[i])
			}
			l.fill(out, src)
		}
		return out
	}
	out := &Set{Backgrounds: make([]Grid, len(in0.Backgrounds)), Of: in0.Of, Probes: make([][]Grid, len(in0.Probes))}
	for b := range out.Backgrounds {
		for i, in := range ins {
			gs[i], bgs[i] = in.Backgrounds[b], in.Backgrounds[b]
		}
		out.Backgrounds[b] = eval()
	}
	for f, b := range in0.Of {
		out.Probes[f] = make([]Grid, len(in0.Probes[f]))
		for q := range out.Probes[f] {
			for i, in := range ins {
				gs[i], bgs[i] = in.Probes[f][q], in.Backgrounds[b]
			}
			out.Probes[f][q] = eval()
		}
	}
	return out
}

// window returns a grid holding the cells r of the map whose cells are g's
// inside g.R and bg's elsewhere: g itself if it holds r, else a copy in
// *buf, which it grows as needed.
func window(g, bg Grid, r nn.Rect, buf *[]Value) Grid {
	if r.Union(g.R) == g.R {
		return g
	}
	if cap(*buf) < r.Area() {
		*buf = make([]Value, r.Area())
	}
	out := Grid{H: g.H, W: g.W, R: r, Cells: (*buf)[:r.Area()]}
	rw := r.X1 - r.X0
	for y := r.Y0; y < r.Y1; y++ {
		row := out.Cells[(y-r.Y0)*rw : (y-r.Y0+1)*rw]
		copy(row, bg.Cells[y*bg.W+r.X0:y*bg.W+r.X1])
		if y < g.R.Y0 || y >= g.R.Y1 {
			continue
		}
		x0, x1 := max(r.X0, g.R.X0), min(r.X1, g.R.X1)
		if x0 < x1 {
			gw := g.R.X1 - g.R.X0
			base := (y-g.R.Y0)*gw - g.R.X0
			copy(row[x0-r.X0:x1-r.X0], g.Cells[base+x0:base+x1])
		}
	}
	return out
}

// dims returns the map size of s, which every grid of it shares.
func (s *Set) dims() (h, w int) { return s.Backgrounds[0].H, s.Backgrounds[0].W }

// windowLayer is a layer whose output cell (oy, ox) reads the kernel×kernel
// input window at (oy·stride−pad, ox·stride−pad), clipped to the h×w input;
// the output holds every window that starts inside the padded input and
// ends inside it.
func windowLayer(h, w, kernel, stride, pad int) layer {
	size := func(n int) int {
		if n+2*pad < kernel {
			return 0
		}
		return (n+2*pad-kernel)/stride + 1
	}
	oh, ow := size(h), size(w)
	return layer{
		oh: oh, ow: ow,
		cone: func(r nn.Rect) nn.Rect { return r.Cone(kernel, stride, pad, oh, ow) },
		reads: func(r nn.Rect) nn.Rect {
			return nn.Rect{
				Y0: max(r.Y0*stride-pad, 0), Y1: min((r.Y1-1)*stride-pad+kernel, h),
				X0: max(r.X0*stride-pad, 0), X1: min((r.X1-1)*stride-pad+kernel, w),
			}
		},
	}
}

// Conv applies a same-padded convolution with generic weights w_tag_dy_dx
// and bias b_tag; padding cells are zero and drop out of the sum.
// BatchNorm's affine and ReLU are omitted: both are injective on generic
// values per-position, so they never change the equivalence classes the
// engine predicts (§5.2 shows how the numeric side separates them).
func (e *Engine) Conv(s *Set, tag string, kernel, stride int) *Set {
	h, w := s.dims()
	pad := (kernel - 1) / 2
	// Weight variables are shared across all positions and probes.
	wv := make([]Value, kernel*kernel)
	for dy := 0; dy < kernel; dy++ {
		for dx := 0; dx < kernel; dx++ {
			wv[dy*kernel+dx] = variable(fmt.Sprintf("%s_w%d_%d", tag, dy, dx))
		}
	}
	bias := variable(tag + "_b")
	l := windowLayer(h, w, kernel, stride, pad)
	l.fill = func(out Grid, in []Grid) {
		src := in[0]
		sw := src.R.X1 - src.R.X0
		i := 0
		for oy := out.R.Y0; oy < out.R.Y1; oy++ {
			y0 := oy*stride - pad
			dy0, dy1 := max(0, -y0), min(kernel, h-y0)
			for ox := out.R.X0; ox < out.R.X1; ox++ {
				x0 := ox*stride - pad
				dx0, dx1 := max(0, -x0), min(kernel, w-x0)
				// The sum under each of the two keys, unrolled.
				a0, a1 := bias[0], bias[1]
				for dy := dy0; dy < dy1; dy++ {
					base := (y0+dy-src.R.Y0)*sw + x0 - src.R.X0
					row := src.Cells[base+dx0 : base+dx1]
					ws := wv[dy*kernel+dx0 : dy*kernel+dx1]
					ws = ws[:len(row)]
					for j, x := range row {
						a0 = add(a0, mul(ws[j][0], x[0]))
						a1 = add(a1, mul(ws[j][1], x[1]))
					}
				}
				out.Cells[i] = Value{a0, a1}
				i++
			}
		}
	}
	return e.apply(l, s)
}

// pool applies window×window pooling, whose output cell is the reduction
// of its window's cells under each key.
func (e *Engine) pool(s *Set, window int, reduce func(key uint64, l int, cells []Value) uint64) *Set {
	h, w := s.dims()
	l := windowLayer(h, w, window, window, 0)
	cells := make([]Value, 0, window*window)
	l.fill = func(out Grid, in []Grid) {
		src := in[0]
		i := 0
		for oy := out.R.Y0; oy < out.R.Y1; oy++ {
			for ox := out.R.X0; ox < out.R.X1; ox++ {
				cells = cells[:0]
				for dy := 0; dy < window; dy++ {
					for dx := 0; dx < window; dx++ {
						cells = append(cells, src.At(oy*window+dy, ox*window+dx))
					}
				}
				for l, key := range keys {
					out.Cells[i][l] = reduce(key, l, cells)
				}
				i++
			}
		}
	}
	return e.apply(l, s)
}

// MaxPool applies max pooling with window == stride.
func (e *Engine) MaxPool(s *Set, window int) *Set {
	if window <= 1 {
		return s
	}
	args := make([]uint64, 0, window*window)
	return e.pool(s, window, func(key uint64, l int, cells []Value) uint64 {
		args = args[:0]
		for _, c := range cells {
			args = append(args, c[l])
		}
		return maxOf(key, args)
	})
}

// AvgPool applies average pooling. Its inputs are ReLU outputs, and a sum of
// ReLU outputs depends on the multiset of the cells, not only on their sum;
// so each cell passes through the keyed hash, a generic nonlinearity,
// before the window is summed. The 1/w² factor is a global injective map
// and is dropped.
func (e *Engine) AvgPool(s *Set, window int) *Set {
	if window <= 1 {
		return s
	}
	return e.pool(s, window, func(key uint64, l int, cells []Value) uint64 {
		var acc uint64
		for _, c := range cells {
			acc = add(acc, hash(key, c[l]))
		}
		return acc
	})
}

// Add sums two sets elementwise (a residual connection); a probe's
// rectangle is the union of its inputs'.
func (e *Engine) Add(a, b *Set) *Set {
	ah, aw := a.dims()
	bh, bw := b.dims()
	if ah != bh || aw != bw {
		panic(fmt.Sprintf("symconv: Add shape mismatch %dx%d vs %dx%d", ah, aw, bh, bw))
	}
	same := func(r nn.Rect) nn.Rect { return r }
	return e.apply(layer{oh: ah, ow: aw, cone: same, reads: same, fill: func(out Grid, in []Grid) {
		i := 0
		for y := out.R.Y0; y < out.R.Y1; y++ {
			for x := out.R.X0; x < out.R.X1; x++ {
				u, v := in[0].At(y, x), in[1].At(y, x)
				for l := range u {
					u[l] = add(u[l], v[l])
				}
				out.Cells[i] = u
				i++
			}
		}
	}}, a, b)
}

// Pattern returns the predicted class pattern over probe positions: two
// positions share a class when their signatures agree in every family.
// Every family must have the same number of probes.
func (s *Set) Pattern() []int {
	type key struct {
		class int
		sig   Value
	}
	var pat []int
	for f, probes := range s.Probes {
		bg := s.Backgrounds[s.Of[f]]
		keys := make([]key, len(probes))
		for q, g := range probes {
			keys[q].sig = signature(g, bg)
			if pat != nil {
				keys[q].class = pat[q]
			}
		}
		pat = ClassPattern(keys)
	}
	return pat
}

// signature fingerprints the multiset of a probe's cell values. The
// multiset's fingerprint is the sum of its hashed cells, which no cell order
// changes; the probe's cells outside g.R are its background's, so the sum
// less the background's own is the sum over g.R of each cell's hash less
// its background cell's. It differs from the whole map's sum by a constant
// of the background, so probes of one family with equal signatures have
// (generically) equal nnz.
func signature(g, bg Grid) Value {
	var sig Value
	for y := g.R.Y0; y < g.R.Y1; y++ {
		for x := g.R.X0; x < g.R.X1; x++ {
			c, b := g.At(y, x), bg.At(y, x)
			for l, key := range keys {
				sig[l] = sub(add(sig[l], hash(key, c[l])), hash(key, b[l]))
			}
		}
	}
	return sig
}

// variable returns the value of the named variable under each key: the
// keyed hash of the name's FNV-1a digest.
func variable(name string) Value {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	var v Value
	for l, key := range keys {
		v[l] = hash(key, h)
	}
	return v
}

// maxOf is the value of a max node: a keyed hash of its sorted, distinct
// arguments, so it depends on which values meet but not on their order or
// multiplicity. A single distinct value passes through, as max(a, a) = a.
// It sorts args in place.
func maxOf(key uint64, args []uint64) uint64 {
	slices.Sort(args)
	args = slices.Compact(args)
	if len(args) == 1 {
		return args[0]
	}
	h := key
	for _, a := range args {
		h = hash(h, a)
	}
	return h
}

// hash is a keyed hash of a word into the field.
func hash(key, v uint64) uint64 { return mix(key^v) % modulus }

// mix is the splitmix64 finalizer, a bijective scrambler of 64-bit words.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// add returns a+b mod 2⁶¹−1 for a, b < 2⁶¹−1.
func add(a, b uint64) uint64 {
	s := a + b
	if s >= modulus {
		s -= modulus
	}
	return s
}

// sub returns a−b mod 2⁶¹−1 for a, b < 2⁶¹−1.
func sub(a, b uint64) uint64 {
	if a < b {
		return a + modulus - b
	}
	return a - b
}

// mul returns a·b mod P for a, b < P = 2⁶¹−1. With a·b = q·2⁶¹ + r and
// 2⁶¹ ≡ 1 (mod P), a·b ≡ q + r, and q + r < 2P because a·b ≤ (P−1)².
func mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	s := (hi<<3 | lo>>61) + lo&modulus
	if s >= modulus {
		s -= modulus
	}
	return s
}

// ClassPattern converts a sequence of comparable observations into a
// canonical class-label pattern: the first distinct value becomes class 0,
// the next class 1, and so on (ABCC → [0 1 2 2]).
func ClassPattern[T comparable](vals []T) []int {
	classes := make(map[T]int)
	out := make([]int, len(vals))
	for i, v := range vals {
		c, ok := classes[v]
		if !ok {
			c = len(classes)
			classes[v] = c
		}
		out[i] = c
	}
	return out
}

// Refines reports whether partition p refines partition q (p makes at least
// q's distinctions: p_i == p_j implies q_i == q_j). A hypothesis's predicted
// pattern must refine the observed one, because expression equality forces
// nnz equality but not vice versa (the one-sided error of §5.4).
func Refines(p, q []int) bool {
	if len(p) != len(q) {
		return false
	}
	// For each p-class remember the q-class of its first member.
	rep := make(map[int]int)
	for i := range p {
		if qc, ok := rep[p[i]]; ok {
			if qc != q[i] {
				return false
			}
		} else {
			rep[p[i]] = q[i]
		}
	}
	return true
}

// SamePartition reports whether two label sequences induce the same
// partition.
func SamePartition(p, q []int) bool { return Refines(p, q) && Refines(q, p) }

// NumClasses returns the number of distinct classes in a pattern.
func NumClasses(p []int) int {
	seen := make(map[int]bool)
	for _, c := range p {
		seen[c] = true
	}
	return len(seen)
}

// PatternString renders a class pattern as letters (ABCC…), the notation
// used throughout the paper.
func PatternString(p []int) string {
	var b strings.Builder
	for _, c := range p {
		if c < 26 {
			b.WriteByte(byte('A' + c))
		} else {
			fmt.Fprintf(&b, "<%d>", c)
		}
	}
	return b.String()
}
