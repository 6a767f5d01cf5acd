// Package symconv is the symbolic convolution engine of §6.2. It evaluates a
// hypothesized layer geometry on symbolic probe inputs and predicts the
// pattern of output nnz equivalence classes (the ABCC… patterns of §5.4),
// which the prober compares against the classes observed on the DRAM bus.
//
// The engine works on single-channel symbolic grids: the boundary effect is
// agnostic to channel counts (§6.4), so one generic channel predicts the
// same equivalence classes as the victim's many.
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

	"github.com/huffduff/huffduff/internal/probe"
)

// modulus is the field's, the Mersenne prime 2⁶¹−1.
const modulus = 1<<61 - 1

// keys are the two evaluations' keys. They are constants, so every run
// predicts the same patterns.
var keys = [2]uint64{0x243f6a8885a308d3, 0x13198a2e03707344}

// Value is one cell evaluated under each key.
type Value [len(keys)]uint64

// Grid is a single-channel symbolic feature map.
type Grid struct {
	H, W  int
	Cells []Value
}

// At returns the cell at (y, x).
func (g Grid) At(y, x int) Value { return g.Cells[y*g.W+x] }

// Engine evaluates symbolic layers. Cells counts the grid cells it has
// evaluated: the solver's deterministic cost measure.
type Engine struct {
	Cells int
}

// grid allocates an h×w grid and counts its cells as evaluated.
func (e *Engine) grid(h, w int) Grid {
	e.Cells += h * w
	return Grid{H: h, W: w, Cells: make([]Value, h*w)}
}

// ProbeGrid builds the symbolic input grid for probe i of pattern p on an
// h×w image: boundary-constant columns s_j, an n×n feature patch f_dy_dx at
// column m+i, background b elsewhere. The same variables are used for every
// probe in the set, mirroring how one Values instantiation is shared.
func (e *Engine) ProbeGrid(p probe.Pattern, i, h, w int) Grid {
	g := e.grid(h, w)
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
	fc := p.FeatureCol(i, w)
	for dy := 0; dy < p.N; dy++ {
		for dx := 0; dx < p.N; dx++ {
			g.Cells[(p.FeatRow+dy)*w+fc+dx] = variable(fmt.Sprintf("f%d_%d", dy, dx))
		}
	}
	return g
}

// ProbeGrids builds the full set of Q symbolic probe grids.
func (e *Engine) ProbeGrids(p probe.Pattern, h, w int) []Grid {
	grids := make([]Grid, p.Q)
	for i := 0; i < p.Q; i++ {
		grids[i] = e.ProbeGrid(p, i, h, w)
	}
	return grids
}

// Conv applies a same-padded convolution with generic weights w_tag_dy_dx
// and bias b_tag; padding cells are zero and drop out of the sum.
// BatchNorm's affine and ReLU are omitted: both are injective on generic
// values per-position, so they never change the equivalence classes the
// engine predicts (§5.2 shows how the numeric side separates them).
func (e *Engine) Conv(g Grid, tag string, kernel, stride int) Grid {
	pad := (kernel - 1) / 2
	oh := (g.H+2*pad-kernel)/stride + 1
	ow := (g.W+2*pad-kernel)/stride + 1
	out := e.grid(oh, ow)
	// Weight variables are shared across all positions and probes.
	wv := make([]Value, kernel*kernel)
	for dy := 0; dy < kernel; dy++ {
		for dx := 0; dx < kernel; dx++ {
			wv[dy*kernel+dx] = variable(fmt.Sprintf("%s_w%d_%d", tag, dy, dx))
		}
	}
	bias := variable(tag + "_b")
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			acc := bias
			for dy := 0; dy < kernel; dy++ {
				iy := oy*stride + dy - pad
				if iy < 0 || iy >= g.H {
					continue
				}
				for dx := 0; dx < kernel; dx++ {
					ix := ox*stride + dx - pad
					if ix < 0 || ix >= g.W {
						continue
					}
					x, w := g.At(iy, ix), wv[dy*kernel+dx]
					for l := range acc {
						acc[l] = add(acc[l], mul(w[l], x[l]))
					}
				}
			}
			out.Cells[oy*ow+ox] = acc
		}
	}
	return out
}

// MaxPool applies max pooling with window == stride.
func (e *Engine) MaxPool(g Grid, window int) Grid {
	if window <= 1 {
		return g
	}
	oh, ow := g.H/window, g.W/window
	out := e.grid(oh, ow)
	args := make([]uint64, 0, window*window)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			for l, key := range keys {
				args = args[:0]
				for dy := 0; dy < window; dy++ {
					for dx := 0; dx < window; dx++ {
						args = append(args, g.At(oy*window+dy, ox*window+dx)[l])
					}
				}
				out.Cells[oy*ow+ox][l] = maxOf(key, args)
			}
		}
	}
	return out
}

// AvgPool applies average pooling. Its inputs are ReLU outputs, and a sum of
// ReLU outputs depends on the multiset of the cells, not only on their sum;
// so each cell passes through the keyed hash, a generic nonlinearity,
// before the window is summed. The 1/w² factor is a global injective map
// and is dropped.
func (e *Engine) AvgPool(g Grid, window int) Grid {
	if window <= 1 {
		return g
	}
	oh, ow := g.H/window, g.W/window
	out := e.grid(oh, ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			var acc Value
			for dy := 0; dy < window; dy++ {
				for dx := 0; dx < window; dx++ {
					x := g.At(oy*window+dy, ox*window+dx)
					for l, key := range keys {
						acc[l] = add(acc[l], hash(key, x[l]))
					}
				}
			}
			out.Cells[oy*ow+ox] = acc
		}
	}
	return out
}

// Add sums two grids elementwise (a residual connection).
func (e *Engine) Add(a, b Grid) Grid {
	if a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("symconv: Add shape mismatch %dx%d vs %dx%d", a.H, a.W, b.H, b.W))
	}
	out := e.grid(a.H, a.W)
	for i := range out.Cells {
		for l := range out.Cells[i] {
			out.Cells[i][l] = add(a.Cells[i][l], b.Cells[i][l])
		}
	}
	return out
}

// Signature fingerprints the multiset of g's cell values as the sum of the
// hashed cells, which no cell order changes: grids with equal signatures
// have (generically) equal nnz.
func Signature(g Grid) Value {
	var sig Value
	for _, c := range g.Cells {
		for l, key := range keys {
			sig[l] = add(sig[l], hash(key, c[l]))
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
