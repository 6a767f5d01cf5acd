package symconv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/huffduff/huffduff/internal/nn"
	"github.com/huffduff/huffduff/internal/probe"
)

// whole returns the h×w grid of cells, row by row.
func whole(h, w int, cells []Value) Grid {
	return Grid{H: h, W: w, R: nn.Rect{Y1: h, X1: w}, Cells: cells}
}

// single is the set whose one background is g, with no probe: the engine
// run over the whole map.
func single(g Grid) *Set { return &Set{Backgrounds: []Grid{g}} }

// cells returns the cells of a single set.
func cells(s *Set) []Value { return s.Backgrounds[0].Cells }

// backgroundImage is the reference whole-map grid of p's probe images
// without the patch: boundary-constant columns s_j, background b elsewhere.
func backgroundImage(p probe.Pattern, h, w int) Grid {
	g := whole(h, w, make([]Value, h*w))
	for x := 0; x < w; x++ {
		v := variable("b")
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

// probeImage is the reference whole-map grid of probe i of p: its
// background with the n×n feature patch f_dy_dx at column m+i.
func probeImage(p probe.Pattern, i, h, w int) Grid {
	g := backgroundImage(p, h, w)
	fc := p.FeatureCol(i, w)
	for dy := 0; dy < p.N; dy++ {
		for dx := 0; dx < p.N; dx++ {
			g.Cells[(p.FeatRow+dy)*w+fc+dx] = variable(fmt.Sprintf("f%d_%d", dy, dx))
		}
	}
	return g
}

// wholeSignature is the sum of g's hashed cells over the whole map: the
// signature of a probe held as a whole-map grid.
func wholeSignature(g Grid) Value {
	var sig Value
	for _, c := range g.Cells {
		for l, key := range keys {
			sig[l] = add(sig[l], hash(key, c[l]))
		}
	}
	return sig
}

// cutOp is one layer of a cut case: a conv (kernel k, stride s), a max or
// average pool (window k), saving the current set, or adding the current
// and the saved set (as Add's first argument if s is 1).
type cutOp struct {
	kind byte
	k, s int
}

const (
	opConv byte = iota
	opMaxPool
	opAvgPool
	opSave
	opAdd
)

// decodeCut decodes a cut case: data[0] and data[1] the map size, data[2]
// the family count and probes per family, one byte per family (M, N, edge
// and feature row), then one byte per layer, at most eight. Layers that do
// not fit the map, and adds whose saved set has another size, are dropped.
// ok is false when a family does not fit the image.
func decodeCut(data []byte) (h, w int, fams []probe.Pattern, ops []cutOp, ok bool) {
	if len(data) < 3 {
		return 0, 0, nil, nil, false
	}
	h, w = 4+int(data[0])%29, 4+int(data[1])%29
	nf, q := 1+int(data[2])%3, 2+int(data[2]/3)%7
	data = data[3:]
	if len(data) < nf {
		return 0, 0, nil, nil, false
	}
	for _, b := range data[:nf] {
		n := 1 + int(b/3)%2
		p := probe.Pattern{M: int(b) % 3, N: n, Q: q, FromRight: b/6%2 == 1, FeatRow: int(b/12) % (h - n + 1)}
		if p.Validate(h, w) != nil {
			return 0, 0, nil, nil, false
		}
		fams = append(fams, p)
	}
	data = data[nf:]
	if len(data) > 8 {
		data = data[:8]
	}
	ch, cw := h, w
	sh, sw := -1, -1 // the saved set's size
	for _, b := range data {
		op := cutOp{kind: b % 5}
		switch op.kind {
		case opConv:
			op.k, op.s = []int{1, 3, 5, 7}[b/5%4], 1+int(b/20)%2
			if op.k > ch || op.k > cw {
				continue
			}
			pad := (op.k - 1) / 2
			ch, cw = (ch+2*pad-op.k)/op.s+1, (cw+2*pad-op.k)/op.s+1
		case opMaxPool, opAvgPool:
			op.k = 2 + int(b/5)%2
			if ch < op.k || cw < op.k {
				continue
			}
			ch, cw = ch/op.k, cw/op.k
		case opSave:
			sh, sw = ch, cw
		case opAdd:
			if sh != ch || sw != cw {
				continue
			}
			op.s = int(b/5) % 2
		}
		ops = append(ops, op)
	}
	return h, w, fams, ops, true
}

// runCut applies ops to s and returns the set after each op.
func runCut(e *Engine, s *Set, ops []cutOp) []*Set {
	var saved *Set
	out := make([]*Set, 0, len(ops))
	for i, op := range ops {
		switch op.kind {
		case opConv:
			s = e.Conv(s, fmt.Sprintf("c%d", i), op.k, op.s)
		case opMaxPool:
			s = e.MaxPool(s, op.k)
		case opAvgPool:
			s = e.AvgPool(s, op.k)
		case opSave:
			saved = s
		case opAdd:
			if op.s == 1 {
				s = e.Add(saved, s)
			} else {
				s = e.Add(s, saved)
			}
		}
		out = append(out, s)
	}
	return out
}

// coneRects returns the reference rectangle of probe i of p after each of
// ops on an h×w image: a conv or pool maps a rectangle to the bounding
// rectangle of the output cells whose window reads one of its cells, found
// by checking every output cell, and an add unites its inputs'.
func coneRects(p probe.Pattern, i, h, w int, ops []cutOp) []nn.Rect {
	fc := p.FeatureCol(i, w)
	r := nn.Rect{Y0: p.FeatRow, Y1: p.FeatRow + p.N, X0: fc, X1: fc + p.N}
	var saved nn.Rect
	out := make([]nn.Rect, 0, len(ops))
	for _, op := range ops {
		switch op.kind {
		case opConv, opMaxPool, opAvgPool:
			k, s, pad := op.k, op.k, 0
			if op.kind == opConv {
				s, pad = op.s, (op.k-1)/2
			}
			oh, ow := (h+2*pad-k)/s+1, (w+2*pad-k)/s+1
			c := nn.Rect{Y0: oh, X0: ow}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					y, x := oy*s-pad, ox*s-pad
					if y < r.Y1 && y+k > r.Y0 && x < r.X1 && x+k > r.X0 && !r.Empty() {
						c = nn.Rect{Y0: min(c.Y0, oy), Y1: max(c.Y1, oy+1), X0: min(c.X0, ox), X1: max(c.X1, ox+1)}
					}
				}
			}
			if c.Empty() {
				c = nn.Rect{}
			}
			r, h, w = c, oh, ow
		case opSave:
			saved = r
		case opAdd:
			r = r.Union(saved)
		}
		out = append(out, r)
	}
	return out
}

// checkCut evaluates the case data encodes through the engine's sets and,
// probe by probe, over the whole map. It fails t unless, after every
// layer, each probe holds its reference rectangle, each probe's cells equal
// its whole-map cells, its signature is its whole-map signature less its
// background's, and the predicted partition is the whole-map one.
func checkCut(t *testing.T, data []byte) {
	h, w, fams, ops, ok := decodeCut(data)
	if !ok || len(ops) == 0 {
		return
	}
	var e Engine
	sets := runCut(&e, e.Probes(fams, h, w), ops)
	// ref[f][q][l] is probe q of family f after layer l evaluated over the
	// whole map, and bgs[f][l] family f's background; rects[f][q][l] is the
	// probe's reference rectangle.
	ref := make([][][]*Set, len(fams))
	bgs := make([][]*Set, len(fams))
	rects := make([][][]nn.Rect, len(fams))
	for f, p := range fams {
		bgs[f] = runCut(&e, single(backgroundImage(p, h, w)), ops)
		ref[f] = make([][]*Set, p.Q)
		rects[f] = make([][]nn.Rect, p.Q)
		for q := range ref[f] {
			ref[f][q] = runCut(&e, single(probeImage(p, q, h, w)), ops)
			rects[f][q] = coneRects(p, q, h, w, ops)
		}
	}
	type key struct {
		class int
		sig   Value
	}
	for l, s := range sets {
		var pat []int
		for f, p := range fams {
			bg := s.Backgrounds[s.Of[f]]
			bgSig := wholeSignature(bgs[f][l].Backgrounds[0])
			keys := make([]key, p.Q)
			for q := range keys {
				g, whole := s.Probes[f][q], ref[f][q][l].Backgrounds[0]
				if g.R != rects[f][q][l] {
					t.Fatalf("layer %d %+v: family %d probe %d holds %+v, its cone is %+v", l, ops[l], f, q, g.R, rects[f][q][l])
				}
				for y := 0; y < whole.H; y++ {
					for x := 0; x < whole.W; x++ {
						c := bg.At(y, x)
						if y >= g.R.Y0 && y < g.R.Y1 && x >= g.R.X0 && x < g.R.X1 {
							c = g.At(y, x)
						}
						if c != whole.At(y, x) {
							t.Fatalf("layer %d %+v: family %d probe %d cell (%d,%d) differs from its whole-map evaluation", l, ops[l], f, q, y, x)
						}
					}
				}
				wholeSig := wholeSignature(whole)
				want := wholeSig
				for i := range want {
					want[i] = sub(want[i], bgSig[i])
				}
				if sig := signature(g, bg); sig != want {
					t.Fatalf("layer %d %+v: family %d probe %d signature %x, whole-map signature less the background's %x", l, ops[l], f, q, sig, want)
				}
				keys[q].sig = wholeSig
				if pat != nil {
					keys[q].class = pat[q]
				}
			}
			pat = ClassPattern(keys)
		}
		if got := s.Pattern(); !slices.Equal(got, pat) {
			t.Fatalf("layer %d %+v: predicted %s, whole-map partition %s", l, ops[l], PatternString(got), PatternString(pat))
		}
	}
}

// cutSeeds are cut cases that mix families with different M and edges,
// strided and pooled layers, and residual adds in both argument orders.
// A family byte is 12·row + 6·right + 3·(N−1) + M; a conv byte is
// 20·(s−1) + 5·(index of k in 1, 3, 5, 7), a max pool 1 or 6 (window 2 or
// 3), an average pool 2 or 7, save 3, and add 4 or 9 (saved set first).
var cutSeeds = [][]byte{
	// 32×32, three families of 8 (M=0 left N=1, M=1 left N=2, M=2 right
	// N=1, all at row 14): conv3, save, conv3, add, conv5 s2, max pool 2.
	{28, 28, 20, 168, 172, 176, 5, 3, 5, 4, 30, 1},
	// 16×16, three M=0 families of 8 on both edges, as the prober's:
	// conv7 s2, save, conv3, conv3, add with the saved set first, average
	// pool 2.
	{12, 12, 20, 84, 93, 87, 35, 3, 5, 5, 9, 2},
	// 27×29, one M=2 N=2 family of 5 at row 9, whose maps leave the last
	// row and column unread: conv1 s2, max pool 3, conv3.
	{23, 25, 9, 113, 20, 6, 5},
	// 32×32, two M=1 families of 8 on opposite edges at rows 15 and 0:
	// average pool 2, save, conv3, add with the saved set first, max pool
	// 3, conv3 s2.
	{28, 28, 19, 187, 1, 2, 3, 5, 9, 6, 25},
}

// TestCutMatchesWholeMap is the differential gate of the receptive-field
// cut on the seed cases and on 200 random ones.
func TestCutMatchesWholeMap(t *testing.T) {
	for _, data := range cutSeeds {
		checkCut(t, data)
	}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3+rng.Intn(12))
		rng.Read(data)
		checkCut(t, data)
	}
}

// FuzzCut checks the same on fuzzer-chosen cases.
func FuzzCut(f *testing.F) {
	for _, data := range cutSeeds {
		f.Add(data)
	}
	f.Fuzz(checkCut)
}
