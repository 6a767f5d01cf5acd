package symconv

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"github.com/huffduff/huffduff/internal/probe"
)

// fieldOperands returns operands at the edges of the field and random ones.
func fieldOperands() []uint64 {
	operands := []uint64{0, 1, 2, 3, 1 << 60, modulus/2 - 1, modulus / 2, modulus - 3, modulus - 2, modulus - 1}
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 200; i++ {
		operands = append(operands, rng.Uint64()%modulus)
	}
	return operands
}

// TestFieldArithmeticMatchesBig checks add and mul mod 2⁶¹−1 against
// math/big, on random operands and on operands at the edges of the field.
func TestFieldArithmeticMatchesBig(t *testing.T) {
	operands := fieldOperands()
	p := new(big.Int).SetUint64(modulus)
	for _, a := range operands {
		for _, b := range operands {
			ba, bb := new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)
			wantAdd := new(big.Int).Mod(new(big.Int).Add(ba, bb), p).Uint64()
			wantMul := new(big.Int).Mod(new(big.Int).Mul(ba, bb), p).Uint64()
			if got := add(a, b); got != wantAdd {
				t.Fatalf("add(%d, %d) = %d, want %d", a, b, got, wantAdd)
			}
			if got := mul(a, b); got != wantMul {
				t.Fatalf("mul(%d, %d) = %d, want %d", a, b, got, wantMul)
			}
		}
	}
}

// TestZeroOneIdentity: 0 is the additive identity and absorbs under mul, 1
// is the multiplicative identity, on both sides.
func TestZeroOneIdentity(t *testing.T) {
	for _, a := range fieldOperands() {
		if add(a, 0) != a || add(0, a) != a {
			t.Fatalf("%d+0 != %d", a, a)
		}
		if mul(a, 1) != a || mul(1, a) != a {
			t.Fatalf("%d·1 != %d", a, a)
		}
		if mul(a, 0) != 0 || mul(0, a) != 0 {
			t.Fatalf("%d·0 != 0", a)
		}
	}
}

// TestVarInterning: a name always evaluates to the same value, in every
// process (the keys are constants), and distinct names and keys differ.
func TestVarInterning(t *testing.T) {
	a1, a2, b := variable("a"), variable("a"), variable("b")
	if a1 != a2 {
		t.Fatal("same variable evaluated twice differs")
	}
	if a1 == b || a1[0] == a1[1] {
		t.Fatal("distinct variables or keys collided")
	}
	for _, v := range a1 {
		if v >= modulus {
			t.Fatalf("variable value %d outside the field", v)
		}
	}
	// Pinned: a change here changes every prediction's underlying values.
	if want := (Value{0x1e539c42ab9dfa8b, 0x1056fb619a7cd47b}); b != want {
		t.Fatalf("variable(\"b\") = %#x, want %#x", b, want)
	}
}

// row returns a 1×len(vals) grid.
func row(vals ...Value) Grid { return Grid{H: 1, W: len(vals), Cells: vals} }

// TestSumCanonicalization: a sum does not depend on the order of its terms
// (an avg-pool window is order-free), and different sums differ.
func TestSumCanonicalization(t *testing.T) {
	var e Engine
	a, b, c, d := variable("a"), variable("b"), variable("c"), variable("d")
	abcd := e.AvgPool(Grid{H: 2, W: 2, Cells: []Value{a, b, c, d}}, 2).Cells[0]
	dbca := e.AvgPool(Grid{H: 2, W: 2, Cells: []Value{d, b, c, a}}, 2).Cells[0]
	if abcd != dbca {
		t.Fatal("avg pool depends on window order")
	}
	if aacd := e.AvgPool(Grid{H: 2, W: 2, Cells: []Value{a, a, c, d}}, 2).Cells[0]; aacd == abcd {
		t.Fatal("different sums collided")
	}
}

// TestSumDropsZeroTerms: a conv's zero padding drops out, so padding a grid
// with explicit zero cells leaves the conv's values unchanged.
func TestSumDropsZeroTerms(t *testing.T) {
	var e Engine
	pat := probe.Pattern{M: 2, N: 2, Q: 1, FeatRow: 1}
	g := e.ProbeGrid(pat, 0, 4, 6)
	padded := Grid{H: 6, W: 8, Cells: make([]Value, 48)}
	for y := 0; y < g.H; y++ {
		copy(padded.Cells[(y+1)*padded.W+1:], g.Cells[y*g.W:(y+1)*g.W])
	}
	out, outPadded := e.Conv(g, "l", 3, 1), e.Conv(padded, "l", 3, 1)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			if out.At(y, x) != outPadded.At(y+1, x+1) {
				t.Fatalf("cell (%d,%d): implicit and explicit zero padding differ", y, x)
			}
		}
	}
}

// TestSumSingleUnitTermCollapses: a conv over zeros leaves only its bias
// term, bias·1, which is the bias variable itself; a weighted term w·a does
// not collapse to a.
func TestSumSingleUnitTermCollapses(t *testing.T) {
	var e Engine
	zeros := Grid{H: 3, W: 3, Cells: make([]Value, 9)}
	bias := variable("l_b")
	for i, v := range e.Conv(zeros, "l", 3, 1).Cells {
		if v != bias {
			t.Fatalf("cell %d of a conv over zeros = %#x, want the bias %#x", i, v, bias)
		}
	}
	a, w := variable("a"), variable("l_w0_0")
	got := e.Conv(row(a), "l", 1, 1).Cells[0]
	for l := range got {
		if mul(w[l], a[l]) == a[l] {
			t.Fatal("w·a collapsed to a")
		}
		if want := add(mul(w[l], a[l]), bias[l]); got[l] != want {
			t.Fatalf("1×1 conv of a = %#x, want w·a+b = %#x", got[l], want)
		}
	}
	if got == a || got == bias {
		t.Fatal("w·a+b collapsed to one of its terms")
	}
}

// TestAdd: Add is commutative and a+0 = a, cell by cell and as a grid.
func TestAdd(t *testing.T) {
	var e Engine
	a, b := variable("a"), variable("b")
	if !slices.Equal(e.Add(row(a, b), row(b, a)).Cells, e.Add(row(b, a), row(a, b)).Cells) {
		t.Fatal("Add not commutative")
	}
	if e.Add(row(a), row(Value{})).Cells[0] != a {
		t.Fatal("a+0 != a")
	}
	g := e.ProbeGrid(probe.Pattern{M: 2, N: 2, Q: 1, FeatRow: 1}, 0, 4, 6)
	zero := Grid{H: g.H, W: g.W, Cells: make([]Value, len(g.Cells))}
	if !slices.Equal(e.Add(g, zero).Cells, g.Cells) || Signature(e.Add(g, zero)) != Signature(g) {
		t.Fatal("grid+0 != grid")
	}
}

// TestDuplicateTermsDistinctFromSingle: a term counted twice is not the
// term counted once.
func TestDuplicateTermsDistinctFromSingle(t *testing.T) {
	var e Engine
	a, b := variable("a"), variable("b")
	if e.Add(row(a), row(a)).Cells[0] == a {
		t.Fatal("a+a == a")
	}
	aabb := e.AvgPool(row(a, a, b, b).reshape(2, 2), 2).Cells[0]
	abbb := e.AvgPool(row(a, b, b, b).reshape(2, 2), 2).Cells[0]
	if aabb == abbb {
		t.Fatal("sums with different multiplicities collided")
	}
}

// TestMaxCanonicalization: a max depends on the set of its argument values,
// not on their order or multiplicity, and a single distinct value passes
// through.
func TestMaxCanonicalization(t *testing.T) {
	var e Engine
	a, b, c := variable("a"), variable("b"), variable("c")
	max4 := func(vals ...Value) Value { return e.MaxPool(row(vals...).reshape(2, 2), 2).Cells[0] }
	if max4(a, b, c, c) != max4(c, a, b, a) {
		t.Fatal("max not order-independent")
	}
	if max4(a, a, b, b) != max4(a, b, b, b) {
		t.Fatal("max duplicates not collapsed")
	}
	if max4(a, a, a, a) != a {
		t.Fatal("max(a,a,a,a) != a")
	}
	if max4(a, b, b, b) == max4(a, c, c, c) || max4(a, b, b, b) == a {
		t.Fatal("different maxes collided")
	}
}

// TestNestedStructuralEquality: the same nested expression built along two
// paths, with its inner sums' terms in different orders, evaluates to the
// same value, and a different inner sum does not.
func TestNestedStructuralEquality(t *testing.T) {
	var e Engine
	a, b, c, d := variable("a"), variable("b"), variable("c"), variable("d")
	max4 := func(vals ...Value) Value { return e.MaxPool(row(vals...).reshape(2, 2), 2).Cells[0] }
	avg4 := func(vals ...Value) Value { return e.AvgPool(row(vals...).reshape(2, 2), 2).Cells[0] }
	inner1 := e.Add(row(avg4(a, b, c, d)), row(b)).Cells[0]
	inner2 := e.Add(row(b), row(avg4(d, c, b, a))).Cells[0]
	if max4(inner1, a, a, a) != max4(a, a, inner2, a) {
		t.Fatal("nested expressions built along different paths differ")
	}
	inner3 := e.Add(row(avg4(a, b, c, c)), row(b)).Cells[0]
	if max4(inner1, a, a, a) == max4(inner3, a, a, a) {
		t.Fatal("different nested expressions collided")
	}
}

// reshape views a 1×(h·w) grid as h×w.
func (g Grid) reshape(h, w int) Grid { return Grid{H: h, W: w, Cells: g.Cells} }
