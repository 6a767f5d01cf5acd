package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.NumDims() != 3 {
		t.Fatalf("NumDims = %d, want 3", x.NumDims())
	}
	if x.Dim(1) != 3 {
		t.Fatalf("Dim(1) = %d, want 3", x.Dim(1))
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestIndexRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	want := 0.0
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				x.Set(want, i, j, k)
				want++
			}
		}
	}
	// Row-major layout means data should simply count up.
	for i, v := range x.Data {
		if v != float64(i) {
			t.Fatalf("Data[%d] = %g, want %d", i, v, i)
		}
	}
	if got := x.At(2, 3, 4); got != 59 {
		t.Fatalf("At(2,3,4) = %g, want 59", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	x.At(0, 2)
}

func TestAt4MatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := New(2, 3, 4, 5)
	x.Randn(rng, 1)
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				for d := 0; d < 5; d++ {
					if x.At4(a, b, c, d) != x.At(a, b, c, d) {
						t.Fatalf("At4(%d,%d,%d,%d) mismatch", a, b, c, d)
					}
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape should share storage")
	}
	if y.At(2, 1) != 6 {
		t.Fatalf("reshaped At(2,1) = %g, want 6", y.At(2, 1))
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	c := a.Add(b)
	if c.Data[2] != 33 {
		t.Fatalf("Add: got %v", c.Data)
	}
	d := b.Sub(a)
	if d.Data[0] != 9 {
		t.Fatalf("Sub: got %v", d.Data)
	}
	a.MulInPlace(b)
	if a.Data[1] != 40 {
		t.Fatalf("MulInPlace: got %v", a.Data)
	}
	b.Scale(0.5)
	if b.Data[0] != 5 {
		t.Fatalf("Scale: got %v", b.Data)
	}
	e := FromSlice([]float64{1, 1, 1}, 3)
	e.AxpyInPlace(2, FromSlice([]float64{1, 2, 3}, 3))
	if e.Data[2] != 7 {
		t.Fatalf("Axpy: got %v", e.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	a.AddInPlace(b)
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{-3, 0, 5, 2}, 4)
	if x.Sum() != 4 {
		t.Fatalf("Sum = %g", x.Sum())
	}
	if x.Max() != 5 || x.Min() != -3 {
		t.Fatalf("Max/Min = %g/%g", x.Max(), x.Min())
	}
	if x.ArgMax() != 2 || x.ArgMin() != 0 {
		t.Fatalf("ArgMax/ArgMin = %d/%d", x.ArgMax(), x.ArgMin())
	}
	if x.AbsMax() != 5 {
		t.Fatalf("AbsMax = %g", x.AbsMax())
	}
	if got := x.Norm(); math.Abs(got-math.Sqrt(9+25+4)) > 1e-12 {
		t.Fatalf("Norm = %g", got)
	}
}

func TestNNZAndSparsity(t *testing.T) {
	x := FromSlice([]float64{0, 1e-12, -2, 3, 0, 0, 0, 1}, 8)
	if got := x.NNZ(1e-9); got != 3 {
		t.Fatalf("NNZ = %d, want 3", got)
	}
	if got := x.Sparsity(1e-9); math.Abs(got-5.0/8.0) > 1e-12 {
		t.Fatalf("Sparsity = %g", got)
	}
}

func TestApplyAndFill(t *testing.T) {
	x := New(4)
	x.Fill(2)
	x.Apply(func(v float64) float64 { return v * v })
	for _, v := range x.Data {
		if v != 4 {
			t.Fatalf("Apply: got %v", x.Data)
		}
	}
	x.Zero()
	if x.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestKaimingInitStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := New(100000)
	x.KaimingInit(rng, 50)
	wantStd := math.Sqrt(2.0 / 50.0)
	var sumSq float64
	for _, v := range x.Data {
		sumSq += v * v
	}
	got := math.Sqrt(sumSq / float64(x.Size()))
	if math.Abs(got-wantStd)/wantStd > 0.05 {
		t.Fatalf("Kaiming std = %g, want about %g", got, wantStd)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 70, 60, 50 // far larger than the hand-checked products
	a := New(m, k)
	b := New(k, n)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	got := MatMul(a, b)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			want.Set(s, i, j)
		}
	}
	if !ApproxEqual(got, want, 1e-9) {
		t.Fatal("parallel MatMul disagrees with naive reference")
	}
}

func TestMatMulIntoReusesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	dst := New(2, 2)
	dst.Fill(99) // must be overwritten, not accumulated
	MatMulInto(dst, a, b)
	if dst.Data[0] != 5 || dst.Data[3] != 8 {
		t.Fatalf("MatMulInto = %v", dst.Data)
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	x := FromSlice([]float64{1, 1, 1}, 3)
	y := MatVec(a, x)
	if y.Data[0] != 6 || y.Data[1] != 15 {
		t.Fatalf("MatVec = %v", y.Data)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("Transpose values wrong")
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMatMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := New(m, k)
		b := New(k, n)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(m, k)
		b := New(k, n)
		c := New(k, n)
		a.Randn(rng, 1)
		b.Randn(rng, 1)
		c.Randn(rng, 1)
		lhs := MatMul(a, b.Add(c))
		rhs := MatMul(a, b).Add(MatMul(a, c))
		return ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: NNZ is invariant under permutation-free reshape.
func TestNNZReshapeInvariantProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		x := FromSlice(append([]float64(nil), vals...), len(vals))
		y := x.Reshape(1, len(vals))
		return x.NNZ(0) == y.NNZ(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice([]float64{1, 2}, 2)
	if s := small.String(); s == "" {
		t.Fatal("empty String for small tensor")
	}
	big := New(100)
	if s := big.String(); s == "" {
		t.Fatal("empty String for large tensor")
	}
}
