package tensor

import "fmt"

// MatMul computes C = A·B for 2-d tensors A (m×k) and B (k×n), returning a
// new m×n tensor. It runs on the calling goroutine: a victim inference's
// products are too small to pay for handing rows to other goroutines.
func MatMul(a, b *Tensor) *Tensor {
	if a.NumDims() != 2 || b.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-d operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch: %v · %v", a.shape, b.shape))
	}
	c := New(m, n)
	matMulInto(c.Data, a.Data, b.Data, m, k, n)
	return c
}

// MatMulInto computes dst = A·B, reusing dst's storage. dst must be m×n.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	matMulInto(dst.Data, a.Data, b.Data, m, k, n)
}

// matMulInto computes dst = a·b using an ikj loop order so the inner loop
// streams through b and dst rows sequentially.
func matMulInto(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		drow := dst[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			//lint:ignore floateq pruning writes exact zeros; skipping them changes no sum, only work
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatVec computes y = A·x for a 2-d tensor A (m×k) and 1-d x (k), returning
// a 1-d tensor of length m.
func MatVec(a, x *Tensor) *Tensor {
	if a.NumDims() != 2 || x.NumDims() != 1 {
		panic(fmt.Sprintf("tensor: MatVec requires 2-d × 1-d, got %v and %v", a.shape, x.shape))
	}
	m, k := a.shape[0], a.shape[1]
	if x.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dimension mismatch: %v · %v", a.shape, x.shape))
	}
	y := New(m)
	for i := 0; i < m; i++ {
		s := 0.0
		row := a.Data[i*k : (i+1)*k]
		for j, v := range row {
			s += v * x.Data[j]
		}
		y.Data[i] = s
	}
	return y
}

// Transpose returns the transpose of a 2-d tensor as a new tensor.
func Transpose(a *Tensor) *Tensor {
	if a.NumDims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires a 2-d tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}
