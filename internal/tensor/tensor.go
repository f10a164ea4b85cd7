// Package tensor provides the small dense float32 linear-algebra kernels the
// control plane uses for training and reference (float) inference. The data
// plane never uses this package directly: quantised inference goes through
// internal/fixed and the CGRA simulator, so that accuracy comparisons
// (Table 3, Table 8) pit this float path against the 8-bit path.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float32 vector.
type Vec []float32

// Mat is a dense row-major float32 matrix.
type Mat struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (r,c).
func (m Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r,c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shares storage).
func (m Mat) Row(r int) Vec { return Vec(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Clone deep-copies the matrix.
func (m Mat) Clone() Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Clone deep-copies the vector.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of a and b (lengths must match).
func Dot(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// MatVec computes m*x into a new vector of length m.Rows.
func MatVec(m Mat, x Vec) Vec {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("tensor: matvec dims %dx%d vs %d", m.Rows, m.Cols, len(x)))
	}
	out := make(Vec, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = Dot(m.Row(r), x)
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: add length mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Scale returns s*a.
func Scale(a Vec, s float32) Vec {
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] * s
	}
	return out
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b Vec) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: sqdist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Softmax returns the softmax of v (numerically stabilised).
func Softmax(v Vec) Vec {
	out := make(Vec, len(v))
	SoftmaxInto(out, v)
	return out
}

// SoftmaxInto writes the softmax of v into out (same length) without
// allocating.
func SoftmaxInto(out, v Vec) {
	if len(out) != len(v) {
		panic("tensor: softmax length mismatch")
	}
	if len(v) == 0 {
		return
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	var sum float64
	for i, x := range v {
		e := math.Exp(float64(x - m))
		out[i] = float32(e)
		sum += e
	}
	for i := range out {
		out[i] = float32(float64(out[i]) / sum)
	}
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty vector.
func ArgMax(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element (first on ties), or -1
// for an empty vector.
func ArgMin(v Vec) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i, x := range v {
		if x < v[best] {
			best = i
		}
	}
	return best
}

// AbsMax returns max_i |v_i| (0 for empty).
func AbsMax(v Vec) float32 {
	var m float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// RandMat fills a matrix with Glorot-uniform values using rng.
func RandMat(rows, cols int, rng *rand.Rand) Mat {
	m := NewMat(rows, cols)
	limit := float32(math.Sqrt(6.0 / float64(rows+cols)))
	for i := range m.Data {
		m.Data[i] = (rng.Float32()*2 - 1) * limit
	}
	return m
}

// RandVec fills a vector with uniform values in [-limit, limit].
func RandVec(n int, limit float32, rng *rand.Rand) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = (rng.Float32()*2 - 1) * limit
	}
	return v
}
