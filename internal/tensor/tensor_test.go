package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Errorf("unexpected matrix contents: %+v", m)
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 5 {
		t.Errorf("Row(1) = %v", r)
	}
	// Row shares storage.
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Error("Row should be a view")
	}
	// Clone does not.
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) == 42 {
		t.Error("Clone should deep-copy")
	}
}

func TestNewMatNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative dims")
		}
	}()
	NewMat(-1, 2)
}

func TestDot(t *testing.T) {
	if got := Dot(Vec{1, 2, 3}, Vec{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestMatVec(t *testing.T) {
	m := Mat{Rows: 2, Cols: 3, Data: []float32{1, 0, 0, 0, 2, 0}}
	got := MatVec(m, Vec{5, 7, 9})
	if got[0] != 5 || got[1] != 14 {
		t.Errorf("MatVec = %v", got)
	}
}

func TestElementwise(t *testing.T) {
	a, b := Vec{1, 2}, Vec{3, 5}
	if got := Scale(a, 3); got[0] != 3 || got[1] != 6 {
		t.Errorf("Scale = %v", got)
	}
	c := a.Clone()
	AddInPlace(c, b)
	if c[0] != 4 || c[1] != 7 {
		t.Errorf("AddInPlace = %v", c)
	}
	if a[0] != 1 {
		t.Error("Clone should not alias")
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist(Vec{0, 0}, Vec{3, 4}); got != 25 {
		t.Errorf("SqDist = %v, want 25", got)
	}
}

func TestSoftmax(t *testing.T) {
	s := Softmax(Vec{1, 2, 3})
	var sum float32
	for _, v := range s {
		sum += v
	}
	if !almostEq(sum, 1, 1e-5) {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(s[2] > s[1] && s[1] > s[0]) {
		t.Errorf("softmax not monotone: %v", s)
	}
	// Large inputs must not overflow.
	s = Softmax(Vec{1000, 1001})
	if math.IsNaN(float64(s[0])) || math.IsNaN(float64(s[1])) {
		t.Errorf("softmax overflowed: %v", s)
	}
	if len(Softmax(Vec{})) != 0 {
		t.Error("softmax of empty should be empty")
	}
}

func TestArgMaxMin(t *testing.T) {
	if got := ArgMax(Vec{1, 5, 3}); got != 1 {
		t.Errorf("ArgMax = %d", got)
	}
	if got := ArgMin(Vec{1, 5, -3}); got != 2 {
		t.Errorf("ArgMin = %d", got)
	}
	if ArgMax(Vec{}) != -1 || ArgMin(Vec{}) != -1 {
		t.Error("empty vectors should return -1")
	}
	// Ties pick the first.
	if got := ArgMax(Vec{2, 2}); got != 0 {
		t.Errorf("tie ArgMax = %d", got)
	}
}

func TestAbsMax(t *testing.T) {
	if got := AbsMax(Vec{-4, 3}); got != 4 {
		t.Errorf("AbsMax = %v", got)
	}
	if got := AbsMax(Vec{}); got != 0 {
		t.Errorf("AbsMax(empty) = %v", got)
	}
}

func TestRandMatInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandMat(10, 20, rng)
	limit := float32(math.Sqrt(6.0 / 30.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("RandMat value %v outside ±%v", v, limit)
		}
	}
	v := RandVec(50, 0.5, rng)
	for _, x := range v {
		if x < -0.5 || x > 0.5 {
			t.Fatalf("RandVec value %v outside ±0.5", x)
		}
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int) Vec { return RandVec(n, 2, rng) }
	f := func() bool {
		a, b, c := gen(8), gen(8), gen(8)
		if !almostEq(Dot(a, b), Dot(b, a), 1e-4) {
			return false
		}
		ac := a.Clone()
		AddInPlace(ac, c)
		lhs := Dot(ac, b)
		rhs := Dot(a, b) + Dot(c, b)
		return almostEq(lhs, rhs, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: squared distance is non-negative, zero iff equal inputs.
func TestSqDistProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		a := RandVec(6, 3, rng)
		if SqDist(a, a) != 0 {
			return false
		}
		b := RandVec(6, 3, rng)
		return SqDist(a, b) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
