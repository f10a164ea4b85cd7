package ml

import (
	"math"
	"testing"
)

func TestActivationApply(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float32
		want float32
		tol  float32
	}{
		{Linear, 3, 3, 0},
		{ReLU, 3, 3, 0},
		{ReLU, -3, 0, 0},
		{LeakyReLU, -2, -0.02, 1e-6},
		{LeakyReLU, 2, 2, 0},
		{Sigmoid, 0, 0.5, 1e-6},
		{Tanh, 0, 0, 1e-6},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.x); float32(math.Abs(float64(got-c.want))) > c.tol {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.act, c.x, got, c.want)
		}
	}
}

func TestActivationDerivativeMatchesNumeric(t *testing.T) {
	const h = 1e-3
	for _, act := range []Activation{Linear, ReLU, LeakyReLU, Sigmoid, Tanh} {
		for _, x := range []float32{-2, -0.5, 0.5, 2} {
			num := (act.Apply(x+h) - act.Apply(x-h)) / (2 * h)
			got := act.Derivative(x)
			if math.Abs(float64(got-num)) > 1e-2 {
				t.Errorf("%v.Derivative(%v) = %v, numeric %v", act, x, got, num)
			}
		}
	}
}

func TestActivationNames(t *testing.T) {
	names := map[Activation]string{
		Linear: "linear", ReLU: "relu", LeakyReLU: "leakyrelu",
		Sigmoid: "sigmoid", Tanh: "tanh",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("String() = %q, want %q", a.String(), want)
		}
	}
}

func TestApplyVec(t *testing.T) {
	out := ReLU.ApplyVec([]float32{-1, 2, -3})
	if out[0] != 0 || out[1] != 2 || out[2] != 0 {
		t.Errorf("ApplyVec = %v", out)
	}
}
