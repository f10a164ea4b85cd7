// Package ml implements the machine-learning models evaluated in the paper
// (§5.1.2): a DNN and an SVM for anomaly detection, KMeans for IoT traffic
// classification, and an LSTM for Indigo-style congestion control — plus
// float training for the control plane and 8-bit quantised inference for the
// data plane.
package ml

import (
	"fmt"
	"math"
)

// Activation selects a non-linear function applied element-wise after a
// linear layer (§3.3, Figure 3's G(z)).
type Activation int

const (
	// Linear applies no non-linearity.
	Linear Activation = iota
	// ReLU is max(0, x) (used by the anomaly-detection DNN).
	ReLU
	// LeakyReLU is x for x>=0 and 0.01*x otherwise.
	LeakyReLU
	// Sigmoid is 1/(1+e^-x) (used by LSTM gates and binary outputs).
	Sigmoid
	// Tanh is the hyperbolic tangent (used by LSTM cell updates).
	Tanh
)

// String returns the activation's conventional name.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leakyrelu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// Apply evaluates the activation at x.
func (a Activation) Apply(x float32) float32 {
	switch a {
	case Linear:
		return x
	case ReLU:
		if x > 0 {
			return x
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return x
		}
		return 0.01 * x
	case Sigmoid:
		return float32(1 / (1 + math.Exp(-float64(x))))
	case Tanh:
		return float32(math.Tanh(float64(x)))
	default:
		panic("ml: unknown activation " + a.String())
	}
}

// Derivative evaluates da/dx given the pre-activation x.
func (a Activation) Derivative(x float32) float32 {
	switch a {
	case Linear:
		return 1
	case ReLU:
		if x > 0 {
			return 1
		}
		return 0
	case LeakyReLU:
		if x > 0 {
			return 1
		}
		return 0.01
	case Sigmoid:
		s := a.Apply(x)
		return s * (1 - s)
	case Tanh:
		t := a.Apply(x)
		return 1 - t*t
	default:
		panic("ml: unknown activation " + a.String())
	}
}

// ApplyVec applies the activation element-wise, returning a new slice.
func (a Activation) ApplyVec(xs []float32) []float32 {
	out := make([]float32, len(xs))
	a.applyTo(out, xs)
	return out
}

// applyTo writes a(xs[i]) to dst[i]; dst may be xs. The ReLU loop is Apply's
// ReLU case with the switch taken once per vector instead of once per lane.
//
// hotpath: zero-alloc
func (a Activation) applyTo(dst, xs []float32) {
	dst = dst[:len(xs)]
	if a == ReLU {
		for i, x := range xs {
			if x > 0 {
				dst[i] = x
			} else {
				dst[i] = 0
			}
		}
		return
	}
	for i, x := range xs {
		dst[i] = a.Apply(x)
	}
}

// mulDerivative scales v[i] by da/dx at the pre-activation pre[i]. ReLU keeps
// the multiply by its 0-or-1 derivative, so the products are the ones
// v[i]*a.Derivative(pre[i]) yields.
//
// hotpath: zero-alloc
func (a Activation) mulDerivative(v, pre []float32) {
	pre = pre[:len(v)]
	if a == ReLU {
		for i, x := range pre {
			var d float32
			if x > 0 {
				d = 1
			}
			v[i] *= d
		}
		return
	}
	for i, x := range pre {
		v[i] *= a.Derivative(x)
	}
}
