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

// ---------------------------------------------------------------------------
// Hardware activation implementations (§5.1.3, Figure 10, Table 6).
//
// The paper evaluates several ways to realise sigmoid/tanh on the CU fabric:
// exponential (Taylor-series) expansions, piecewise-linear approximations,
// and lookup tables. Each has a different stage/area cost; the functions
// below are the arithmetic those hardware variants compute, so accuracy can
// be compared against the exact math (and so the CGRA simulator can execute
// the same polynomial the hardware would).
// ---------------------------------------------------------------------------

// ExpTaylor evaluates e^x with a degree-7 Taylor polynomial around 0,
// clamping x to [-4, 4] — the long-basic-block "Exp" variant the compiler
// must split across CUs (TanhExp/SigmoidExp rows of Table 6; the paper notes
// Taylor-series activations cost 2-5x the area of piecewise ones, which is
// exactly this longer chain of multiply-adds).
func ExpTaylor(x float32) float32 {
	if x > 4 {
		x = 4
	} else if x < -4 {
		x = -4
	}
	// Horner evaluation of sum_{k=0..7} x^k/k!.
	xf := float64(x)
	p := 1 + xf*(1+xf*(0.5+xf*(1.0/6+xf*(1.0/24+xf*(1.0/120+xf*(1.0/720+xf/5040))))))
	if p < 0 { // Taylor truncation can go slightly negative near -4
		p = 0
	}
	return float32(p)
}

// SigmoidExp is the sigmoid built from the Taylor exponential.
func SigmoidExp(x float32) float32 {
	e := ExpTaylor(-x)
	return 1 / (1 + e)
}

// TanhExp is tanh built from the Taylor exponential:
// tanh(x) = (e^2x - 1)/(e^2x + 1).
func TanhExp(x float32) float32 {
	e := ExpTaylor(2 * x)
	return (e - 1) / (e + 1)
}

// SigmoidPW is the classic 3-segment piecewise-linear sigmoid
// (hard sigmoid): clamp(0.25*x + 0.5, 0, 1).
func SigmoidPW(x float32) float32 {
	y := 0.25*x + 0.5
	if y < 0 {
		return 0
	}
	if y > 1 {
		return 1
	}
	return y
}

// TanhPW is the piecewise-linear tanh: clamp(x, -1, 1).
func TanhPW(x float32) float32 {
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}

// ActLUTSize is the number of entries in a hardware activation lookup table
// (§5.1.3: "1024 8-bit entries").
const ActLUTSize = 1024

// ActLUT is a lookup-table activation: 1024 precomputed 8-bit outputs over a
// fixed input range, the cheapest way to realise an arbitrary non-linearity.
type ActLUT struct {
	// Lo and Hi bound the input range covered by the table; inputs outside
	// are clamped.
	Lo, Hi float32
	// Table holds the quantised outputs: code c represents OutLo + (c+128) *
	// (OutHi-OutLo)/255.
	Table        [ActLUTSize]int8
	OutLo, OutHi float32
}

// NewActLUT tabulates fn over [lo, hi] with 8-bit outputs spanning the
// function's observed output range.
func NewActLUT(fn func(float32) float32, lo, hi float32) *ActLUT {
	if hi <= lo {
		panic(fmt.Sprintf("ml: bad LUT range [%v, %v]", lo, hi))
	}
	l := &ActLUT{Lo: lo, Hi: hi}
	outs := make([]float32, ActLUTSize)
	outLo, outHi := float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < ActLUTSize; i++ {
		x := lo + (hi-lo)*float32(i)/(ActLUTSize-1)
		y := fn(x)
		outs[i] = y
		if y < outLo {
			outLo = y
		}
		if y > outHi {
			outHi = y
		}
	}
	if outHi == outLo {
		outHi = outLo + 1
	}
	l.OutLo, l.OutHi = outLo, outHi
	for i, y := range outs {
		code := math.RoundToEven(float64((y-outLo)/(outHi-outLo))*255) - 128
		l.Table[i] = int8(code)
	}
	return l
}

// Apply evaluates the table at x (clamping out-of-range inputs).
func (l *ActLUT) Apply(x float32) float32 {
	if x <= l.Lo {
		x = l.Lo
	}
	if x >= l.Hi {
		x = l.Hi
	}
	idx := int(math.RoundToEven(float64((x - l.Lo) / (l.Hi - l.Lo) * (ActLUTSize - 1))))
	if idx < 0 {
		idx = 0
	}
	if idx >= ActLUTSize {
		idx = ActLUTSize - 1
	}
	code := l.Table[idx]
	return l.OutLo + (float32(code)+128)*(l.OutHi-l.OutLo)/255
}
