package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPrecisionRanges(t *testing.T) {
	cases := []struct {
		p        Precision
		min, max int32
	}{
		{Fix8, -128, 127},
		{Fix16, -32768, 32767},
		{Fix32, math.MinInt32, math.MaxInt32},
	}
	for _, c := range cases {
		if got := c.p.Min(); got != c.min {
			t.Errorf("%v.Min() = %d, want %d", c.p, got, c.min)
		}
		if got := c.p.Max(); got != c.max {
			t.Errorf("%v.Max() = %d, want %d", c.p, got, c.max)
		}
		if !c.p.Valid() {
			t.Errorf("%v.Valid() = false", c.p)
		}
	}
	if Precision(12).Valid() {
		t.Error("Precision(12).Valid() = true, want false")
	}
}

func TestPrecisionString(t *testing.T) {
	if Fix8.String() != "fix8" || Fix16.String() != "fix16" || Fix32.String() != "fix32" {
		t.Errorf("unexpected names: %v %v %v", Fix8, Fix16, Fix32)
	}
}

func TestSaturate(t *testing.T) {
	if got := Fix8.Saturate(1000); got != 127 {
		t.Errorf("Saturate(1000) = %d, want 127", got)
	}
	if got := Fix8.Saturate(-1000); got != -128 {
		t.Errorf("Saturate(-1000) = %d, want -128", got)
	}
	if got := Fix8.Saturate(5); got != 5 {
		t.Errorf("Saturate(5) = %d, want 5", got)
	}
}

func TestQuantizerRoundTrip(t *testing.T) {
	q := NewQuantizer(4.0)
	for _, v := range []float32{0, 1, -1, 3.999, -4, 2.5} {
		got := q.Dequantize(q.Quantize(v))
		if math.Abs(float64(got-v)) > q.Scale {
			t.Errorf("round trip %v -> %v (scale %v)", v, got, q.Scale)
		}
	}
}

func TestQuantizerSaturates(t *testing.T) {
	q := NewQuantizer(1.0)
	if got := q.Quantize(100); got != 127 {
		t.Errorf("Quantize(100) = %d, want 127", got)
	}
	if got := q.Quantize(-100); got != -128 {
		t.Errorf("Quantize(-100) = %d, want -128", got)
	}
}

// TestQuantizerEdgeValues pins the values a plain conversion would leave to
// the platform or to the rounding mode: NaN is 0, the infinities saturate,
// both zeros are 0, and ties round to even before saturating.
func TestQuantizerEdgeValues(t *testing.T) {
	q := Quantizer{Scale: 1}
	for _, tc := range []struct {
		v    float32
		want int8
	}{
		{float32(math.NaN()), 0},
		{float32(math.Inf(1)), 127},
		{float32(math.Inf(-1)), -128},
		{0, 0},
		{float32(math.Copysign(0, -1)), 0},
		{126.5, 126},
		{127, 127},
		{127.5, 127},
		{-127.5, -128},
		{-128, -128},
		{-128.5, -128},
	} {
		if got := q.Quantize(tc.v); got != tc.want {
			t.Errorf("Quantize(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestQuantizerDegenerate(t *testing.T) {
	q := NewQuantizer(0)
	if q.Scale <= 0 {
		t.Fatalf("degenerate quantizer scale = %v", q.Scale)
	}
	if got := q.Quantize(0); got != 0 {
		t.Errorf("Quantize(0) = %d", got)
	}
	q = NewQuantizer(math.NaN())
	if q.Scale <= 0 {
		t.Errorf("NaN absMax should fall back to unit scale")
	}
}

func TestQuantizerFor(t *testing.T) {
	q := QuantizerFor([]float32{0.5, -2, 1})
	if math.Abs(q.Scale-2.0/127) > 1e-12 {
		t.Errorf("Scale = %v, want %v", q.Scale, 2.0/127)
	}
	vs := []float32{0.5, -2, 1}
	codes := q.QuantizeSlice(vs)
	back := q.DequantizeSlice(codes)
	for i := range vs {
		if math.Abs(float64(back[i]-vs[i])) > q.Scale {
			t.Errorf("slice round trip [%d]: %v -> %v", i, vs[i], back[i])
		}
	}
}

func TestMultiplierEncodes(t *testing.T) {
	for _, f := range []float64{0.5, 0.001234, 0.9999, 1.0, 3.5, 100} {
		m, err := NewMultiplier(f)
		if err != nil {
			t.Fatalf("NewMultiplier(%v): %v", f, err)
		}
		if rel := math.Abs(m.Float()-f) / f; rel > 1e-9 {
			t.Errorf("Multiplier(%v) encodes %v (rel err %v)", f, m.Float(), rel)
		}
	}
}

func TestMultiplierRejectsBad(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewMultiplier(f); err == nil {
			t.Errorf("NewMultiplier(%v) should fail", f)
		}
	}
}

func TestMultiplierApply(t *testing.T) {
	m, err := NewMultiplier(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Apply(100); got != 25 {
		t.Errorf("0.25*100 = %d, want 25", got)
	}
	if got := m.Apply(-100); got != -25 {
		t.Errorf("0.25*-100 = %d, want -25", got)
	}
	if got := m.ApplySat8(10000); got != 127 {
		t.Errorf("ApplySat8 overflow = %d, want 127", got)
	}
	if got := m.ApplySat8(-10000); got != -128 {
		t.Errorf("ApplySat8 underflow = %d, want -128", got)
	}
}

// Property: Apply matches real multiplication to within 1 ulp for in-range
// accumulators.
func TestMultiplierApplyProperty(t *testing.T) {
	m, err := NewMultiplier(0.0123456789)
	if err != nil {
		t.Fatal(err)
	}
	f := func(acc int32) bool {
		want := math.RoundToEven(float64(acc) * 0.0123456789)
		got := float64(m.Apply(acc))
		return math.Abs(got-want) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
