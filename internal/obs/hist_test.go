package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistBucketBoundaries pins the log-linear bucket math at the region
// boundaries: unit buckets below histSub, then histSub sub-buckets per
// octave, with every value landing in a bucket whose [low, next-low) range
// contains it.
func TestHistBucketBoundaries(t *testing.T) {
	// Linear region: one bucket per integer.
	for v := 0; v < histSub; v++ {
		if got := BucketOf(float64(v)); got != v {
			t.Errorf("BucketOf(%d) = %d, want %d (unit bucket)", v, got, v)
		}
	}
	// First log bucket starts exactly at histSub.
	if got := BucketOf(histSub); got != histSub {
		t.Errorf("BucketOf(%d) = %d, want %d", histSub, got, histSub)
	}
	// Octave boundaries: 2^k maps to the first sub-bucket of its octave.
	for k := histSubBits; k < 40; k++ {
		v := float64(uint64(1) << uint(k))
		i := BucketOf(v)
		if BucketLow(i) != v {
			t.Errorf("BucketOf(2^%d): bucket %d has low %g, want %g", k, i, BucketLow(i), v)
		}
	}
	// Containment + monotonicity across a dense sweep.
	prev := -1
	for u := 0; u < 1<<14; u++ {
		v := float64(u)
		i := BucketOf(v)
		if i < prev {
			t.Fatalf("BucketOf not monotonic at %g: %d after %d", v, i, prev)
		}
		prev = i
		low := BucketLow(i)
		var high float64
		if i+1 < histBuckets {
			high = BucketLow(i + 1)
		} else {
			high = math.Inf(1)
		}
		if v < low || v >= high {
			t.Fatalf("value %g landed in bucket %d = [%g, %g)", v, i, low, high)
		}
	}
	// Negative values clamp to bucket 0.
	if got := BucketOf(-5); got != 0 {
		t.Errorf("BucketOf(-5) = %d, want 0", got)
	}
}

// TestHistOverflowBucket drives values past the top octave and checks they
// all land (and count) in the final bucket instead of being dropped.
func TestHistOverflowBucket(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e300, math.MaxFloat64, float64(math.MaxUint64) * 4} {
		h.Record(v)
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got := h.buckets[histBuckets-1].Load(); got != 3 {
		t.Fatalf("overflow bucket holds %d, want 3", got)
	}
	// The quantile of an all-overflow histogram is the last bucket's mid.
	if got, want := h.Quantile(0.5), BucketMid(histBuckets-1); got != want {
		t.Fatalf("quantile(0.5) = %g, want %g", got, want)
	}
}

// TestHistQuantileErrorBound brute-forces quantiles against sorted samples:
// the histogram's answer must sit within the ~3% relative bucket error
// (1/histSub, plus half a bucket of midpoint rounding) of the exact value —
// the guarantee netqueue's latency report has always relied on.
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Lognormal-ish spread covering several octaves, like latencies.
		v := math.Exp(rng.NormFloat64()*1.5 + 8)
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		// The histogram targets rank q*n+0.5; compare against that exact
		// order statistic so only bucket quantisation differs.
		rank := int(q*float64(len(samples)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		if rank > len(samples) {
			rank = len(samples)
		}
		exact := samples[rank-1]
		got := h.Quantile(q)
		relErr := math.Abs(got-exact) / exact
		if relErr > 1.5/histSub {
			t.Errorf("quantile(%g) = %g, exact %g: relative error %.4f exceeds bound %.4f",
				q, got, exact, relErr, 1.5/histSub)
		}
	}
}

// TestHistRecordN checks the batched form matches n single records exactly.
func TestHistRecordN(t *testing.T) {
	var a, b Histogram
	a.RecordN(37, 1000)
	for i := 0; i < 1000; i++ {
		b.Record(37)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("RecordN(37, 1000): count %d sum %g; singles: count %d sum %g",
			a.Count(), a.Sum(), b.Count(), b.Sum())
	}
	for i := 0; i < histBuckets; i++ {
		if na, nb := a.buckets[i].Load(), b.buckets[i].Load(); na != nb {
			t.Fatalf("bucket %d: RecordN %d, singles %d", i, na, nb)
		}
	}
	if a.Quantile(0.5) != b.Quantile(0.5) {
		t.Fatalf("median differs: %g vs %g", a.Quantile(0.5), b.Quantile(0.5))
	}
}

// TestHistReset checks Reset returns the histogram to its zero state.
func TestHistReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Record(1e9)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("after Reset: count %d sum %g q50 %g", h.Count(), h.Sum(), h.Quantile(0.5))
	}
}

// TestHistZeroAlloc proves Record and RecordN allocate nothing — they sit
// on the device's per-packet path.
func TestHistZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(200, func() {
		h.Record(123.4)
		h.RecordN(5, 16)
	}); n != 0 {
		t.Fatalf("Record/RecordN allocate %.1f times per run, want 0", n)
	}
}
