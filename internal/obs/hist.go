package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-size log-linear histogram (the HDR shape,
// generalised from internal/netqueue's latency histogram): non-negative
// values below histSub get unit-width buckets, and every octave above is
// split into histSub sub-buckets, so relative bucket error is bounded by
// 1/histSub (~3%) across the whole float64 range while recording stays
// allocation-free. Quantiles interpolate to the bucket midpoint.
//
// Recording is a constant number of atomic ops on preallocated cells —
// safe for concurrent recorders, and cheap enough for per-packet paths when
// batched with RecordN. The zero value is ready to use; Registry.Histogram
// hands out registered instances. A single-threaded recorder that needs
// neither the atomics nor the sum can keep the same buckets in a plain
// [NumHistBuckets]int64 through BucketOf and BucketMid, as netqueue's event
// loop does: its quantiles are bit-identical to a Histogram's.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Int64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// 59 octaves above the linear region cover every float64 value a
	// simulation can reach (2^63 ns ≈ 292 years).
	histBuckets = histSub * (64 - histSubBits + 1)
)

// NumHistBuckets is the fixed bucket count of every Histogram.
const NumHistBuckets = histBuckets

// BucketOf maps a non-negative value to its bucket index in
// [0, NumHistBuckets).
//
// hotpath: zero-alloc
func BucketOf(v float64) int {
	if v < 0 || v != v { // negatives and NaN clamp to the first bucket
		v = 0
	}
	if v >= 1<<64 { // beyond uint64 range: the overflow bucket
		return histBuckets - 1
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	idx := (shift+1)*histSub + int(u>>uint(shift)) - histSub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// BucketLow is the inclusive lower bound of bucket i.
func BucketLow(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	shift := i/histSub - 1
	sub := i % histSub
	return float64((uint64(sub) + histSub) << uint(shift))
}

// BucketMid is the midpoint of bucket i, the value quantiles report.
func BucketMid(i int) float64 {
	low := BucketLow(i)
	var high float64
	if i+1 < histBuckets {
		high = BucketLow(i + 1)
	} else {
		high = 2 * low
	}
	return low + (high-low)/2
}

// Record adds one observation of v.
//
// hotpath: zero-alloc
func (h *Histogram) Record(v float64) { h.RecordN(v, 1) }

// RecordN adds n observations of v in one shot — the batched form hot paths
// use to amortise the atomic ops over a swept batch (n observations cost the
// same three atomics as one).
//
// hotpath: zero-alloc
func (h *Histogram) RecordN(v float64, n int64) {
	if n <= 0 {
		return
	}
	h.buckets[BucketOf(v)].Add(n)
	h.count.Add(n)
	h.addSum(v * float64(n))
}

// addSum accumulates d into the float64 sum. A CAS loop over the bit
// pattern: uncontended (the common single-writer case) it succeeds first
// try; concurrent recorders retry.
//
// hotpath: zero-alloc
func (h *Histogram) addSum(d float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of recorded values (not bucket-quantised).
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile returns the value at quantile q in [0, 1] (0 with no samples),
// with relative error bounded by the ~3% bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	target := int64(q*float64(count) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > count {
		target = count
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= target {
			return BucketMid(i)
		}
	}
	return BucketMid(histBuckets - 1)
}

// Reset zeroes the histogram. Not atomic against concurrent recorders —
// callers that reset (windowed measurement) own the single writer.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}
