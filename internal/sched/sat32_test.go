package sched

import (
	"math"
	"testing"

	"taurus/internal/fixed"
)

// TestSat32MatchesFix32Saturate holds the tape's clamp to the one Graph.Eval
// uses, on both sides of both int32 boundaries and at the int64 extremes.
func TestSat32MatchesFix32Saturate(t *testing.T) {
	for _, v := range []int64{
		math.MinInt64, math.MinInt64 + 1,
		math.MinInt32 - 2, math.MinInt32 - 1, math.MinInt32, math.MinInt32 + 1,
		-1, 0, 1,
		math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt32 + 2,
		1 << 32, -(1 << 32), 1<<32 + 5, -(1 << 32) - 5, // int32(v) wraps to a small value
		math.MaxInt64 - 1, math.MaxInt64,
	} {
		if got, want := sat32(v), fixed.Fix32.Saturate(v); got != want {
			t.Errorf("sat32(%d) = %d, Fix32.Saturate gives %d", v, got, want)
		}
	}
}
