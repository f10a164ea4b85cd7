package controlplane

import (
	"math"
	"testing"
)

func TestKSStat(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if d := ksStat(same, same); d != 0 {
		t.Errorf("KS of a sample against itself = %v, want 0", d)
	}
	disjoint := []float64{10, 11, 12}
	if d := ksStat(same, disjoint); d != 1 {
		t.Errorf("KS of disjoint samples = %v, want 1", d)
	}
	if d := ksStat(nil, same); d != 0 {
		t.Errorf("KS with an empty sample = %v, want 0", d)
	}
	// Ties across samples must not manufacture distance.
	a := []float64{0, 0, 1, 1, 2, 2}
	b := []float64{0, 0, 0, 1, 1, 1, 2, 2, 2}
	if d := ksStat(a, b); d > 1e-12 {
		t.Errorf("KS of identically distributed discrete samples = %v, want 0", d)
	}
	// A shifted discrete mix: a is uniform over {0,1}, b over {1,2};
	// sup|F_a - F_b| at value 1⁻ is 0.5... exactly F_a(0)=0.5 vs F_b(0)=0.
	c := []float64{0, 0, 1, 1}
	e := []float64{1, 1, 2, 2}
	if d := ksStat(c, e); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("KS of shifted discrete mixes = %v, want 0.5", d)
	}
}
