package controlplane

import (
	"math"
	"math/rand"
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

// TestKSDetectsVarianceWidening mirrors the PSI acceptance shape: a
// symmetric widening of the score distribution keeps the mean and flag rate
// unchanged — invisible to the mean-shift detector — but must trip the KS
// statistic.
func TestKSDetectsVarianceWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ksCtrl := detectorController(t, DriftKS)
	meanCtrl := detectorController(t, DriftMeanShift)

	for w := 0; w < 4; w++ {
		scores := normalScores(rng, 256, 64, 8)
		ksCtrl.Observe(scoreDecisions(scores))
		meanCtrl.Observe(scoreDecisions(scores))
	}
	if ksCtrl.Drifted() || meanCtrl.Drifted() {
		t.Fatal("drift declared during reference establishment")
	}

	ksFired, meanFired := false, false
	for w := 0; w < 8; w++ {
		scores := normalScores(rng, 256, 64, 40)
		ksFired = ksCtrl.Observe(scoreDecisions(scores)) || ksFired
		meanFired = meanCtrl.Observe(scoreDecisions(scores)) || meanFired
	}
	if !ksFired {
		t.Errorf("KS detector missed symmetric variance widening (last KS %.3f)", ksCtrl.Stats().LastKS)
	}
	if meanFired {
		t.Error("mean-shift detector unexpectedly fired — widening is no longer mean-preserving, retune the test")
	}
	if got := ksCtrl.Stats().LastKS; got <= ksCtrl.f.cfg.KSThreshold {
		t.Errorf("post-widening KS %.3f not above threshold %.3f", got, ksCtrl.f.cfg.KSThreshold)
	}
}

// TestKSStationaryQuiet: on a stationary score stream the KS detector must
// not fire.
func TestKSStationaryQuiet(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctrl := detectorController(t, DriftKS)
	for w := 0; w < 16; w++ {
		if ctrl.Observe(scoreDecisions(normalScores(rng, 256, 64, 8))) {
			t.Fatalf("KS fired on stationary traffic at window %d (KS %.3f)", w, ctrl.Stats().LastKS)
		}
	}
}

// TestKSDiscreteScores: category-index scores (KMeans) must not manufacture
// KS distance while the mix is stationary, and must trip on a mix shift —
// without any binning step to go wrong.
func TestKSDiscreteScores(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctrl := detectorController(t, DriftKS)
	classMix := func(n int, weights []float64) []int32 {
		out := make([]int32, n)
		for i := range out {
			r := rng.Float64()
			acc := 0.0
			for c, w := range weights {
				acc += w
				if r < acc {
					out[i] = int32(c)
					break
				}
			}
		}
		return out
	}
	base := []float64{0.4, 0.3, 0.15, 0.1, 0.05}
	for w := 0; w < 4; w++ {
		if ctrl.Observe(scoreDecisions(classMix(256, base))) {
			t.Fatal("KS fired while the mix was stationary")
		}
	}
	shifted := []float64{0.05, 0.1, 0.15, 0.3, 0.4}
	fired := false
	for w := 0; w < 8; w++ {
		fired = ctrl.Observe(scoreDecisions(classMix(256, shifted))) || fired
	}
	if !fired {
		t.Errorf("KS missed the category-mix shift (last KS %.3f)", ctrl.Stats().LastKS)
	}
}
