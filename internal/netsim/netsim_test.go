package netsim

import (
	"math"
	"math/rand"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/ml"
)

// trainedModel returns a quantised anomaly DNN trained on the synthetic KDD
// workload (shared across tests; training dominates test time).
func trainedModel(tb testing.TB) *ml.QuantizedDNN {
	tb.Helper()
	rng := rand.New(rand.NewSource(300))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		tb.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(1500))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 25}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:300])
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

func TestRunValidation(t *testing.T) {
	q := trainedModel(t)
	for _, c := range []struct {
		name     string
		model    *ml.QuantizedDNN
		sampling float64
		packets  int
	}{
		{"missing model", nil, 1e-3, 1000},
		{"zero packets", q, 1e-3, 0},
		{"zero sampling", q, 0, 1000},
		{"sampling > 1", q, 2, 1000},
		// NaN passes `s <= 0 || s > 1`: it would sample nothing and report
		// a 0% baseline as if it were a result.
		{"NaN sampling", q, math.NaN(), 1000},
	} {
		if _, err := Run(c.model, c.sampling, c.packets); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestTaurusBeatsBaseline(t *testing.T) {
	q := trainedModel(t)
	res, err := Run(q, 1e-3, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	// Table 8's headline: Taurus detects orders of magnitude more events
	// and sustains the full model F1.
	if res.TaurusDetectedPct < 10*res.BaselineDetectedPct {
		t.Errorf("Taurus detected %.2f%%, baseline %.2f%% — want >=10x",
			res.TaurusDetectedPct, res.BaselineDetectedPct)
	}
	if res.TaurusF1 < 50 {
		t.Errorf("Taurus F1 = %.1f, want the model's offline F1 (~60-75)", res.TaurusF1)
	}
	if res.BaselineF1 > res.TaurusF1/2 {
		t.Errorf("baseline F1 %.2f should collapse vs Taurus %.2f", res.BaselineF1, res.TaurusF1)
	}
	if res.SampledPackets == 0 || res.RulesInstalled == 0 {
		t.Errorf("control loop never engaged: %+v", res)
	}
}

func TestBatchesGrowWithSampling(t *testing.T) {
	q := trainedModel(t)
	lo, err := Run(q, 1e-4, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(q, 1e-2, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if hi.XDPBatch <= lo.XDPBatch {
		t.Errorf("XDP batch should grow with sampling: %.1f vs %.1f", hi.XDPBatch, lo.XDPBatch)
	}
	if hi.TotalMs <= lo.TotalMs {
		t.Errorf("control latency should grow with sampling: %.1f vs %.1f ms", hi.TotalMs, lo.TotalMs)
	}
	// Taurus accuracy is independent of the sampling rate (Table 8: the
	// Taurus columns are constant).
	if diff := hi.TaurusF1 - lo.TaurusF1; diff > 3 || diff < -3 {
		t.Errorf("Taurus F1 should not depend on sampling: %.1f vs %.1f", hi.TaurusF1, lo.TaurusF1)
	}
}

func TestControlLatencyMilliseconds(t *testing.T) {
	q := trainedModel(t)
	res, err := Run(q, 1e-3, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	// Table 8: end-to-end control latencies are tens of ms even at low
	// sampling (vs 221 ns in the data plane).
	if res.TotalMs < 5 || res.TotalMs > 5000 {
		t.Errorf("control loop latency = %.1f ms, want tens of ms", res.TotalMs)
	}
	if res.MLMs <= 0 || res.XDPMs <= 0 || res.InstallMs <= 0 {
		t.Errorf("stage latencies missing: %+v", res)
	}
}

func TestDeterminism(t *testing.T) {
	q := trainedModel(t)
	a, err := Run(q, 1e-3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(q, 1e-3, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.BaselineF1 != b.BaselineF1 || a.XDPBatch != b.XDPBatch {
		t.Error("same seed should reproduce results exactly")
	}
}
