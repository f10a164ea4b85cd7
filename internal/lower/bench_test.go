package lower

import (
	"math/rand"
	"testing"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/ml"
)

// benchSVM trains a small RBF SVM for the reference-decision benchmark.
func benchSVM(b *testing.B) (*ml.SVM, fixed.Quantizer, []float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	gen, err := dataset.NewAnomalyGenerator(dataset.AnomalyConfig{
		NumFeatures: 8, AnomalyFraction: 0.4, Separation: 1.4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	X, y := dataset.SplitPM(gen.Records(250))
	svm, err := ml.TrainSVM(X, y, ml.DefaultSVMConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	return svm, fixed.QuantizerFor(flat), X[0]
}

// BenchmarkSVMReferenceCached is the per-deployment shape: quantise once,
// score many samples. The per-call path must not allocate.
func BenchmarkSVMReferenceCached(b *testing.B) {
	svm, inQ, x := benchSVM(b)
	ref, err := NewSVMReference(svm, inQ, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Decision(x); err != nil {
			b.Fatal(err)
		}
	}
}
