package model

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"taurus/internal/dataset"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// partialFitters builds each PartialFitter warm (one cold Fit done) over its
// natural workload, plus a fresh pool for partial computation.
func partialFitters(t *testing.T) []struct {
	name string
	m    PartialFitter
	pool []dataset.Record
} {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dnn, err := NewDNN(ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng), DNNConfig{Epochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	svm, err := NewSVM(SVMConfig{MaxSV: 12})
	if err != nil {
		t.Fatal(err)
	}
	km, err := NewKMeans(KMeansConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		m    PartialFitter
		pool []dataset.Record
	}{
		{"dnn", dnn, anomalyRecords(t, 71, 6, 1200)},
		{"svm", svm, anomalyRecords(t, 72, 8, 600)},
		{"kmeans", km, iotRecords(t, 73, 1200)},
	}
	for _, c := range cases {
		if err := c.m.(Deployable).Fit(c.pool[:len(c.pool)/2]); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// encodeNameless encodes a lowered graph with its name cleared: Lower
// stamps a push-version counter into the name, so weight-identity across
// Lower calls is judged on everything but it.
func encodeNameless(g *mr.Graph) []byte {
	c := *g
	c.Name = ""
	return mr.Encode(&c)
}

// TestPartialFitReadOnlyAndDeterministic is the PartialFitter contract's
// first two properties: PartialFit must not mutate the model, and the same
// chunk must yield the same partial even across interleaved calls — the
// basis for safe task re-execution. Read-onlyness is probed behaviourally
// with twin models: PartialFit runs on one twin only, then both warm-Fit
// the same records and must lower to byte-identical graphs — which also
// catches a PartialFit that drained the model's persistent rng (the SVM's
// Lower path consumes it, so graph-before/graph-after comparison cannot).
func TestPartialFitReadOnlyAndDeterministic(t *testing.T) {
	a, b := partialFitters(t), partialFitters(t)
	for i := range a {
		t.Run(a[i].name, func(t *testing.T) {
			pool := a[i].pool
			chunkA := pool[len(pool)/2 : len(pool)/2+256]
			chunkB := pool[len(pool)/2+256:]
			p1, err := a[i].m.PartialFit(chunkA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a[i].m.PartialFit(chunkB); err != nil {
				t.Fatal(err)
			}
			p2, err := a[i].m.PartialFit(chunkA) // re-execution of the same task
			if err != nil {
				t.Fatal(err)
			}
			if p1.Records() != len(chunkA) {
				t.Fatalf("Records() = %d, want %d", p1.Records(), len(chunkA))
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatal("PartialFit on the same chunk is not deterministic")
			}

			// Twin check: a ran three PartialFits, b ran none; identical
			// warm Fits must now land on identical graphs.
			inQ := inputQFor(pool)
			lowered := func(m PartialFitter) []byte {
				t.Helper()
				if err := m.(Deployable).Fit(chunkB); err != nil {
					t.Fatal(err)
				}
				g, err := m.(Deployable).Lower(inQ)
				if err != nil {
					t.Fatal(err)
				}
				return encodeNameless(g)
			}
			if !bytes.Equal(lowered(a[i].m), lowered(b[i].m)) {
				t.Fatal("PartialFit mutated the model (weights or rng state)")
			}
		})
	}
}

// TestMergeMatchesChunkedReference: Merge over a chunk schedule must be a
// pure function of (model state, ordered partials) — two identical warm
// models merging the same ordered partials land on byte-identical lowered
// graphs.
func TestMergeMatchesChunkedReference(t *testing.T) {
	build := func(t *testing.T) []struct {
		name string
		m    PartialFitter
		pool []dataset.Record
	} {
		return partialFitters(t)
	}
	a, b := build(t), build(t)
	for i := range a {
		t.Run(a[i].name, func(t *testing.T) {
			pool := a[i].pool[len(a[i].pool)/2:]
			merge := func(m PartialFitter) []byte {
				var parts []Partial
				for lo := 0; lo < len(pool); lo += 256 {
					hi := lo + 256
					if hi > len(pool) {
						hi = len(pool)
					}
					p, err := m.PartialFit(pool[lo:hi])
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				if err := m.Merge(parts); err != nil {
					t.Fatal(err)
				}
				g, err := m.(Deployable).Lower(inputQFor(pool))
				if err != nil {
					t.Fatal(err)
				}
				return mr.Encode(g)
			}
			if !bytes.Equal(merge(a[i].m), merge(b[i].m)) {
				t.Fatal("identical models + identical ordered partials merged to different graphs")
			}
		})
	}
}

// TestDNNMergeRefusesPartialOfAnotherShape: a partial a network of another
// shape computed is refused with an error, and the model is left exactly as
// it was — even where its first layers match and a layer-by-layer merge
// would have written them before reaching the mismatch.
func TestDNNMergeRefusesPartialOfAnotherShape(t *testing.T) {
	recs := anomalyRecords(t, 80, 6, 600)
	warm := func(sizes []int) *DNN {
		d, err := NewDNN(ml.NewDNN(sizes, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(5))), DNNConfig{Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Fit(recs[:300]); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, c := range []struct {
		name         string
		model, other []int
	}{
		{"hidden-width", []int{6, 8, 1}, []int{6, 4, 1}},
		{"second-layer", []int{6, 8, 4, 1}, []int{6, 8, 2, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, other := warm(c.model), warm(c.other)
			own, err := d.PartialFit(recs[300:450])
			if err != nil {
				t.Fatal(err)
			}
			foreign, err := other.PartialFit(recs[450:])
			if err != nil {
				t.Fatal(err)
			}
			net, calib := d.net.Clone(), d.calib
			if err := d.Merge([]Partial{own, foreign}); err == nil {
				t.Fatalf("Merge took a %v partial into a %v model", c.other, c.model)
			}
			if !reflect.DeepEqual(d.net, net) || !reflect.DeepEqual(d.calib, calib) {
				t.Fatal("a refused Merge changed the model")
			}
		})
	}
}

// TestKMeansMergeRefusesPartialOfAnotherShape: a partial of another K, or
// of another feature width than the current centroids, is refused with an
// error, and the centroids are left as they were.
func TestKMeansMergeRefusesPartialOfAnotherShape(t *testing.T) {
	pool := iotRecords(t, 81, 1200)
	warm := func(k int) *KMeans {
		km, err := NewKMeans(KMeansConfig{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if err := km.Fit(pool[:600]); err != nil {
			t.Fatal(err)
		}
		return km
	}
	k5, k3 := warm(5), warm(3)
	otherK, err := k3.PartialFit(pool[600:])
	if err != nil {
		t.Fatal(err)
	}
	if k5.NumFeatures() == 8 {
		t.Fatal("the IoT records are as wide as the anomaly records")
	}
	otherWidth, err := k5.PartialFit(anomalyRecords(t, 82, 8, 300))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    Partial
	}{{"k3-into-k5", otherK}, {"other-width", otherWidth}} {
		p := c.p
		t.Run(c.name, func(t *testing.T) {
			before := k5.km
			centroids := make([]tensor.Vec, len(before.Centroids))
			for i, c := range before.Centroids {
				centroids[i] = c.Clone()
			}
			if err := k5.Merge([]Partial{p}); err == nil {
				t.Fatal("Merge took a partial of another shape")
			}
			if k5.km != before || !reflect.DeepEqual(k5.km.Centroids, centroids) {
				t.Fatal("a refused Merge changed the centroids")
			}
		})
	}
}

// TestKMeansWarmFitIsChunkedMerge: warm KMeans.Fit is defined as
// PartialFit+Merge over the canonical KMeansFitChunk schedule, so a
// distributed retrain at that chunk size is bit-identical to the
// single-process Fit — the linear-merge family's exactness claim.
func TestKMeansWarmFitIsChunkedMerge(t *testing.T) {
	newWarm := func() *KMeans {
		k, err := NewKMeans(KMeansConfig{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Fit(iotRecords(t, 90, 1000)); err != nil {
			t.Fatal(err)
		}
		return k
	}
	pool := iotRecords(t, 91, 1700) // not a multiple of KMeansFitChunk
	inQ := inputQFor(pool)

	viaFit := newWarm()
	if err := viaFit.Fit(pool); err != nil {
		t.Fatal(err)
	}
	gFit, err := viaFit.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}

	viaMerge := newWarm()
	var parts []Partial
	for lo := 0; lo < len(pool); lo += KMeansFitChunk {
		hi := lo + KMeansFitChunk
		if hi > len(pool) {
			hi = len(pool)
		}
		p, err := viaMerge.PartialFit(pool[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	if err := viaMerge.Merge(parts); err != nil {
		t.Fatal(err)
	}
	gMerge, err := viaMerge.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mr.Encode(gFit), mr.Encode(gMerge)) {
		t.Fatal("warm KMeans.Fit != chunked PartialFit+Merge at KMeansFitChunk")
	}
}

// TestSVMDegenerateChunkFallback: a chunk the SMO solver cannot train on
// (single-class) must still produce a usable partial — its raw records as
// support-vector candidates — rather than an error, so one skewed chunk
// cannot wedge a distributed round.
func TestSVMDegenerateChunkFallback(t *testing.T) {
	s, err := NewSVM(SVMConfig{MaxSV: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(anomalyRecords(t, 95, 8, 300)); err != nil {
		t.Fatal(err)
	}
	// All-benign chunk: y is uniformly -1, SMO has nothing to separate.
	all := anomalyRecords(t, 96, 8, 400)
	var benign []dataset.Record
	for _, r := range all {
		if !r.Anomalous() {
			benign = append(benign, r)
		}
	}
	if len(benign) < 30 {
		t.Fatalf("generator produced only %d benign records", len(benign))
	}
	p, err := s.PartialFit(benign)
	if err != nil {
		t.Fatalf("degenerate chunk errored: %v", err)
	}
	sp, ok := p.(*svmPartial)
	if !ok {
		t.Fatalf("partial type %T", p)
	}
	want := 2 * 12
	if want > len(benign) {
		want = len(benign)
	}
	if len(sp.vecs) != want || len(sp.labels) != want {
		t.Fatalf("fallback candidates = %d, want %d", len(sp.vecs), want)
	}
	// The fallback partial must still merge: a round mixing degenerate and
	// healthy chunks completes.
	healthy, err := s.PartialFit(all[:200])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Merge([]Partial{p, healthy}); err != nil {
		t.Fatalf("merge with fallback partial: %v", err)
	}
}
