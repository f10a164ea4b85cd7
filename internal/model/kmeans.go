package model

import (
	"fmt"
	"math/rand"

	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// KMeansConfig parameterises the clustering lifecycle.
type KMeansConfig struct {
	// K is the number of clusters; for classification use it should equal
	// the number of categories (default 5, the Table 5 IoT configuration).
	K int
	// MaxIters bounds Lloyd's iterations per Fit (default 50).
	MaxIters int
	// Restarts is how many independently seeded clusterings each Fit tries,
	// keeping the one whose aligned labels score best on the training
	// records (default 4) — insurance against k-means++ local optima, which
	// a live deployment cannot afford to push.
	Restarts int
	// Seed seeds k-means++ and empty-cluster reseeding (default 1).
	Seed int64
}

func (c *KMeansConfig) applyDefaults() {
	if c.K <= 0 {
		c.K = 5
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 50
	}
	if c.Restarts <= 0 {
		c.Restarts = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// KMeans is the Deployable lifecycle of the nearest-centroid classifier:
// each Fit re-clusters the fresh records and aligns the centroid order to
// the record labels by majority vote, so the graph's ArgMin output is
// directly the predicted category. Structure is stable across retrains (K
// and the feature width are pinned), so re-clustered centroids push as a
// plain weight update.
type KMeans struct {
	cfg KMeansConfig
	rng *rand.Rand

	km       *ml.KMeans // current aligned model (nil before first Fit)
	deployed *ml.KMeans // centroid snapshot of the last Lower
	refInQ   fixed.Quantizer
	version  int
}

// NewKMeans builds an untrained clustering lifecycle; the model exists
// after the first Fit.
func NewKMeans(cfg KMeansConfig) (*KMeans, error) {
	cfg.applyDefaults()
	return &KMeans{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name identifies the model family.
func (k *KMeans) Name() string { return "kmeans" }

// NumFeatures returns the feature width (0 before the first Fit).
func (k *KMeans) NumFeatures() int {
	if k.km == nil || k.km.K() == 0 {
		return 0
	}
	return len(k.km.Centroids[0])
}

// KMeansFitChunk is the canonical merge schedule of a warm KMeans Fit: the
// records are partitioned into chunks of this size and folded through
// PartialFit+Merge, so a distributed retrain at the same chunk size is
// bit-identical to the single-process one (KMeans is the linear-merge
// family — see the PartialFitter contract).
const KMeansFitChunk = 512

// Fit trains the nearest-centroid classifier. The first (cold) Fit
// re-clusters recs and aligns centroids to classes: centroid i ends up
// owning the cluster whose members are majority-labelled class i (greedy
// one-to-one assignment by vote count; class indices >= K are ignored).
// Restarts independent clusterings compete; the one whose aligned labels
// best match the records wins. Unsupervised use — records all carrying the
// same class — degenerates to an arbitrary but stable ordering.
//
// Warm Fits replace the clustering with the supervised centroid update:
// each centroid moves to the mean of the fresh records labelled with its
// class (a class with no fresh records keeps its centroid), folded through
// PartialFit+Merge over the canonical KMeansFitChunk schedule. Labels are
// ground truth here, so the class means are the exact Lloyd fixed point the
// aligned clustering approximates — and the linear merge makes the warm
// retrain bit-reproducible under distribution.
func (k *KMeans) Fit(recs []dataset.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("model: KMeans Fit needs records")
	}
	if k.km != nil {
		var parts []Partial
		for start := 0; start < len(recs); start += KMeansFitChunk {
			end := start + KMeansFitChunk
			if end > len(recs) {
				end = len(recs)
			}
			p, err := k.PartialFit(recs[start:end])
			if err != nil {
				return err
			}
			parts = append(parts, p)
		}
		return k.Merge(parts)
	}
	X := make([]tensor.Vec, len(recs))
	for i, r := range recs {
		X[i] = r.Features
	}
	var best *ml.KMeans
	bestScore := -1
	for restart := 0; restart < k.cfg.Restarts; restart++ {
		km, err := ml.TrainKMeans(X, k.cfg.K, k.cfg.MaxIters, k.rng)
		if err != nil {
			return err
		}
		aligned := k.align(km, X, recs)
		score := 0
		for i, x := range X {
			if aligned.Predict(x) == int(recs[i].Class) {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = aligned, score
		}
	}
	k.km = best
	return nil
}

// kmeansPartial is one chunk's per-class weighted centroid sums — the
// sufficient statistic of the supervised centroid update, and the one
// family whose merge is exactly linear.
type kmeansPartial struct {
	records int
	dim     int
	sums    [][]float64 // per class: feature-wise sum over the chunk
	counts  []int       // per class: contributing records
}

// Records reports the chunk size.
func (p *kmeansPartial) Records() int { return p.records }

// PartialFit accumulates per-class feature sums and counts over the chunk
// (class indices >= K are ignored, as in the cold Fit's alignment). Pure
// arithmetic on the chunk — no randomness, no model state beyond K — so
// re-execution is trivially bit-identical.
func (k *KMeans) PartialFit(chunk []dataset.Record) (Partial, error) {
	if len(chunk) == 0 {
		return nil, fmt.Errorf("model: KMeans PartialFit needs records")
	}
	p := &kmeansPartial{
		records: len(chunk),
		dim:     len(chunk[0].Features),
		sums:    make([][]float64, k.cfg.K),
		counts:  make([]int, k.cfg.K),
	}
	for c := range p.sums {
		p.sums[c] = make([]float64, p.dim)
	}
	for _, r := range chunk {
		cl := int(r.Class)
		if cl < 0 || cl >= k.cfg.K {
			continue
		}
		if len(r.Features) != p.dim {
			return nil, fmt.Errorf("model: KMeans PartialFit feature width %d != %d", len(r.Features), p.dim)
		}
		for j, v := range r.Features {
			p.sums[cl][j] += float64(v)
		}
		p.counts[cl]++
	}
	return p, nil
}

// Merge totals the per-class sums in the given (chunk-index) order and
// moves each centroid to its class mean. A class with no records across the
// whole pool keeps its previous centroid; with no previous model every
// class must be populated. Partials must agree with each other and with the
// current centroids on K and the feature width; otherwise Merge refuses
// before anything is written.
func (k *KMeans) Merge(parts []Partial) error {
	if len(parts) == 0 {
		return fmt.Errorf("model: KMeans Merge needs partials")
	}
	first, ok := parts[0].(*kmeansPartial)
	if !ok {
		return fmt.Errorf("model: KMeans Merge got foreign partial %T", parts[0])
	}
	dim := first.dim
	if k.km != nil && dim != k.NumFeatures() {
		return fmt.Errorf("model: KMeans Merge feature width %d, centroids have %d", dim, k.NumFeatures())
	}
	for i, raw := range parts {
		p, ok := raw.(*kmeansPartial)
		if !ok {
			return fmt.Errorf("model: KMeans Merge got foreign partial %T", raw)
		}
		if p.dim != dim {
			return fmt.Errorf("model: KMeans Merge feature width %d != %d", p.dim, dim)
		}
		if len(p.sums) != k.cfg.K {
			return fmt.Errorf("model: KMeans Merge partial %d has K=%d, model has K=%d", i, len(p.sums), k.cfg.K)
		}
	}
	sums := make([][]float64, k.cfg.K)
	counts := make([]int, k.cfg.K)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for _, raw := range parts {
		p := raw.(*kmeansPartial)
		for c := range sums {
			for j := range sums[c] {
				sums[c][j] += p.sums[c][j]
			}
			counts[c] += p.counts[c]
		}
	}
	merged := &ml.KMeans{Centroids: make([]tensor.Vec, k.cfg.K)}
	for c := 0; c < k.cfg.K; c++ {
		if counts[c] == 0 {
			if k.km == nil {
				return fmt.Errorf("model: KMeans Merge has no records for class %d and no previous centroid", c)
			}
			merged.Centroids[c] = k.km.Centroids[c]
			continue
		}
		v := make(tensor.Vec, dim)
		for j := range v {
			v[j] = float32(sums[c][j] / float64(counts[c]))
		}
		merged.Centroids[c] = v
	}
	k.km = merged
	return nil
}

// align reorders km's centroids so the centroid index predicts the majority
// class of its cluster (greedy one-to-one assignment by vote count).
func (k *KMeans) align(km *ml.KMeans, X []tensor.Vec, recs []dataset.Record) *ml.KMeans {
	// votes[cluster][class] over the training records.
	votes := make([][]int, k.cfg.K)
	for c := range votes {
		votes[c] = make([]int, k.cfg.K)
	}
	for i, x := range X {
		cl := int(recs[i].Class)
		if cl >= 0 && cl < k.cfg.K {
			votes[km.Predict(x)][cl]++
		}
	}
	assign := make([]int, k.cfg.K) // cluster -> class
	usedCluster := make([]bool, k.cfg.K)
	usedClass := make([]bool, k.cfg.K)
	for round := 0; round < k.cfg.K; round++ {
		bc, bl, best := -1, -1, -1
		for c := 0; c < k.cfg.K; c++ {
			if usedCluster[c] {
				continue
			}
			for cl := 0; cl < k.cfg.K; cl++ {
				if usedClass[cl] {
					continue
				}
				if votes[c][cl] > best {
					bc, bl, best = c, cl, votes[c][cl]
				}
			}
		}
		assign[bc] = bl
		usedCluster[bc], usedClass[bl] = true, true
	}
	aligned := &ml.KMeans{Centroids: make([]tensor.Vec, k.cfg.K)}
	for c, cl := range assign {
		aligned.Centroids[cl] = km.Centroids[c]
	}
	return aligned
}

// Lower quantises the centroids against the pinned input quantiser and
// builds a fresh nearest-centroid graph (ArgMin output = category index).
func (k *KMeans) Lower(inQ fixed.Quantizer) (*mr.Graph, error) {
	if k.km == nil {
		return nil, fmt.Errorf("model: KMeans Lower before Fit")
	}
	k.version++
	g, err := lower.KMeans(k.km, inQ, fmt.Sprintf("kmeans-%dc-v%d", k.cfg.K, k.version))
	if err != nil {
		return nil, err
	}
	snap := &ml.KMeans{Centroids: make([]tensor.Vec, k.km.K())}
	for i, c := range k.km.Centroids {
		snap.Centroids[i] = c.Clone()
	}
	k.deployed, k.refInQ = snap, inQ
	return g, nil
}

// Score returns the predicted category index.
func (k *KMeans) Score(x tensor.Vec) float64 {
	if k.km == nil {
		return 0
	}
	return float64(k.km.Predict(x))
}

// ReferenceDecision returns the nearest centroid measured in the deployed
// quantised code domain — the graph's ArgMin output.
func (k *KMeans) ReferenceDecision(inQ fixed.Quantizer, x tensor.Vec) (int32, error) {
	if k.deployed == nil {
		return 0, fmt.Errorf("model: KMeans reference before Lower")
	}
	if k.refInQ != inQ {
		return 0, fmt.Errorf("model: KMeans reference quantiser (scale %v) differs from deployed (scale %v)",
			inQ.Scale, k.refInQ.Scale)
	}
	return int32(lower.QuantizeKMeansPredict(k.deployed, inQ, x)), nil
}
