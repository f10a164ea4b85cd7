// Package model defines the Deployable lifecycle contract that makes the
// Taurus control loop model-agnostic. The paper positions the switch as a
// generic per-packet ML substrate — anomaly DNNs, SVMs and clustering all
// lower onto the same MapReduce grid (§5.1.2) — so the control plane must be
// able to retrain and redeploy any of them, not just the DNN. A Deployable
// packages everything the controller needs: online (re)training, lowering to
// a MapReduce graph against the data plane's pinned input domain, a float
// score for diagnostics, and a quantised reference decision for parity
// checks against the data plane.
//
// # The contract
//
// Implementers must guarantee three properties beyond the method signatures:
//
// Quantiser pinning. Lower(inQ) must scale every deployed parameter against
// the input quantiser it is given and must never recalibrate the input
// domain from the latest training batch. The data plane's preprocessing MATs
// keep quantising features with the quantiser installed at LoadModel for the
// lifetime of the deployment, so a graph lowered against any other input
// scale would silently disagree with the features it receives. (The layers
// *behind* the input may rescale freely — weight and activation quantisers
// are part of the pushed weights.)
//
// Structural stability. Successive Lower calls on the same Deployable must
// produce structurally identical graphs — same node kinds, widths and
// wiring; only constants, multipliers and LUT contents may differ. The data
// plane applies retrains via UpdateWeights, which rejects structural change
// (the placed CGRA design is fixed hardware). This is why model.SVM pins its
// support set to exactly MaxSV entries, padding with zero-coefficient
// vectors when SMO finds fewer: the per-support-vector subgraphs must not
// come and go between retrains.
//
// Fresh graphs. Each Lower call must return a freshly built graph that
// shares no mutable state with the Deployable's own model. The data plane
// copies the weights out during the push and keeps nothing of the graph, but
// the controller keeps it as its record of the last push — what a late
// joiner's catch-up push re-sends (a rollback re-sends no graph) — while the
// trainer is already mutating its float state for the next round. Holding a
// reference into the returned graph (or returning the same graph twice)
// would rewrite that record.
//
// Fit and Lower are serialised by the controller (they run under its retrain
// lock); Score and ReferenceDecision may be called concurrently with
// neither.
//
// # Distributed training
//
// A Deployable that also implements PartialFitter can split one Fit across
// workers: PartialFit maps a chunk of records to an opaque Partial, Merge
// reduces the partials back into the model. The extension carries its own
// contract — PartialFit deterministic in the chunk contents and read-only
// on the model, Merge order-deterministic with callers folding in
// chunk-index order — so a coordinator (internal/distfit) can re-execute
// lost tasks and still push a graph bit-identical to the failure-free run.
// See PartialFitter for the full statement. All three families implement
// it: the DNN merges federated weight deltas, the SVM cascade-merges
// candidate support sets, KMeans merges per-class centroid sums (the one
// exactly linear merge, which its warm Fit is defined in terms of).
package model

import (
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/tensor"
)

// InputQuantizerFor calibrates the data plane's input quantiser from the
// feature ranges of a deployment-time record sample — the quantiser passed
// to LoadModel and pinned for every later Lower call.
func InputQuantizerFor(recs []dataset.Record) fixed.Quantizer {
	var m float32
	for _, r := range recs {
		for _, v := range r.Features {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
		}
	}
	return fixed.NewQuantizer(float64(m))
}

// Deployable is one model's lifecycle as the control plane sees it: train on
// labelled records, lower onto the MapReduce grid, score for diagnostics,
// and reproduce the data plane's quantised decision for parity checks. See
// the package documentation for the implementer contract.
type Deployable interface {
	// Name identifies the model family (used in graph names and reports).
	Name() string

	// NumFeatures returns the model's input width, or 0 before the first
	// Fit when the width is learned from data.
	NumFeatures() int

	// Fit (re)trains the float model on labelled records reflecting the
	// current traffic distribution. Implementations warm-start from their
	// previous state where the model family allows it.
	Fit(recs []dataset.Record) error

	// Lower quantises the current float model against the pinned input
	// quantiser inQ and builds a fresh MapReduce graph. See the package doc
	// for the pinning, stability and ownership obligations.
	Lower(inQ fixed.Quantizer) (*mr.Graph, error)

	// Score returns the model's float-side decision statistic for x: the
	// anomaly score for detectors, the predicted category index for
	// classifiers. Valid after the first Fit.
	Score(x tensor.Vec) float64

	// ReferenceDecision returns the quantised decision code the data plane
	// must produce for x — bit-identical to the single output lane of the
	// most recently lowered graph. inQ must equal the quantiser passed to
	// that Lower call; an error is returned before the first Lower or on a
	// quantiser mismatch. Note the reference tracks Lower, not the push:
	// if a controller retrain fails after Lower (the weight push is
	// rejected), the data plane lags the reference until the next
	// successful retrain.
	ReferenceDecision(inQ fixed.Quantizer, x tensor.Vec) (int32, error)
}
