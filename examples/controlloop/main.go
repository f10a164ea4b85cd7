// The closed control loop, live (Figure 1, §3.3.1): a sharded Pipeline
// serves concept-drifting traffic while a background Controller samples its
// decisions, detects the drift, retrains the deployed model on freshly
// labelled telemetry, and pushes requantised weights to every shard
// out-of-band — packets never stop flowing. The controller is
// model-agnostic: this example deploys the anomaly DNN through its
// Deployable lifecycle, and the same loop retrains the SVM or the KMeans
// IoT classifier (run `taurus-bench -exp drift -model svm|iot` for the
// frozen-vs-loop tables). Labels arrive one round stale with 5% noise —
// the control plane trains on realistic telemetry, not oracle truth.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"taurus"
)

func main() {
	const (
		flows     = 256
		batchSize = 2048
		rounds    = 24
	)

	// Concept-drifting workload: phase 0 is the calibrated KDD-like world,
	// phase 1 has the benign flash-crowd and low-and-slow attacks. The
	// label feed lags a round and carries 5% wrong labels.
	stream, err := taurus.NewDriftingStream(taurus.DefaultDriftConfig(), 1, flows,
		taurus.WithLabelDelay(1), taurus.WithLabelNoise(0.05))
	if err != nil {
		log.Fatal(err)
	}

	// Deployment-time training through the Deployable lifecycle: Fit on
	// pre-drift telemetry, calibrate the input domain, Lower, install.
	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid,
		rand.New(rand.NewSource(1)))
	dep, err := taurus.NewDNNDeployable(net, taurus.DNNDeployableConfig{Epochs: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	recs := stream.Labelled(4000)
	inQ := taurus.InputQuantizerFor(recs)
	for i := 0; i < 3; i++ { // ~30 warm epochs
		if err := dep.Fit(recs); err != nil {
			log.Fatal(err)
		}
	}
	program, err := dep.Lower(inQ)
	if err != nil {
		log.Fatal(err)
	}

	pl, err := taurus.NewPipeline(6, taurus.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(program, inQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}

	// The controller owns the Deployable from here on; it retrains on the
	// stream's labelled telemetry and pushes to every shard, with the input
	// quantiser pinned from the pipeline. Background mode: retraining
	// overlaps the traffic below.
	ctrl, err := taurus.NewController(pl, dep, stream.Labelled,
		taurus.WithRetrainRecords(3000))
	if err != nil {
		log.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Close()

	f1 := func(out []taurus.Decision, truth []bool) float64 {
		var conf taurus.BinaryConfusion
		for i := range out {
			conf.Observe(out[i].Verdict != taurus.Forward, truth[i])
		}
		return conf.F1()
	}

	out := make([]taurus.Decision, batchSize)
	for r := 0; r < rounds; r++ {
		// Drift ramps in over the middle third of the run.
		phase := float64(r-rounds/3+1) / float64(rounds/3)
		stream.SetPhase(phase) // SetPhase clamps into [0, 1]
		ins, _, truth := stream.NextBatch(batchSize)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			log.Fatal(err)
		}
		ctrl.Observe(out) // background retrain fires on detected drift
		st := ctrl.Stats()
		fmt.Printf("round %2d  phase %.2f  F1 %5.1f  flag-rate %.2f  drifts %d  retrains %d\n",
			r, stream.Phase(), f1(out, truth), st.LastFlagRate, st.Drifts, st.Retrains)
		// Give the asynchronous retrain a moment to land, as live traffic
		// would; the loop keeps serving batches regardless.
		time.Sleep(10 * time.Millisecond)
	}
	if err := ctrl.Err(); err != nil {
		log.Fatal(err)
	}

	st := ctrl.Stats()
	fmt.Printf("controller: %d decisions sampled, %d windows, %d drifts, %d retrains pushed live\n",
		st.Sampled, st.Windows, st.Drifts, st.Retrains)
}
