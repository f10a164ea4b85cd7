// Distributed retraining under fault injection: one controller, one
// sharded pipeline, a drifting workload — and every retrain sharded
// coordinator/worker style across four in-process workers (WithDistFit).
// Each round the fault injector crashes one worker mid-fleet; the
// coordinator re-issues the lost tasks past their deadline, discards
// duplicate results first-write-wins, and merges the chunk partials in
// deterministic chunk-index order, so the graph pushed to the data plane
// is bit-identical to what an undisturbed single-process merge would have
// pushed. Compare `taurus-bench -exp distfit`, which scores this loop
// against the single-process baseline and the sequential reference merge.
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
		rounds    = 12
	)

	stream, err := taurus.NewDriftingStream(taurus.DefaultDriftConfig(), 1, flows)
	if err != nil {
		log.Fatal(err)
	}

	// Warm the DNN lifecycle on pre-drift labels, lower, deploy.
	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid,
		rand.New(rand.NewSource(1)))
	dep, err := taurus.NewDNNDeployable(net, taurus.DNNDeployableConfig{Epochs: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	recs := stream.Labelled(3000)
	inQ := taurus.InputQuantizerFor(recs)
	for i := 0; i < 3; i++ {
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

	// The controller owns the Deployable; WithDistFit routes its retrains
	// through a 4-worker coordinator. A generous task deadline keeps
	// honest chunks from being re-issued — only crashed workers' tasks are.
	ctrl, err := taurus.NewController(pl, dep, stream.Labelled,
		taurus.WithRetrainRecords(2048),
		taurus.WithDistFit(taurus.DistFitConfig{
			Workers:      4,
			ChunkSize:    512,
			TaskDeadline: 150 * time.Millisecond,
		}))
	if err != nil {
		log.Fatal(err)
	}
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
		stream.SetPhase(float64(r) / 8) // SetPhase clamps into [0, 1]
		ins, _, truth := stream.NextBatch(batchSize)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			log.Fatal(err)
		}
		drifted := ctrl.Observe(out)
		line := fmt.Sprintf("round %2d phase %.2f F1 %5.1f", r, stream.Phase(), f1(out, truth))
		if drifted {
			// Fault injection: crash the lowest-id live worker before the
			// retrain, replace it afterwards. The coordinator re-executes
			// whatever the dead worker was holding.
			coord := ctrl.DistFit()
			for _, w := range coord.Workers() {
				if !w.Dead() {
					w.Kill()
					break
				}
			}
			if err := ctrl.RetrainNow(); err != nil {
				log.Fatal(err)
			}
			coord.AddWorker()
			st := ctrl.Stats()
			line += fmt.Sprintf(" | retrain #%d on %d workers (reissued so far: %d)",
				st.Retrains, st.LastRetrainWorkers, st.ReissuedTasks)
		}
		fmt.Println(line)
	}

	st := ctrl.Stats()
	fmt.Printf("controller: %d drifts, %d retrains, %d tasks re-executed; distfit stats: %+v\n",
		st.Drifts, st.Retrains, st.ReissuedTasks, ctrl.DistFit().Stats())
}
