// One control plane, three switches (§3.3.1 scaled out): a single trainer
// drives a fleet of sharded Pipelines, each serving its own traffic mix
// through an independently seeded concept-drifting stream. The switches
// drift at different times; drift detected on any member pools labelled
// telemetry from the drifted members — weighted by their traffic share —
// retrains the one shared model, and pushes the freshly lowered graph to
// every switch atomically. Compare `taurus-bench -exp fleet`, which scores
// this loop against a frozen fleet and a dedicated controller per switch.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"taurus"
)

func main() {
	const (
		members   = 3
		flows     = 256
		batchSize = 2048
		rounds    = 20
		stagger   = 4 // rounds between successive members' drift onsets
	)

	// Per-member streams: the same drifting anomaly workload, seeded
	// independently so every switch sees its own flows and records.
	streams, err := taurus.NewDriftingStreams(taurus.DefaultDriftConfig(), 1, flows, members)
	if err != nil {
		log.Fatal(err)
	}

	// One shared deployment: fit the DNN lifecycle on pre-drift labels
	// pooled across the members, lower once, install on every switch.
	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid,
		rand.New(rand.NewSource(1)))
	dep, err := taurus.NewDNNDeployable(net, taurus.DNNDeployableConfig{Epochs: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var recs []taurus.Record
	for _, s := range streams {
		recs = append(recs, s.Labelled(1500)...)
	}
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

	pipes := make([]*taurus.Pipeline, members)
	for i := range pipes {
		pl, err := taurus.NewPipeline(6, taurus.WithShards(4))
		if err != nil {
			log.Fatal(err)
		}
		defer pl.Close()
		if err := pl.LoadModel(program, inQ, taurus.CompileOptions{}); err != nil {
			log.Fatal(err)
		}
		pipes[i] = pl
	}

	// The fleet owns the Deployable from here on. Each retrain draws 8000
	// labelled records once, pooled across the drifted switches, and fits
	// the shared model on them once.
	fleet, err := taurus.NewFleet(dep, inQ, taurus.WithRetrainRecords(8000))
	if err != nil {
		log.Fatal(err)
	}
	for i, pl := range pipes {
		if _, err := fleet.Register(fmt.Sprintf("switch-%d", i), pl, streams[i].Labelled); err != nil {
			log.Fatal(err)
		}
	}

	f1 := func(out []taurus.Decision, truth []bool) float64 {
		var conf taurus.BinaryConfusion
		for i := range out {
			conf.Observe(out[i].Verdict != taurus.Forward, truth[i])
		}
		return conf.F1()
	}

	outs := make([][]taurus.Decision, members)
	for i := range outs {
		outs[i] = make([]taurus.Decision, batchSize)
	}
	for r := 0; r < rounds; r++ {
		drifted := false
		line := fmt.Sprintf("round %2d ", r)
		for i, pl := range pipes {
			// Member i's drift ramps in over 4 rounds, starting at its own
			// staggered onset.
			phase := float64(r-(4+i*stagger)+1) / 4
			streams[i].SetPhase(phase) // SetPhase clamps into [0, 1]
			ins, _, truth := streams[i].NextBatch(batchSize)
			if _, err := pl.ProcessBatch(ins, outs[i]); err != nil {
				log.Fatal(err)
			}
			if fleet.Observe(i, outs[i]) {
				drifted = true
			}
			line += fmt.Sprintf(" | sw%d phase %.2f F1 %5.1f", i, streams[i].Phase(), f1(outs[i], truth))
		}
		// One shared retrain answers every member that drifted this round.
		if drifted {
			if err := fleet.RetrainNow(); err != nil {
				log.Fatal(err)
			}
			st := fleet.Stats()
			line += fmt.Sprintf(" | retrain #%d (pooled %d records)", st.Retrains, st.LastPoolSize)
		}
		fmt.Println(line)
	}

	st := fleet.Stats()
	fmt.Printf("fleet: %d retrains across %d switches;", st.Retrains, members)
	for _, m := range st.Members {
		fmt.Printf(" %s sampled %d / drifted %d times;", m.Name, m.Sampled, m.Drifts)
	}
	fmt.Println()
}
