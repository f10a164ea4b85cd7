// Anomaly detection end to end (the paper's running example, §3 + §5.2.2):
// train the DNN, quantise it to 8 bits, compile it onto the MapReduce grid
// (its Table 5 footprint), install it in a Taurus switch, stream labelled
// traffic through the batch hot path and score per-packet F1, then push a
// control-plane weight update (Figure 1) and score again: the device serves
// the new weights without re-placement.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"taurus"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	gen, err := taurus.NewAnomalyGenerator(taurus.DefaultAnomalyConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}

	// Train v1 on a small early sample (a weak model, as at deployment
	// time), and v2 on much more data (the control plane's later, better
	// model). Each is quantised to the data-plane format and lowered to a
	// MapReduce program.
	train := func(records, epochs int) (*taurus.QuantizedDNN, *taurus.Graph) {
		X, y := taurus.SplitRecords(gen.Records(records))
		net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid, rng)
		taurus.NewTrainer(net, taurus.SGDConfig{
			LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: epochs,
		}, rng).Fit(X, y)
		q, err := taurus.QuantizeDNN(net, X[:min(300, len(X))])
		if err != nil {
			log.Fatal(err)
		}
		g, err := taurus.LowerDNN(q, "anomaly-dnn")
		if err != nil {
			log.Fatal(err)
		}
		return q, g
	}
	q1, g1 := train(200, 4)
	_, g2 := train(4000, 30)

	compiled, err := taurus.Compile(g1, taurus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d CUs, %d MUs, %d ns latency, %.2f mm^2 (+%.2f%% chip area)\n",
		compiled.Usage.CUs, compiled.Usage.MUs, compiled.Stats.LatencyCycles,
		compiled.AreaMM2(), compiled.Usage.AreaOverheadPct())

	// LoadModel and UpdateWeights run the static gate before anything
	// reaches the data plane.
	dev, err := taurus.NewDevice(6)
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.LoadModel(g1, q1.InputQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}

	// Stream labelled traffic through the batch hot path (the loop a
	// Pipeline shard runs; see examples/pipeline for the sharded plane).
	// Features ride along as the expanded-trace telemetry of §5.2.2.
	ins := make([]taurus.PacketIn, 4000)
	out := make([]taurus.Decision, len(ins))
	truth := make([]bool, len(ins))
	measure := func() float64 {
		for i := range ins {
			rec := gen.Record()
			pkt := taurus.BuildTCPPacket(0x0b000000+uint32(i), 0x0a800001,
				uint16(1024+i%6000), 443, 0x10, 64)
			ins[i], truth[i] = taurus.PacketIn{Data: pkt, Features: rec.Features}, rec.Anomalous()
		}
		if err := dev.ProcessBatch(ins, out); err != nil {
			log.Fatal(err)
		}
		var conf taurus.BinaryConfusion
		for i := range out {
			conf.Observe(out[i].Verdict != taurus.Forward, truth[i])
		}
		return conf.F1()
	}

	before := measure()
	fmt.Printf("per-packet F1 with the v1 (early) model:  %.1f\n", before)

	// Control plane pushes new weights out of band; the placement is
	// untouched (§3.3.1 "out-of-band weight updates").
	if err := dev.UpdateWeights(g2); err != nil {
		log.Fatal(err)
	}
	after := measure()
	fmt.Printf("per-packet F1 after the weight update:    %.1f\n", after)

	// What the device charges: each packet crosses the block's latency, and
	// each ML packet occupies it for the tape's scheduled II.
	st := dev.Stats()
	fmt.Printf("device: %d packets, %d ML inferences, block busy %.0f ns, model latency unchanged at %.0f ns\n",
		st.Processed, st.MLInferences, st.ModelBusyNs, dev.ModelLatencyNs())
	if after <= before {
		fmt.Println("note: update did not improve F1 on this draw")
	}
}
