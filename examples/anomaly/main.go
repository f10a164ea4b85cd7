// Anomaly detection end to end (the paper's running example, §3 + §5.2.2):
// train the DNN, install it in a Taurus switch, stream labelled traffic
// through, measure per-packet F1, then push a control-plane weight update
// (Figure 1) and show the device picking it up without re-placement.
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
	// model).
	train := func(records int, epochs int) (*taurus.DNN, *taurus.QuantizedDNN, *taurus.Graph) {
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
		return net, q, g
	}
	_, q1, g1 := train(200, 4)
	_, _, g2 := train(4000, 30)

	dev, err := taurus.NewDevice(6)
	if err != nil {
		log.Fatal(err)
	}
	// LoadModel and UpdateWeights run the static gate before anything reaches
	// the data plane.
	if err := dev.LoadModel(g1, q1.InputQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}

	// Stream traffic and measure per-packet detection quality.
	measure := func(n int) (f1 float64) {
		var tp, fp, fn, tn int
		for i := 0; i < n; i++ {
			rec := gen.Record()
			pkt := taurus.BuildTCPPacket(0x0b000000+uint32(i), 0x0a800001,
				uint16(1024+i%6000), 443, 0x10, 64)
			dec, err := dev.Process(taurus.PacketIn{Data: pkt, Features: rec.Features})
			if err != nil {
				log.Fatal(err)
			}
			anom := dec.Verdict != taurus.Forward
			switch {
			case anom && rec.Anomalous():
				tp++
			case anom && !rec.Anomalous():
				fp++
			case !anom && rec.Anomalous():
				fn++
			default:
				tn++
			}
		}
		if tp == 0 {
			return 0
		}
		p := float64(tp) / float64(tp+fp)
		r := float64(tp) / float64(tp+fn)
		return 100 * 2 * p * r / (p + r)
	}

	before := measure(4000)
	fmt.Printf("per-packet F1 with the v1 (early) model:  %.1f\n", before)

	// Control plane pushes new weights out of band; the placement is
	// untouched (§3.3.1 "out-of-band weight updates").
	if err := dev.UpdateWeights(g2); err != nil {
		log.Fatal(err)
	}
	after := measure(4000)
	fmt.Printf("per-packet F1 after the weight update:    %.1f\n", after)
	fmt.Printf("model latency unchanged at %.0f ns (II=%d)\n",
		dev.ModelLatencyNs(), dev.ModelII())
	if after <= before {
		fmt.Println("note: update did not improve F1 on this draw")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
