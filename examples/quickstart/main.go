// Quickstart: train a tiny anomaly DNN, quantise it to 8 bits, compile it
// onto the Taurus MapReduce grid, install it in a switch, and classify a few
// packets per-packet at line rate.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"taurus"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. Control plane: train the paper's anomaly DNN (6 features, hidden
	//    12/6/3) on synthetic NSL-KDD-like records.
	gen, err := taurus.NewAnomalyGenerator(taurus.DefaultAnomalyConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	X, y := taurus.SplitRecords(gen.Records(2000))
	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid, rng)
	trainer := taurus.NewTrainer(net, taurus.SGDConfig{
		LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20,
	}, rng)
	loss := trainer.Fit(X, y)
	fmt.Printf("trained DNN %s, final loss %.3f\n", net.KernelString(), loss)

	// 2. Quantise to the 8-bit data-plane format and lower to MapReduce.
	q, err := taurus.QuantizeDNN(net, X[:300])
	if err != nil {
		log.Fatal(err)
	}
	program, err := taurus.LowerDNN(q, "anomaly-dnn")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Compile onto the CGRA grid and inspect the footprint (Table 5).
	compiled, err := taurus.Compile(program, taurus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %d CUs, %d MUs, %d ns latency, II=%d, %.2f mm^2 (+%.2f%% chip area)\n",
		compiled.Usage.CUs, compiled.Usage.MUs, compiled.Stats.LatencyCycles,
		compiled.Stats.II, compiled.AreaMM2(), compiled.Usage.AreaOverheadPct())

	// 4. Build a Taurus switch and install the model; LoadModel refuses a
	// graph the static verifier rejects.
	dev, err := taurus.NewDevice(6)
	if err != nil {
		log.Fatal(err)
	}
	if err := dev.LoadModel(program, q.InputQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}

	// 5. Push packets through the batch hot path (the same zero-allocation
	//    loop a Pipeline shard runs; see examples/pipeline for the sharded
	//    version). Features ride along as the expanded-trace telemetry of
	//    §5.2.2 and land in the stateful registers.
	ins := make([]taurus.PacketIn, 2000)
	out := make([]taurus.Decision, len(ins))
	for i := range ins {
		rec := gen.Record()
		pkt := taurus.BuildTCPPacket(0x0a000000+uint32(i), 0x0a800001,
			uint16(1024+i%6000), 443, 0x10, 64)
		ins[i] = taurus.PacketIn{Data: pkt, Features: rec.Features}
	}
	if err := dev.ProcessBatch(ins, out); err != nil {
		log.Fatal(err)
	}
	verdicts := map[taurus.Verdict]int{}
	for _, dec := range out {
		verdicts[dec.Verdict]++
	}
	fmt.Printf("verdicts: forward=%d flag=%d drop=%d\n",
		verdicts[taurus.Forward], verdicts[taurus.Flag], verdicts[taurus.Drop])
	st := dev.Stats()
	fmt.Printf("device: %d packets, %d ML inferences, %d bypassed, model adds %.0f ns\n",
		st.Processed, st.MLInferences, st.Bypassed, dev.ModelLatencyNs())
}
