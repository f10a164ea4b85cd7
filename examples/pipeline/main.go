// The v1 traffic plane end to end: train the anomaly DNN, build a sharded
// Pipeline, and push batches of packets through it the way a line-rate
// deployment would — flow-hashed across shards, zero allocations in the
// steady state, with a live control-plane weight update mid-traffic. The
// modelled drain time of each batch shows throughput scaling with shards:
// every shard's MapReduce block accepts one packet per II cycles at 1 GHz.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"taurus"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// Control plane: train and quantise the 6-feature anomaly DNN.
	gen, err := taurus.NewAnomalyGenerator(taurus.DefaultAnomalyConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	X, y := taurus.SplitRecords(gen.Records(2000))
	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid, rng)
	taurus.NewTrainer(net, taurus.SGDConfig{
		LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20,
	}, rng).Fit(X, y)
	q, err := taurus.QuantizeDNN(net, X[:300])
	if err != nil {
		log.Fatal(err)
	}
	program, err := taurus.LowerDNN(q, "anomaly-dnn")
	if err != nil {
		log.Fatal(err)
	}

	// Traffic plane: 8 shards, flow-hash partitioned, drop on anomaly.
	pl, err := taurus.NewPipeline(6, taurus.WithShards(8), taurus.WithDropOnAnomaly())
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(program, q.InputQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline: %d shards, model II=%d, latency %.0f ns\n",
		pl.NumShards(), pl.ModelII(), pl.ModelLatencyNs())

	// Pre-build a working set of flows; reuse the batch buffers across
	// rounds — the steady-state hot path allocates nothing.
	const (
		flows     = 512
		batchSize = 4096
		rounds    = 16
	)
	pkts := make([][]byte, flows)
	feats := make([][]float32, flows)
	for f := range pkts {
		pkts[f] = taurus.BuildTCPPacket(0x0a000000+uint32(f), 0x0a800001,
			uint16(1024+f), 443, 0x10, 64)
		feats[f] = gen.Record().Features
	}
	ins := make([]taurus.PacketIn, batchSize)
	out := make([]taurus.Decision, batchSize)
	for i := range ins {
		ins[i] = taurus.PacketIn{Data: pkts[i%flows], Features: feats[i%flows]}
	}

	var last taurus.BatchStats
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			// Mid-traffic control-plane push: retrain on more data and swap
			// weights into every shard without re-placement (§3.3.1).
			X2, y2 := taurus.SplitRecords(gen.Records(4000))
			taurus.NewTrainer(net, taurus.SGDConfig{
				LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 10,
			}, rng).Fit(X2, y2)
			q2, err := taurus.QuantizeDNN(net, X2[:300])
			if err != nil {
				log.Fatal(err)
			}
			p2, err := taurus.LowerDNN(q2, "anomaly-dnn-v2")
			if err != nil {
				log.Fatal(err)
			}
			if err := pl.UpdateWeights(p2); err != nil {
				log.Fatal(err)
			}
			fmt.Println("weights updated live across all shards")
		}
		bs, err := pl.ProcessBatch(ins, out)
		if err != nil {
			log.Fatal(err)
		}
		last = bs
	}

	st := pl.Stats()
	fmt.Printf("traffic: %d packets, %d ML inferences, %d dropped, %d flagged\n",
		st.Processed, st.MLInferences, st.Dropped, st.Flagged)
	fmt.Printf("modelled drain of the last %d-packet batch: %.0f ns (%.1f Mpps across %d shards)\n",
		last.Packets, last.ModelNs, last.ModelPacketsPerSec()/1e6, pl.NumShards())
	for i, ss := range pl.ShardStats() {
		fmt.Printf("  shard %d: %6d packets, busy %.0f ns\n", i, ss.Processed, ss.ModelBusyNs)
	}
}
