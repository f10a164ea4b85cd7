// The continuous-time queueing story: deploy the anomaly DNN on a sharded
// Pipeline, then ask the question the batch plane cannot — what transit
// latency and loss do packets see when arrivals are a process in time?
// Poisson vs bursty on/off arrivals at the same average load, the
// binary-searched sustainable rate of the deployment, and the cost of a
// live control-plane weight push under 80% load (latency spike, drops,
// recovery) all come from taurus.NewSimulator over the pipeline's measured
// per-shard service model.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"taurus"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// Train, quantise and deploy the 6-feature anomaly DNN on 4 shards.
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
	pl, err := taurus.NewPipeline(6, taurus.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(program, q.InputQ, taurus.CompileOptions{}); err != nil {
		log.Fatal(err)
	}
	svc := pl.ServiceModel()
	nominal := svc.NominalPPS()
	fmt.Printf("deployment: %d shards, II=%.0f ns, fill latency %.0f ns, nominal %.1f Gpps\n\n",
		svc.Shards, svc.MLServiceNs, svc.LatencyNs, nominal/1e9)

	// Tail latency vs arrival shape: Poisson and a bursty on/off source at
	// the same 70% average load.
	report := func(name string, arr taurus.ArrivalProcess) {
		sim, err := taurus.NewSimulator(pl, arr)
		if err != nil {
			log.Fatal(err)
		}
		sim.RunPackets(300_000)
		sim.Drain()
		r := sim.Stats()
		fmt.Printf("  %-8s p50 %6.0f ns  p99 %6.0f ns  p999 %6.0f ns  drops %5.2f%%  max depth %d\n",
			name, r.P50Ns, r.P99Ns, r.P999Ns, r.DropFrac*100, r.MaxDepth)
	}
	load := 0.7 * nominal
	pois, err := taurus.NewPoissonArrivals(load, 512, 7)
	if err != nil {
		log.Fatal(err)
	}
	burst, err := taurus.NewOnOffArrivals(taurus.OnOffArrivalConfig{
		PeakPPS: 1.75 * load, BasePPS: 0.25 * load,
		MeanOnNs: 2_000, MeanOffNs: 2_000, Flows: 512, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transit latency at 70%% load (%.1f Gpps offered):\n", load/1e9)
	report("poisson", pois)
	report("on/off", burst)

	// Shard sizing for an SLO: the sustainable rate under each shape.
	for _, shape := range []string{"poisson", "on/off"} {
		shape := shape
		mk := func(pps float64) (taurus.ArrivalProcess, error) {
			if shape == "poisson" {
				return taurus.NewPoissonArrivals(pps, 512, 7)
			}
			return taurus.NewOnOffArrivals(taurus.OnOffArrivalConfig{
				PeakPPS: 1.75 * pps, BasePPS: 0.25 * pps,
				MeanOnNs: 2_000, MeanOffNs: 2_000, Flows: 512, Seed: 7,
			})
		}
		max, err := taurus.MaxSustainableLoad(pl, mk, 80_000, 1e-3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sustainable load (%s, <=0.1%% drops): %.2f Gpps (%.0f%% of nominal)\n",
			shape, max/1e9, 100*max/nominal)
	}

	// A control-plane weight push under 80% load: the shards pause for the
	// out-of-band weight write while arrivals keep queueing. In a closed
	// loop a retrain's push would call sim.Push; here we inject it directly.
	arr, err := taurus.NewPoissonArrivals(0.8*nominal, 512, 11)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := taurus.NewSimulator(pl, arr)
	if err != nil {
		log.Fatal(err)
	}
	window := func(name string) {
		r := sim.Stats()
		sim.ResetStats()
		fmt.Printf("  %-12s p99 %7.0f ns  drops %5.2f%%  max depth %d\n",
			name, r.P99Ns, r.DropFrac*100, r.MaxDepth)
	}
	fmt.Println("\nweight push under 80% load (10µs per-shard stall):")
	sim.RunPackets(200_000)
	window("before push")
	sim.Push()
	sim.RunPackets(200_000)
	window("push window")
	sim.RunPackets(200_000)
	window("after push")
}
