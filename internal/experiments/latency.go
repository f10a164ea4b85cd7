package experiments

import (
	"fmt"

	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/netqueue"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// LatencyRow is one (shard count, arrival shape) point of the queueing
// experiment: what transit latency and loss packets see when arrivals are a
// process in time rather than a pre-formed batch.
type LatencyRow struct {
	Shards int
	// Process is the arrival shape: "poisson" or "onoff" (bursty MMPP with
	// the same long-run average rate).
	Process string
	// LoadPct is the offered load as a fraction of the deployment's nominal
	// capacity (shards × 1e9/II pps).
	LoadPct float64
	// OfferedMpps is the absolute offered rate.
	OfferedMpps float64
	// P50Ns/P99Ns/P999Ns are transit-latency percentiles (queueing wait +
	// service + pipeline fill).
	P50Ns, P99Ns, P999Ns float64
	// DropPct is the fraction of arrivals lost to full queues, in percent.
	DropPct float64
	// MaxDepth is the deepest per-shard queue reached.
	MaxDepth int
	// SustainableMpps is the highest offered rate this configuration
	// sustains with at most 0.1% drops (binary-searched).
	SustainableMpps float64
}

// PushRow is one traffic round of the push-under-load story: the drift
// experiment's collapse-and-recover loop with queueing underneath, showing
// what a live weight push costs in latency and loss.
type PushRow struct {
	Round int
	// Phase is the drift phase of the round's traffic.
	Phase float64
	// Retrains is the cumulative controller retrain count; Pushes is how
	// many weight pushes stalled the simulated shards during this round.
	Retrains int
	Pushes   int
	// P99Ns is the round's 99th-percentile transit latency; DropPct its
	// drop fraction in percent; MaxDepth its deepest shard queue.
	P99Ns    float64
	DropPct  float64
	MaxDepth int
}

// LatencyResult bundles both sections of the latency experiment.
type LatencyResult struct {
	Load []LatencyRow `json:"load"`
	Push []PushRow    `json:"push"`
}

const (
	latencyFlows        = 512
	latencyLoadFrac     = 0.70
	latencyRunPackets   = 250_000
	latencyProbePackets = 80_000
	latencyMaxDropFrac  = 1e-3

	pushShards       = 4
	pushLoadFrac     = 0.80
	pushReplayFlows  = 2048
	pushRoundPackets = 150_000
	pushPre          = 3
	pushRamp         = 4
	pushPost         = 4
	pushBatch        = 2048
)

// latencyArrivals builds the named arrival process at pps: memoryless
// Poisson, or a two-state MMPP whose bursts run at 1.75x the average (so a
// 70%-load burst oversubscribes a shard) over 2µs mean dwells.
func latencyArrivals(process string, pps float64, seed int64) (netqueue.ArrivalProcess, error) {
	switch process {
	case "poisson":
		return netqueue.NewPoisson(pps, latencyFlows, seed)
	case "onoff":
		return netqueue.NewOnOff(netqueue.OnOffConfig{
			PeakPPS:   1.75 * pps,
			BasePPS:   0.25 * pps,
			MeanOnNs:  2_000,
			MeanOffNs: 2_000,
			Flows:     latencyFlows,
			Seed:      seed,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown arrival process %q", process)
	}
}

// latencyServiceModel deploys the anomaly DNN on a shards-wide pipeline and
// returns its measured service-time model.
func latencyServiceModel(m *Models, shards int) (pipeline.ServiceModel, error) {
	pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: core.DefaultConfig(6)})
	if err != nil {
		return pipeline.ServiceModel{}, err
	}
	defer pl.Close()
	if err := pl.LoadModel(m.DNNGraph, m.DNN.InputQ, compiler.Options{}); err != nil {
		return pipeline.ServiceModel{}, err
	}
	return pl.ServiceModel(), nil
}

// latencyLoad sweeps shard counts under Poisson and bursty arrivals at 70%
// load, reporting tail latency, drops and the binary-searched sustainable
// rate for each configuration.
func latencyLoad(m *Models, seed int64) ([]LatencyRow, string, error) {
	var rows []LatencyRow
	var cells [][]string
	for _, shards := range []int{2, 4, 8} {
		svc, err := latencyServiceModel(m, shards)
		if err != nil {
			return nil, "", err
		}
		cfg := netqueue.Config{Service: svc}
		for _, process := range []string{"poisson", "onoff"} {
			pps := latencyLoadFrac * svc.NominalPPS()
			arr, err := latencyArrivals(process, pps, seed)
			if err != nil {
				return nil, "", err
			}
			sim, err := netqueue.New(cfg, arr)
			if err != nil {
				return nil, "", err
			}
			sim.RunPackets(latencyRunPackets)
			sim.Drain()
			r := sim.Stats()

			process := process
			sustainable, err := netqueue.MaxSustainablePPS(cfg,
				func(pps float64) (netqueue.ArrivalProcess, error) {
					return latencyArrivals(process, pps, seed)
				}, latencyProbePackets, latencyMaxDropFrac)
			if err != nil {
				return nil, "", err
			}

			row := LatencyRow{
				Shards:          shards,
				Process:         process,
				LoadPct:         latencyLoadFrac * 100,
				OfferedMpps:     pps / 1e6,
				P50Ns:           r.P50Ns,
				P99Ns:           r.P99Ns,
				P999Ns:          r.P999Ns,
				DropPct:         r.DropFrac * 100,
				MaxDepth:        r.MaxDepth,
				SustainableMpps: sustainable / 1e6,
			}
			rows = append(rows, row)
			cells = append(cells, []string{
				fmt.Sprintf("%d", row.Shards),
				row.Process,
				fmt.Sprintf("%.0f", row.OfferedMpps),
				fmt.Sprintf("%.1f", row.P50Ns),
				fmt.Sprintf("%.1f", row.P99Ns),
				fmt.Sprintf("%.1f", row.P999Ns),
				fmt.Sprintf("%.3f", row.DropPct),
				fmt.Sprintf("%d", row.MaxDepth),
				fmt.Sprintf("%.0f", row.SustainableMpps),
			})
		}
	}
	text := table(
		fmt.Sprintf("Queueing at the busiest shard: transit latency under %d%% load (DNN, II=1)", int(latencyLoadFrac*100)),
		[]string{"Shards", "Arrivals", "Mpps", "p50 ns", "p99 ns", "p999 ns", "Drop %", "Max depth", "Sustainable Mpps"},
		cells)
	return rows, text, nil
}

// latencyPush runs the drift collapse-and-recover loop with queueing
// underneath: drifting traffic is replayed into the simulator at 80% load
// while the same stream drives the real pipeline and controller; every
// controller weight push (Config.OnPush) becomes a simulated service stall,
// so the rounds after a retrain show what the push cost packets in latency
// and drops.
func latencyPush(seed int64) ([]PushRow, string, error) {
	spec, err := driftSpecFor("dnn")
	if err != nil {
		return nil, "", err
	}
	stream, err := spec.newStream(seed)
	if err != nil {
		return nil, "", err
	}
	dep, inQ, g, err := spec.train(stream, seed)
	if err != nil {
		return nil, "", err
	}
	pipe, err := spec.newPipe(g, inQ, pushShards)
	if err != nil {
		return nil, "", err
	}
	defer pipe.Close()

	svc := pipe.ServiceModel()
	pps := pushLoadFrac * svc.NominalPPS()
	// The simulator replays the same drifting workload over a wide flow
	// working set: with only a few hundred flows the flow-hash binomial
	// imbalance oversubscribes the busiest shard at 80% average load and
	// the calm-round baseline drops packets, burying the push spike.
	replayStream, err := trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(),
		seed+trafficgen.MemberSeedStride, pushReplayFlows)
	if err != nil {
		return nil, "", err
	}
	arr, err := netqueue.NewReplay(replayStream, pps, 4096, seed)
	if err != nil {
		return nil, "", err
	}
	sim, err := netqueue.New(netqueue.Config{Service: svc, PushStallNs: netqueue.DefaultPushStallNs}, arr)
	if err != nil {
		return nil, "", err
	}

	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = spec.retrainRecords
	spec.tune(&cfg)
	cfg.OnPush = func() { sim.Push() }
	ctrl, err := controlplane.New(pipe, dep, inQ, stream.Labelled, cfg)
	if err != nil {
		return nil, "", err
	}

	var rows []PushRow
	var cells [][]string
	outs := make([]core.Decision, pushBatch)
	total := pushPre + pushRamp + pushPost
	for r := 0; r < total; r++ {
		phase := phaseAt(r, pushPre, pushRamp)
		stream.SetPhase(phase)
		replayStream.SetPhase(phase)
		ins, _, _ := stream.NextBatchClasses(pushBatch)
		if _, err := pipe.ProcessBatch(ins, outs); err != nil {
			return nil, "", err
		}
		if ctrl.Observe(outs) {
			if err := ctrl.RetrainNow(); err != nil {
				return nil, "", err
			}
		}
		sim.RunPackets(pushRoundPackets)
		st := sim.Stats()
		sim.ResetStats()
		row := PushRow{
			Round:    r,
			Phase:    phase,
			Retrains: ctrl.Stats().Retrains,
			Pushes:   st.Pushes,
			P99Ns:    st.P99Ns,
			DropPct:  st.DropFrac * 100,
			MaxDepth: st.MaxDepth,
		}
		rows = append(rows, row)
		cells = append(cells, []string{
			fmt.Sprintf("%d", row.Round),
			fmt.Sprintf("%.2f", row.Phase),
			fmt.Sprintf("%d", row.Retrains),
			fmt.Sprintf("%d", row.Pushes),
			fmt.Sprintf("%.1f", row.P99Ns),
			fmt.Sprintf("%.3f", row.DropPct),
			fmt.Sprintf("%d", row.MaxDepth),
		})
	}

	// Summarise the spike: worst push round vs the calm rounds around it.
	var calmP99, pushP99, pushDrop float64
	pushRounds := 0
	for _, row := range rows {
		if row.Pushes > 0 {
			pushRounds++
			if row.P99Ns > pushP99 {
				pushP99 = row.P99Ns
			}
			if row.DropPct > pushDrop {
				pushDrop = row.DropPct
			}
		} else if row.P99Ns > calmP99 {
			calmP99 = row.P99Ns
		}
	}
	text := table(
		fmt.Sprintf("Drift retrain pushes under %d%% load (%d shards, replayed drifting stream)", int(pushLoadFrac*100), pushShards),
		[]string{"Round", "Phase", "Retrains", "Pushes", "p99 ns", "Drop %", "Max depth"},
		cells)
	text += fmt.Sprintf(
		"weight push under %d%% load: calm rounds p99 %.0f ns; %d push round(s) spike to p99 %.0f ns with %.2f%% drops, recovering by the next round\n",
		int(pushLoadFrac*100), calmP99, pushRounds, pushP99, pushDrop)
	return rows, text, nil
}

// Latency is the continuous-time queueing experiment: the load sweep
// (tail latency, drops and sustainable rate per shard count under Poisson
// and bursty arrivals) followed by the push-under-load story that composes
// the throughput and drift threads.
func Latency(m *Models, seed int64) (*LatencyResult, string, error) {
	loadRows, loadText, err := latencyLoad(m, seed)
	if err != nil {
		return nil, "", err
	}
	pushRows, pushText, err := latencyPush(seed)
	if err != nil {
		return nil, "", err
	}
	return &LatencyResult{Load: loadRows, Push: pushRows}, loadText + "\n" + pushText, nil
}
