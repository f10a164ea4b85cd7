package taurus

import (
	"errors"
	"math/rand"
	"testing"

	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/netqueue"
	"taurus/internal/pipeline"
)

// TestOptionsConstruction exercises the functional-options surface.
func TestOptionsConstruction(t *testing.T) {
	dev, err := NewDevice(6, WithDropOnAnomaly())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dev.Config()
	if cfg.NumFeatures != 6 || !cfg.DropOnAnomaly {
		t.Errorf("options not applied: %+v", cfg)
	}
	if def := core.DefaultConfig(6); cfg.FlowTableSize != def.FlowTableSize || cfg.Threshold != def.Threshold {
		t.Errorf("defaults not applied: %+v, want %+v", cfg, def)
	}

	if _, err := NewDevice(0); !errors.Is(err, ErrBadConfig) {
		t.Errorf("NewDevice(0): %v, want ErrBadConfig", err)
	}
}

func TestPipelineConstruction(t *testing.T) {
	pl, err := NewPipeline(6)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if pl.NumShards() != pipeline.DefaultShards {
		t.Errorf("default shards = %d, want %d", pl.NumShards(), pipeline.DefaultShards)
	}

	pl2, err := NewPipeline(6, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	defer pl2.Close()
	if pl2.NumShards() != 8 {
		t.Errorf("WithShards(8) -> %d shards", pl2.NumShards())
	}

	if err := pl.UpdateWeights(nil); err == nil {
		t.Error("UpdateWeights on empty pipeline should fail")
	} else if !errors.Is(err, ErrNoModel) {
		t.Errorf("UpdateWeights before LoadModel: %v, want ErrNoModel", err)
	}
}

// TestControllerConstruction exercises the control-plane facade: a pipeline
// with a deployed model, a drifting stream, and a DNN controller built with
// the functional options, driven one synchronous loop iteration.
func TestControllerConstruction(t *testing.T) {
	stream, err := NewDriftingStream(DefaultDriftConfig(), 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	X, y := SplitRecords(stream.Labelled(800))
	net := NewDNN([]int{6, 12, 6, 3, 1}, ReLU, Sigmoid, rng)
	NewTrainer(net, SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 10}, rng).Fit(X, y)
	q, err := QuantizeDNN(net, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	program, err := LowerDNN(q, "facade-dnn")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(6, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	if err := pl.LoadModel(program, q.InputQ, CompileOptions{}); err != nil {
		t.Fatal(err)
	}

	dep, err := NewDNNDeployable(net, DNNDeployableConfig{Epochs: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(pl, dep, stream.Labelled,
		func(c *controlplane.Config) {
			c.SampleEvery = 2
			c.Window = 128
			c.FlagDelta, c.ScoreDelta = 0.2, 32
			c.DriftPatience = 1
		},
		WithRetrainRecords(400),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ins, out, _ := stream.NextBatch(256)
	if _, err := pl.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	ctrl.Observe(out)
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st := ctrl.Stats()
	if st.Retrains != 1 {
		t.Errorf("Retrains = %d, want 1", st.Retrains)
	}
	if st.Sampled == 0 {
		t.Error("controller sampled no decisions")
	}

	if _, err := NewController(nil, dep, stream.Labelled); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil pipeline: %v, want ErrBadConfig", err)
	}
}

// TestDeployableControllerFacade drives the model-agnostic surface: an SVM
// Deployable deployed through its own lifecycle, a controller attached with
// the quantiser pinned from the pipeline, and a PSI-detector retrain cycle.
// The pipeline cuts at score 1, the SVM's decision sign (svmPipeline).
func TestDeployableControllerFacade(t *testing.T) {
	cfg := DriftConfig{Base: AnomalyConfig{NumFeatures: 8, AnomalyFraction: 0.4, Separation: 1.2}}
	stream, err := NewDriftingStream(cfg, 7, 64, WithLabelDelay(1), WithLabelNoise(0.05))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewSVMDeployable(SVMDeployableConfig{MaxSV: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	recs := stream.Labelled(300)
	inQ := InputQuantizerFor(recs)
	if err := dep.Fit(recs); err != nil {
		t.Fatal(err)
	}
	program, err := dep.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := svmPipeline(8)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	// A controller must refuse a pipeline with no deployed model (there is
	// no quantiser to pin against yet).
	if _, err := NewController(pl, dep, stream.Labelled); !errors.Is(err, ErrNoModel) {
		t.Errorf("controller attached before LoadModel: %v, want ErrNoModel", err)
	}
	if err := pl.LoadModel(program, inQ, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(pl, dep, stream.Labelled,
		func(c *controlplane.Config) { c.Statistic, c.PSIThreshold = controlplane.DriftPSI, 0.3 },
		WithRetrainRecords(300),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	ins, out, _ := stream.NextBatch(256)
	if _, err := pl.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	ctrl.Observe(out)
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.Stats().Retrains; got != 1 {
		t.Errorf("Retrains = %d, want 1", got)
	}
	// Parity: the data plane and the Deployable's reference must agree.
	ins2, out2, _ := stream.NextBatch(64)
	if _, err := pl.ProcessBatch(ins2, out2); err != nil {
		t.Fatal(err)
	}
	for i := range out2 {
		if out2[i].Bypassed {
			continue
		}
		want, err := dep.ReferenceDecision(inQ, ins2[i].Features)
		if err != nil {
			t.Fatal(err)
		}
		if out2[i].MLScore != want {
			t.Fatalf("packet %d: score %d != reference %d", i, out2[i].MLScore, want)
		}
	}
}

// TestFleetFacade drives the multi-switch surface: one SVM Deployable
// deployed to two pipelines, a Fleet with the PSI detector, and a pooled
// retrain of RetrainRecords labels pushed to every member with parity.
func TestFleetFacade(t *testing.T) {
	cfg := DriftConfig{Base: AnomalyConfig{NumFeatures: 8, AnomalyFraction: 0.4, Separation: 1.2}}
	streams, err := NewDriftingStreams(cfg, 9, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewSVMDeployable(SVMDeployableConfig{MaxSV: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recs := append(streams[0].Labelled(200), streams[1].Labelled(200)...)
	inQ := InputQuantizerFor(recs)
	if err := dep.Fit(recs); err != nil {
		t.Fatal(err)
	}
	program, err := dep.Lower(inQ)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(dep, inQ,
		func(c *controlplane.Config) { c.Statistic, c.PSIThreshold = controlplane.DriftPSI, 0.2 },
		WithRetrainRecords(300),
	)
	if err != nil {
		t.Fatal(err)
	}
	pipes := make([]*Pipeline, 2)
	for i := range pipes {
		pl, err := svmPipeline(8)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if err := pl.LoadModel(program, inQ, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := fleet.Register("", pl, streams[i].Labelled); err != nil {
			t.Fatal(err)
		}
		pipes[i] = pl
	}
	for i, pl := range pipes {
		ins, out, _ := streams[i].NextBatch(256)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		fleet.Observe(i, out)
	}
	if err := fleet.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	st := fleet.Stats()
	if st.Retrains != 1 {
		t.Errorf("Retrains = %d, want 1", st.Retrains)
	}
	if len(st.Members) != 2 || st.Members[0].Sampled == 0 || st.Members[1].Sampled == 0 {
		t.Errorf("member sampling missing: %+v", st.Members)
	}
	if st.LastPoolSize != 300 {
		t.Errorf("pooled %d records, want RetrainRecords = 300", st.LastPoolSize)
	}
	// Parity on every member: data plane vs the shared model's reference.
	for i, pl := range pipes {
		ins, out, _ := streams[i].NextBatch(64)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		for j := range out {
			if out[j].Bypassed {
				continue
			}
			want, err := dep.ReferenceDecision(inQ, ins[j].Features)
			if err != nil {
				t.Fatal(err)
			}
			if out[j].MLScore != want {
				t.Fatalf("member %d packet %d: score %d != reference %d", i, j, out[j].MLScore, want)
			}
		}
	}
}

// TestSimulatorFacade deploys a model, runs the continuous-time queueing
// simulator over the pipeline's service model, and wires a controller's
// OnPush to Simulator.Push so a retrain's weight write becomes a simulated
// service stall. The facade builds the simulator with the default queue and
// stall; this one, with a 256-slot queue and a 20µs stall, is built from
// the internal config, so that the push must drop packets.
func TestSimulatorFacade(t *testing.T) {
	stream, err := NewDriftingStream(DefaultDriftConfig(), 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	X, y := SplitRecords(stream.Labelled(800))
	net := NewDNN([]int{6, 12, 6, 3, 1}, ReLU, Sigmoid, rng)
	NewTrainer(net, SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 5}, rng).Fit(X, y)
	q, err := QuantizeDNN(net, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	program, err := LowerDNN(q, "sim-dnn")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(6, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	// Simulating before deployment is ErrNoModel: there is no service model.
	idle, err := NewPoissonArrivals(1e6, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(pl, idle); !errors.Is(err, ErrNoModel) {
		t.Errorf("undeployed pipeline: %v, want ErrNoModel", err)
	}
	if _, err := NewSimulator(nil, idle); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil pipeline: %v, want ErrBadConfig", err)
	}

	if err := pl.LoadModel(program, q.InputQ, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	svc := pl.ServiceModel()
	if svc.NominalPPS() <= 0 {
		t.Fatalf("deployed pipeline has no capacity: %+v", svc)
	}

	arr, err := NewPoissonArrivals(0.8*svc.NominalPPS(), 128, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(pl, idle); err != nil {
		t.Fatal(err)
	}
	sim, err := netqueue.New(netqueue.Config{Service: svc, QueueCap: 256, PushStallNs: 20_000}, arr)
	if err != nil {
		t.Fatal(err)
	}

	dep, err := NewDNNDeployable(net, DNNDeployableConfig{Epochs: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(pl, dep, stream.Labelled,
		WithRetrainRecords(400),
		func(c *controlplane.Config) { c.OnPush = sim.Push },
	)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	sim.RunPackets(50_000)
	before := sim.Stats()
	if before.Pushes != 0 || before.Drops != 0 {
		t.Fatalf("steady state not clean before the push: %+v", before)
	}
	sim.ResetStats()

	// The retrain's weight push must stall the simulated shards.
	if err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	sim.RunPackets(50_000)
	sim.Drain()
	after := sim.Stats()
	if after.Pushes != 1 {
		t.Errorf("simulator saw %d pushes after one retrain, want 1", after.Pushes)
	}
	if after.Drops == 0 {
		t.Error("a 20µs stall at 80% load over a 256-slot queue should drop packets")
	}
	if after.MaxNs < before.MaxNs {
		t.Errorf("push window max latency %.0f ns below steady max %.0f ns", after.MaxNs, before.MaxNs)
	}

	// The sizing helper answers through the same surface.
	max, err := MaxSustainableLoad(pl, func(pps float64) (ArrivalProcess, error) {
		return NewPoissonArrivals(pps, 128, 9)
	}, 30_000, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if max <= 0 || max > 1.25*svc.NominalPPS() {
		t.Errorf("sustainable load %.3g pps out of range (nominal %.3g)", max, svc.NominalPPS())
	}
}

// svmPipeline builds a two-shard pipeline whose postprocessing cut is score
// 1, the sign of an SVM decision.
func svmPipeline(numFeatures int) (*Pipeline, error) {
	dev := core.DefaultConfig(numFeatures)
	dev.Threshold = 1
	return pipeline.New(pipeline.Config{Shards: 2, Device: dev})
}
