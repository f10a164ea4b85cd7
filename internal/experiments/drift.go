package experiments

import (
	"fmt"
	"math/rand"

	"taurus/internal/compiler"
	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/pipeline"
	"taurus/internal/trafficgen"
)

// DriftRow is one traffic round of the closed-loop drift experiment.
type DriftRow struct {
	Round int
	// Phase is the drift phase of this round's traffic (0 = pre-drift
	// world, 1 = fully drifted).
	Phase float64
	// FrozenF1 is the score of the baseline pipeline whose model is never
	// updated after the initial deployment (F1 for the binary detectors,
	// macro-F1 for the IoT classifier).
	FrozenF1 float64
	// LoopF1 is the score of the pipeline driven by the closed-loop
	// controller.
	LoopF1 float64
	// Retrains is the cumulative number of controller retrain+push cycles.
	Retrains int
}

// driftSpec wires one model family into the shared collapse-and-recover
// harness: its workload stream, its Deployable lifecycle, its data-plane
// threshold and its scoring metric.
type driftSpec struct {
	name   string
	metric string // column label: "F1" or "macro-F1"
	// features is the device input width; threshold the postprocessing cut.
	features  int
	threshold int32
	// initRecords/initFits control the deployment-time training;
	// retrainRecords each controller cycle.
	initRecords    int
	initFits       int
	retrainRecords int
	multiclass     bool
	newStream      func(seed int64, opts ...trafficgen.StreamOption) (*trafficgen.DriftingStream, error)
	newModel       func(seed int64) (model.Deployable, error)
	tune           func(cfg *controlplane.Config)
}

// driftFlows is the flow count of every drift stream. A stream batch draws
// one record per flow, so a longer batch repeats records.
const driftFlows = 256

// driftSpecFor resolves a -model name (dnn, svm, iot).
func driftSpecFor(name string) (*driftSpec, error) {
	switch name {
	case "", "dnn":
		return &driftSpec{
			name: "dnn", metric: "F1",
			features: dataset.NumAnomalyFeatures, threshold: 64,
			initRecords: 4000, initFits: 3, retrainRecords: 3000,
			newStream: func(seed int64, opts ...trafficgen.StreamOption) (*trafficgen.DriftingStream, error) {
				return trafficgen.NewDriftingStream(dataset.DefaultDriftConfig(), seed, driftFlows, opts...)
			},
			newModel: func(seed int64) (model.Deployable, error) {
				net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(seed)))
				return model.NewDNN(net, model.DNNConfig{Epochs: 10, Seed: seed})
			},
			tune: func(cfg *controlplane.Config) {},
		}, nil
	case "svm":
		return &driftSpec{
			name: "svm", metric: "F1",
			features: dataset.NumSVMFeatures, threshold: 1,
			initRecords: 700, initFits: 1, retrainRecords: 700,
			newStream: func(seed int64, opts ...trafficgen.StreamOption) (*trafficgen.DriftingStream, error) {
				// The 8-feature world is easier (the SVM deploys near F1 90),
				// so the boundary inversion must travel further before the
				// frozen model's collapse is unmistakable.
				cfg := dataset.DriftConfig{Base: dataset.AnomalyConfig{
					NumFeatures: dataset.NumSVMFeatures, AnomalyFraction: 0.4, Separation: 1.2,
				}, MeanShift: 1.6}
				return trafficgen.NewDriftingStream(cfg, seed, driftFlows, opts...)
			},
			newModel: func(seed int64) (model.Deployable, error) {
				train := ml.DefaultSVMConfig()
				train.Gamma = 0.25 // wider kernel suits the 16-centroid reduced set
				return model.NewSVM(model.SVMConfig{Train: train, MaxSV: 16, Seed: seed})
			},
			// The SVM's decision accumulator lives at a per-retrain scale, so
			// the scale-free PSI statistic replaces the mean-score delta. A
			// slightly eager threshold lets the residual shift after a
			// mid-ramp retrain re-trigger, so the loop lands on a model
			// trained at full drift.
			tune: func(cfg *controlplane.Config) {
				cfg.Statistic = controlplane.DriftPSI
				cfg.PSIThreshold = 0.2
			},
		}, nil
	case "iot", "kmeans":
		return &driftSpec{
			name: "iot", metric: "macro-F1",
			features: 11, threshold: 1 << 30, // classification: never flag
			initRecords: 2500, initFits: 1, retrainRecords: 2500,
			multiclass: true,
			newStream: func(seed int64, opts ...trafficgen.StreamOption) (*trafficgen.DriftingStream, error) {
				return trafficgen.NewDriftingIoTStream(dataset.DefaultIoTDriftConfig(), seed, driftFlows, opts...)
			},
			newModel: func(seed int64) (model.Deployable, error) {
				return model.NewKMeans(model.KMeansConfig{K: 5, Seed: seed})
			},
			// Category indices carry no mean or flag-rate signal; PSI over
			// the predicted-class histogram is the only statistic that sees
			// the mix shift. Five discrete bins keep the stationary PSI
			// noise floor minute (~0.01), so a low threshold re-triggers on
			// the residual shift after a mid-ramp retrain.
			tune: func(cfg *controlplane.Config) {
				cfg.Statistic = controlplane.DriftPSI
				cfg.PSIThreshold = 0.12
			},
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown drift model %q (want dnn, svm or iot)", name)
	}
}

// train fits spec's model on pre-drift telemetry from stream and lowers it
// against an input quantiser calibrated from the same sample.
func (s *driftSpec) train(stream *trafficgen.DriftingStream, seed int64) (model.Deployable, fixed.Quantizer, *mr.Graph, error) {
	dep, err := s.newModel(seed)
	if err != nil {
		return nil, fixed.Quantizer{}, nil, err
	}
	recs := stream.Labelled(s.initRecords)
	inQ := model.InputQuantizerFor(recs)
	for i := 0; i < s.initFits; i++ {
		if err := dep.Fit(recs); err != nil {
			return nil, fixed.Quantizer{}, nil, err
		}
	}
	g, err := dep.Lower(inQ)
	if err != nil {
		return nil, fixed.Quantizer{}, nil, err
	}
	return dep, inQ, g, nil
}

// newPipe builds a pipeline for spec's device shape and installs the graph
// (an install copies what it keeps, so one deployment graph serves both the
// frozen and the loop pipeline).
func (s *driftSpec) newPipe(g *mr.Graph, inQ fixed.Quantizer, shards int) (*pipeline.Pipeline, error) {
	devCfg := core.DefaultConfig(s.features)
	devCfg.Threshold = s.threshold
	pl, err := pipeline.New(pipeline.Config{Shards: shards, Device: devCfg})
	if err != nil {
		return nil, err
	}
	if err := pl.LoadModel(g, inQ, compiler.Options{}); err != nil {
		pl.Close()
		return nil, err
	}
	return pl, nil
}

// score computes the round's quality: binary F1 over verdicts, or macro-F1
// over predicted category indices.
func (s *driftSpec) score(out []core.Decision, truth []bool, classes []dataset.Class) float64 {
	if s.multiclass {
		var conf ml.MultiConfusion
		for i := range out {
			if out[i].Bypassed {
				continue
			}
			conf.Observe(int(out[i].MLScore), int(classes[i]))
		}
		return conf.MacroF1()
	}
	var conf ml.BinaryConfusion
	for i := range out {
		if out[i].Bypassed {
			continue // same denominator as the multiclass path
		}
		conf.Observe(out[i].Verdict != core.Forward, truth[i])
	}
	return conf.F1()
}

// phaseAt ramps the drift in over the configured schedule.
func phaseAt(r, pre, ramp int) float64 {
	switch {
	case r >= pre+ramp:
		return 1
	case r >= pre:
		return float64(r-pre+1) / float64(ramp)
	default:
		return 0
	}
}

// driveRounds runs the phase schedule over the stream: every batch flows
// through every pipeline (pipes[i] writes outs[i]); the controller observes
// the last pipeline's decisions and retrains synchronously on drift. After
// each round, visit receives the per-pipeline scores and the cumulative
// retrain count. This single driver serves both the frozen-vs-loop table
// and the label-realism sweep, so the two cannot diverge.
func (s *driftSpec) driveRounds(stream *trafficgen.DriftingStream, pipes []*pipeline.Pipeline,
	ctrl *controlplane.Controller, pre, ramp, post, batch int,
	visit func(r int, phase float64, scores []float64, retrains int)) error {
	outs := make([][]core.Decision, len(pipes))
	for i := range outs {
		outs[i] = make([]core.Decision, batch)
	}
	scores := make([]float64, len(pipes))
	total := pre + ramp + post
	for r := 0; r < total; r++ {
		phase := phaseAt(r, pre, ramp)
		stream.SetPhase(phase)
		ins, _, classes := stream.NextBatchClasses(batch)
		truth := make([]bool, len(classes))
		for i, c := range classes {
			truth[i] = c.Anomalous()
		}
		for i, pl := range pipes {
			if _, err := pl.ProcessBatch(ins, outs[i]); err != nil {
				return err
			}
		}
		if ctrl.Observe(outs[len(outs)-1]) {
			if err := ctrl.RetrainNow(); err != nil {
				return err
			}
		}
		for i := range pipes {
			scores[i] = s.score(outs[i], truth, classes)
		}
		visit(r, phase, scores, ctrl.Stats().Retrains)
	}
	return nil
}

const (
	driftShards = 4
	driftBatch  = 2048
	driftPre    = 4 // phase 0
	driftRamp   = 5 // phase ramps 0 -> 1
	driftPost   = 6 // phase 1
)

// DriftTable runs the closed-control-loop experiment (§3.3.1 / Figure 1
// made live) for the selected model family (dnn, svm or iot): one model is
// trained and deployed onto two identical pipelines serving the same
// drifting traffic — one stays frozen, one is driven by a controller that
// samples its decisions, detects the drift, retrains in the control plane
// and pushes requantised weights to every shard out-of-band. The frozen
// baseline's accuracy collapses as the distributions move; the closed loop
// recovers to near its pre-drift operating point. The same harness drives
// all three families through the model.Deployable lifecycle — the
// controller code is identical.
func DriftTable(seed int64, modelName string) ([]DriftRow, string, error) {
	spec, err := driftSpecFor(modelName)
	if err != nil {
		return nil, "", err
	}
	return spec.runTable(seed)
}

// runTable is DriftTable with the spec already resolved.
func (spec *driftSpec) runTable(seed int64) ([]DriftRow, string, error) {
	stream, err := spec.newStream(seed)
	if err != nil {
		return nil, "", err
	}
	dep, inQ, g, err := spec.train(stream, seed)
	if err != nil {
		return nil, "", err
	}
	frozenPipe, err := spec.newPipe(g, inQ, driftShards)
	if err != nil {
		return nil, "", err
	}
	defer frozenPipe.Close()
	loopPipe, err := spec.newPipe(g, inQ, driftShards)
	if err != nil {
		return nil, "", err
	}
	defer loopPipe.Close()

	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = spec.retrainRecords
	spec.tune(&cfg)
	ctrl, err := controlplane.New(loopPipe, dep, inQ, stream.Labelled, cfg)
	if err != nil {
		return nil, "", err
	}

	rows := make([]DriftRow, 0, driftPre+driftRamp+driftPost)
	var cells [][]string
	var preSum float64
	err = spec.driveRounds(stream, []*pipeline.Pipeline{frozenPipe, loopPipe}, ctrl,
		driftPre, driftRamp, driftPost, driftBatch,
		func(r int, phase float64, scores []float64, retrains int) {
			row := DriftRow{Round: r, Phase: phase, FrozenF1: scores[0], LoopF1: scores[1], Retrains: retrains}
			if r < driftPre {
				preSum += row.FrozenF1
			}
			rows = append(rows, row)
			cells = append(cells, []string{
				fmt.Sprintf("%d", row.Round),
				fmt.Sprintf("%.2f", row.Phase),
				fmt.Sprintf("%.1f", row.FrozenF1),
				fmt.Sprintf("%.1f", row.LoopF1),
				fmt.Sprintf("%d", row.Retrains),
			})
		})
	if err != nil {
		return nil, "", err
	}

	pre := preSum / driftPre
	last := rows[len(rows)-1]
	text := table(
		fmt.Sprintf("Closed control loop under concept drift — %s (%s, frozen model vs online retraining)", spec.name, spec.metric),
		[]string{"Round", "Phase", "Frozen " + spec.metric, "Loop " + spec.metric, "Retrains"}, cells)
	text += fmt.Sprintf(
		"pre-drift %s %.1f; post-drift frozen %.1f (%+.1f), closed loop %.1f (%+.1f) after %d retrains\n",
		spec.metric, pre, last.FrozenF1, last.FrozenF1-pre, last.LoopF1, last.LoopF1-pre, last.Retrains)
	return rows, text, nil
}

// Drift is DriftTable followed by the label-realism sweep (closed loop
// only): labels arrive one round stale and mislabelled at p ∈ {0, 0.05,
// 0.2}, reporting the recovered score at full drift for each noise level.
func Drift(seed int64, modelName string) ([]DriftRow, string, error) {
	spec, err := driftSpecFor(modelName)
	if err != nil {
		return nil, "", err
	}
	rows, text, err := spec.runTable(seed)
	if err != nil {
		return nil, "", err
	}
	text += fmt.Sprintf("\nlabel-realism sweep (%s at full drift, labels 1 round stale):\n", spec.metric)
	for _, p := range []float64{0, 0.05, 0.2} {
		f1, retrains, err := spec.runNoisyLoop(seed, p)
		if err != nil {
			return nil, "", err
		}
		text += fmt.Sprintf("  noise p=%.2f  recovered %s %5.1f  (%d retrains)\n", p, spec.metric, f1, retrains)
	}
	return rows, text, nil
}

// runNoisyLoop reruns the closed loop (no frozen baseline) on a stream
// whose label feed lags one round and mislabels with probability p,
// returning the mean score over the final two full-drift rounds.
func (s *driftSpec) runNoisyLoop(seed int64, p float64) (float64, int, error) {
	const (
		preRounds  = 2
		rampRounds = 4
		postRounds = 5
	)
	stream, err := s.newStream(seed+100, trafficgen.WithLabelDelay(1), trafficgen.WithLabelNoise(p))
	if err != nil {
		return 0, 0, err
	}
	dep, inQ, g, err := s.train(stream, seed)
	if err != nil {
		return 0, 0, err
	}
	pl, err := s.newPipe(g, inQ, driftShards)
	if err != nil {
		return 0, 0, err
	}
	defer pl.Close()
	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = s.retrainRecords
	s.tune(&cfg)
	ctrl, err := controlplane.New(pl, dep, inQ, stream.Labelled, cfg)
	if err != nil {
		return 0, 0, err
	}
	total := preRounds + rampRounds + postRounds
	var sum float64
	var n int
	var retrains int
	err = s.driveRounds(stream, []*pipeline.Pipeline{pl}, ctrl,
		preRounds, rampRounds, postRounds, driftBatch,
		func(r int, phase float64, scores []float64, rt int) {
			if r >= total-2 {
				sum += scores[0]
				n++
			}
			retrains = rt
		})
	if err != nil {
		return 0, 0, err
	}
	return sum / float64(n), retrains, nil
}
