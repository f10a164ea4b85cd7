package experiments

import (
	"fmt"
	"math/rand"

	"taurus/internal/controlplane"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/ml"
	"taurus/internal/model"
	"taurus/internal/netsim"
)

// Table8 runs the end-to-end control-plane vs Taurus comparison at the four
// sampling rates of the paper.
func Table8(m *Models, packets int) ([]netsim.Result, string, error) {
	if packets <= 0 {
		packets = 400_000
	}
	var rows []netsim.Result
	var cells [][]string
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		res, err := netsim.Run(m.DNN, p, packets)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, res)
		cells = append(cells, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.0f", res.XDPBatch), fmt.Sprintf("%.0f", res.RemBatch),
			fmt.Sprintf("%.0f", res.XDPMs), fmt.Sprintf("%.0f", res.DBMs),
			fmt.Sprintf("%.0f", res.MLMs), fmt.Sprintf("%.0f", res.InstallMs),
			fmt.Sprintf("%.0f", res.TotalMs),
			fmt.Sprintf("%.3f", res.BaselineDetectedPct), fmt.Sprintf("%.1f", res.TaurusDetectedPct),
			fmt.Sprintf("%.3f", res.BaselineF1), fmt.Sprintf("%.1f", res.TaurusF1),
		})
	}
	return rows, table("Table 8: baseline control-plane ML vs Taurus",
		[]string{"Sampling", "XDP batch", "Rem batch", "XDP ms", "DB ms", "ML ms",
			"Install ms", "All ms", "Base det%", "Taurus det%", "Base F1", "Taurus F1"}, cells), nil
}

// Modelled costs of the online-training loop (§5.2.3). The loop itself is
// real; its clock is not: telemetry reaches the control plane at
// trainLinkPPS × sampling records per second, one SGD sample-epoch costs
// trainMsPerSampleEpoch and one weight push costs trainPushMs (the paper's
// flow-rule installation estimate).
const (
	trainLinkPPS          = 800_000 // 5 Gb/s of anomaly traffic
	trainMsPerSampleEpoch = 0.02
	trainPushMs           = 3.0
	// trainWindow is the sliding window of recent records each retrain
	// fits: a larger batch makes each update more substantial.
	trainWindow = 2048
	trainEvalN  = 2048 // packets in the fixed scoring batch
)

// ConvergenceRow is one point of an online-training curve (Figures 13 and
// 14): the model served after Update retrains (0 = the model deployed on
// the first collected batch).
type ConvergenceRow struct {
	Sampling      float64
	Epochs, Batch int
	Update        int
	// Records is how many labelled records the last fit trained on (the
	// sliding window, up to trainWindow).
	Records int
	// TimeS is modelled: batch collection at the sampled telemetry rate,
	// plus the modelled training and push costs.
	TimeS float64
	// F1 is scored on the pipeline's verdicts, i.e. the quantised model the
	// switch serves.
	F1 float64
}

// convergence runs the real control loop for one curve: a 6-12-6-3-1
// model.DNN is trained on the first collected batch and deployed on a
// 1-shard Pipeline, then each update collects batch fresh labels into the
// sliding window and runs one Controller.RetrainNow on it. After every push
// the pipeline serves one fixed labelled batch and its verdicts are scored.
func convergence(sampling float64, epochs, batch, updates int) ([]ConvergenceRow, error) {
	const seed = 1
	spec, err := driftSpecFor("dnn")
	if err != nil {
		return nil, err
	}
	stream, err := spec.newStream(seed)
	if err != nil {
		return nil, err
	}
	var evalIns []core.PacketIn
	var evalTruth []bool
	for len(evalIns) < trainEvalN { // distinct records: see driftFlows
		ins, _, truth := stream.NextBatch(driftFlows)
		evalIns, evalTruth = append(evalIns, ins...), append(evalTruth, truth...)
	}
	out := make([]core.Decision, len(evalIns))

	var window, handed []dataset.Record
	collect := func() {
		window = append(window, stream.Labelled(batch)...)
		if len(window) > trainWindow {
			window = window[len(window)-trainWindow:]
		}
	}
	collect()
	net := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rand.New(rand.NewSource(seed)))
	dep, err := model.NewDNN(net, model.DNNConfig{BatchSize: batch, Epochs: epochs})
	if err != nil {
		return nil, err
	}
	if err := dep.Fit(window); err != nil {
		return nil, err
	}
	inQ := model.InputQuantizerFor(window)
	g, err := dep.Lower(inQ)
	if err != nil {
		return nil, err
	}
	pl, err := spec.newPipe(g, inQ, 1)
	if err != nil {
		return nil, err
	}
	defer pl.Close()
	cfg := controlplane.DefaultConfig()
	cfg.RetrainRecords = trainWindow
	// The window is handed over once per round: while it is shorter than
	// RetrainRecords the fleet's top-up pass asks again, and gets nothing.
	source := func(int) []dataset.Record { w := handed; handed = nil; return w }
	ctrl, err := controlplane.New(pl, dep, inQ, source, cfg)
	if err != nil {
		return nil, err
	}
	defer ctrl.Close()

	collectS := float64(batch) / (trainLinkPPS * sampling)
	now := 0.0
	rows := make([]ConvergenceRow, 0, updates+1)
	for u := 0; ; u++ {
		records := len(window) // the deployment fit's
		if u > 0 {
			records = ctrl.Stats().LastRetrainRecords
		}
		now += collectS + (float64(epochs*records)*trainMsPerSampleEpoch+trainPushMs)/1000
		if _, err := pl.ProcessBatch(evalIns, out); err != nil {
			return nil, err
		}
		rows = append(rows, ConvergenceRow{Sampling: sampling, Epochs: epochs, Batch: batch,
			Update: u, Records: records, TimeS: now, F1: spec.score(out, evalTruth, nil)})
		if u == updates {
			return rows, nil
		}
		collect()
		handed = window
		if err := ctrl.RetrainNow(); err != nil {
			return nil, err
		}
	}
}

// timeToF1 returns the modelled time at which curve first serves at least
// target F1, or -1 if it never does.
func timeToF1(curve []ConvergenceRow, target float64) float64 {
	for _, r := range curve {
		if r.F1 >= target {
			return r.TimeS
		}
	}
	return -1
}

// Figure13 runs the online-training loop at four sampling rates (64-record
// batches, 1 epoch, 60 retrains). F1 is read from the served quantised
// model; the time axis is modelled (see ConvergenceRow.TimeS).
func Figure13() ([]ConvergenceRow, string, error) {
	var rows []ConvergenceRow
	var cells [][]string
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		curve, err := convergence(p, 1, 64, 60)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, curve...)
		last := curve[len(curve)-1]
		cells = append(cells, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.4f", timeToF1(curve, 60)),
			fmt.Sprintf("%.4f", last.TimeS),
			fmt.Sprintf("%.1f", last.F1),
		})
	}
	return rows, table("Figure 13: online training convergence by sampling rate (served F1, modelled time)",
		[]string{"Sampling", "t(F1>=60) s", "t(final) s", "final F1"}, cells), nil
}

// Figure14 runs the online-training loop per (epochs, batch) at sampling
// 1e-2 (40 retrains). F1 is read from the served quantised model; the time
// axis is modelled (see ConvergenceRow.TimeS).
func Figure14() ([]ConvergenceRow, string, error) {
	var rows []ConvergenceRow
	var cells [][]string
	for _, c := range []struct{ epochs, batch int }{{1, 64}, {1, 256}, {10, 64}, {10, 256}} {
		curve, err := convergence(1e-2, c.epochs, c.batch, 40)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, curve...)
		cells = append(cells, []string{fmt.Sprintf("%d/%d", c.epochs, c.batch),
			fmt.Sprintf("%.4f", timeToF1(curve, 60)),
			fmt.Sprintf("%.1f", curve[len(curve)-1].F1),
		})
	}
	return rows, table("Figure 14: convergence by epochs/batch at sampling 1e-2 (served F1, modelled time)",
		[]string{"Epoch/Batch", "t(F1>=60) s", "final F1"}, cells), nil
}
