package experiments

import (
	"fmt"
	"math/rand"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/hwmodel"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
)

// Table2Row is one accelerator measurement.
type Table2Row struct {
	Name      string
	LatencyMs float64
}

// taurusLatencyMs is the in-switch alternative: the DNN row of Table 5,
// 221 ns.
const taurusLatencyMs = 221e-6

// Table2 gives the paper's unbatched (batch = 1) latencies of the anomaly
// DNN on control-plane accelerators, against the in-switch one. Framework
// and setup overhead dominate unbatched inference (§2.1.2), which is why the
// CPU, with no device transfer, is the fastest of the three.
func Table2() ([]Table2Row, string) {
	rows := []Table2Row{
		{Name: "Broadwell Xeon", LatencyMs: 0.67},
		{Name: "Tesla T4 GPU", LatencyMs: 1.15},
		{Name: "Cloud TPU v2-8", LatencyMs: 3.51},
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, fmt.Sprintf("%.2f", r.LatencyMs)})
	}
	cells = append(cells, []string{"Taurus (DNN, Table 5)", fmt.Sprintf("%.6f", taurusLatencyMs)})
	return rows, table("Table 2: unbatched inference latency for control-plane accelerators",
		[]string{"Accelerator", "Latency (ms)"}, cells)
}

// Table3Row is one IoT classifier's float-vs-fix8 accuracy.
type Table3Row struct {
	Kernel        string
	Float32, Fix8 float64
	Diff          float64
}

// Table3 trains the TMC IoT DNNs (4x10x2, 4x5x5x2, 4x10x10x2) and compares
// float32 against 8-bit quantised accuracy.
func Table3(seed int64) ([]Table3Row, string, error) {
	rng := rand.New(rand.NewSource(seed))
	gen, err := dataset.NewIoTGenerator(dataset.DefaultIoTConfig(), rng)
	if err != nil {
		return nil, "", err
	}
	trainX, trainY := gen.Samples(4000)
	testX, testY := gen.Samples(2000)

	var rows []Table3Row
	var cells [][]string
	for _, arch := range [][]int{{4, 10, 2}, {4, 5, 5, 2}, {4, 10, 10, 2}} {
		n := ml.NewDNN(arch, ml.ReLU, ml.Linear, rng)
		tr := ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.03, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng)
		tr.Fit(trainX, trainY)
		q, err := ml.Quantize(n, trainX[:500])
		if err != nil {
			return nil, "", err
		}
		var predF, predQ []int
		for _, x := range testX {
			predF = append(predF, n.PredictClass(x))
			predQ = append(predQ, q.PredictClass(x))
		}
		accF := ml.MulticlassAccuracy(predF, testY)
		accQ := ml.MulticlassAccuracy(predQ, testY)
		row := Table3Row{Kernel: n.KernelString(), Float32: accF, Fix8: accQ, Diff: accQ - accF}
		rows = append(rows, row)
		cells = append(cells, []string{row.Kernel,
			fmt.Sprintf("%.2f", row.Float32), fmt.Sprintf("%.2f", row.Fix8), fmt.Sprintf("%+.2f", row.Diff)})
	}
	return rows, table("Table 3: IoT classifier accuracy, float32 vs fix8 (%)",
		[]string{"DNN Kernel", "float32", "fix8", "Diff."}, cells), nil
}

// Table4Row is one precision's per-FU cost.
type Table4Row struct {
	Precision fixed.Precision
	AreaUM2   float64
	PowerUW   float64
}

// Table4 reproduces per-FU area/power by datapath precision.
func Table4() ([]Table4Row, string) {
	var rows []Table4Row
	var cells [][]string
	for _, p := range []fixed.Precision{fixed.Fix8, fixed.Fix16, fixed.Fix32} {
		r := Table4Row{Precision: p, AreaUM2: hwmodel.FUArea(p), PowerUW: hwmodel.FUPower(p)}
		rows = append(rows, r)
		cells = append(cells, []string{p.String(),
			fmt.Sprintf("%.0f", r.AreaUM2), fmt.Sprintf("%.0f", r.PowerUW)})
	}
	return rows, table("Table 4: per-FU area and power at 16 lanes x 4 stages",
		[]string{"Precision", "Area (um^2)", "Power (uW)"}, cells)
}

// Figure9Point is one CU configuration's per-FU cost.
type Figure9Point struct {
	Lanes, Stages    int
	AreaUM2, PowerMW float64
}

// Figure9 sweeps CU lane/stage configurations (per-FU area and power).
func Figure9() ([]Figure9Point, string) {
	var pts []Figure9Point
	var cells [][]string
	for _, stages := range []int{2, 3, 4, 6} {
		for _, lanes := range []int{4, 8, 16, 32} {
			p := Figure9Point{
				Lanes: lanes, Stages: stages,
				AreaUM2: hwmodel.AreaPerFU(lanes, stages, fixed.Fix8),
				PowerMW: hwmodel.PowerPerFU(lanes, stages, fixed.Fix8) / 1000,
			}
			pts = append(pts, p)
			cells = append(cells, []string{
				fmt.Sprint(lanes), fmt.Sprint(stages),
				fmt.Sprintf("%.0f", p.AreaUM2), fmt.Sprintf("%.3f", p.PowerMW)})
		}
	}
	return pts, table("Figure 9: per-FU area and power across CU configurations (fix8)",
		[]string{"Lanes", "Stages", "Area/FU (um^2)", "Power/FU (mW)"}, cells)
}

// Figure10Point is one activation's area at one pipeline depth.
type Figure10Point struct {
	Activation string
	Stages     int
	AreaMM2    float64
}

// Figure10 compiles each activation microbenchmark against grids whose CUs
// have 2, 3, 4 and 6 stages and reports total area at line rate.
func Figure10() ([]Figure10Point, string, error) {
	suite, err := lower.Microbenchmarks(16)
	if err != nil {
		return nil, "", err
	}
	names := []string{"ReLU", "LeakyReLU", "TanhExp", "SigmoidExp", "TanhPW", "SigmoidPW", "ActLUT"}
	var pts []Figure10Point
	var cells [][]string
	for _, name := range names {
		row := []string{name}
		for _, stages := range []int{2, 3, 4, 6} {
			grid := cgra.DefaultGrid()
			grid.Stages = stages
			res, err := compiler.Compile(suite[name], compiler.Options{Grid: grid})
			if err != nil {
				return nil, "", fmt.Errorf("experiments: fig10 %s@%d: %w", name, stages, err)
			}
			p := Figure10Point{Activation: name, Stages: stages, AreaMM2: res.AreaMM2()}
			pts = append(pts, p)
			row = append(row, fmt.Sprintf("%.3f", p.AreaMM2))
		}
		cells = append(cells, row)
	}
	return pts, table("Figure 10: activation-function area (mm^2) vs CU stage count, at line rate",
		[]string{"Activation", "2 stages", "3 stages", "4 stages", "6 stages"}, cells), nil
}

// Table5Row is one application model's footprint.
type Table5Row struct {
	App, Model string
	GPktPerSec float64
	LatencyNs  int
	AreaMM2    float64
	AreaPct    float64
	PowerMW    float64
	PowerPct   float64
}

// Table5 compiles the four models and reports performance and overheads,
// plus the full-grid row.
func Table5(m *Models) ([]Table5Row, string, error) {
	compiled, err := m.CompileAll()
	if err != nil {
		return nil, "", err
	}
	order := []struct{ app, model, key string }{
		{"IoT", "KMeans", "KMeans"},
		{"Anom.", "SVM", "SVM"},
		{"Anom.", "DNN", "DNN"},
		{"Indigo", "LSTM", "LSTM"},
	}
	var rows []Table5Row
	var cells [][]string
	for _, o := range order {
		res := compiled[o.key]
		r := Table5Row{
			App: o.app, Model: o.model,
			GPktPerSec: res.Stats.LineRateFraction(),
			LatencyNs:  res.Stats.LatencyCycles,
			AreaMM2:    res.AreaMM2(),
			AreaPct:    res.Usage.AreaOverheadPct(),
			PowerMW:    res.PowerMW(),
			PowerPct:   res.Usage.PowerOverheadPct(),
		}
		rows = append(rows, r)
		perf := fmt.Sprintf("%.2f", r.GPktPerSec)
		if o.key == "LSTM" {
			perf = "-" // the paper reports no line-rate figure for Indigo
		}
		cells = append(cells, []string{o.app, o.model, perf,
			fmt.Sprint(r.LatencyNs), fmt.Sprintf("%.1f", r.AreaMM2), fmt.Sprintf("%.1f", r.AreaPct),
			fmt.Sprintf("%.0f", r.PowerMW), fmt.Sprintf("%.1f", r.PowerPct)})
	}
	grid := hwmodel.FullGrid()
	cells = append(cells, []string{"12x10 Grid", "", "", "",
		fmt.Sprintf("%.1f", grid.AreaMM2()), fmt.Sprintf("%.1f", grid.AreaOverheadPct()),
		fmt.Sprintf("%.0f", grid.PowerMW()), fmt.Sprintf("%.1f", grid.PowerOverheadPct())})
	return rows, table("Table 5: application models on the MapReduce block",
		[]string{"App", "Model", "GPkt/s", "ns", "mm^2", "+%", "mW", "+%"}, cells), nil
}

// Figure11 summarises the DNN's decomposition into perceptron and ReLU
// microbenchmark instances (the paper's block diagram).
func Figure11(m *Models) (string, error) {
	g := m.DNNGraph
	perceptrons, relus, luts := 0, 0, 0
	for _, n := range g.Nodes {
		switch {
		case n.Kind == mr.KReduce && n.Reduce == mr.RAdd:
			perceptrons++
		case n.Kind == mr.KUnary && n.Unary == mr.UReLU:
			relus++
		case n.Kind == mr.KLUT:
			luts++
		}
	}
	return fmt.Sprintf("Figure 11: anomaly DNN decomposition\n"+
		"perceptron (inner-product) instances: %d\n"+
		"vectorised ReLU instances:            %d\n"+
		"sigmoid lookup tables:                %d\n"+
		"graph nodes total:                    %d\n",
		perceptrons, relus, luts, len(g.Nodes)), nil
}

// Table6Row is one microbenchmark's footprint.
type Table6Row struct {
	Name      string
	AreaMM2   float64
	LatencyNs int
	II        int
}

// Table6 compiles the microbenchmark suite at line rate.
func Table6() ([]Table6Row, string, error) {
	suite, err := lower.Microbenchmarks(16)
	if err != nil {
		return nil, "", err
	}
	order := []string{"Conv1D", "InnerProduct", "ReLU", "LeakyReLU",
		"TanhExp", "SigmoidExp", "TanhPW", "SigmoidPW", "ActLUT"}
	var rows []Table6Row
	var cells [][]string
	for _, name := range order {
		res, err := compiler.Compile(suite[name], compiler.Options{})
		if err != nil {
			return nil, "", fmt.Errorf("experiments: table6 %s: %w", name, err)
		}
		r := Table6Row{Name: name, AreaMM2: res.AreaMM2(), LatencyNs: res.Stats.LatencyCycles, II: res.Stats.II}
		rows = append(rows, r)
		cells = append(cells, []string{name, fmt.Sprintf("%.2f", r.AreaMM2), fmt.Sprint(r.LatencyNs)})
	}
	return rows, table("Table 6: microbenchmark area and latency at line rate (16-lane, 4-stage CU)",
		[]string{"ubmark", "Area (mm^2)", "Lat. (ns)"}, cells), nil
}

// Table7Row is one unrolling point of the Conv1D study.
type Table7Row struct {
	Unroll   int
	LineRate float64
	AreaMM2  float64
}

// Table7 sweeps Conv1D unrolling factors 1..8.
func Table7() ([]Table7Row, string, error) {
	conv, err := lower.Conv1D(8, 2)
	if err != nil {
		return nil, "", err
	}
	var rows []Table7Row
	var cells [][]string
	for _, u := range []int{1, 2, 4, 8} {
		res, err := compiler.Compile(conv, compiler.Options{MaxCUs: u})
		if err != nil {
			return nil, "", err
		}
		r := Table7Row{Unroll: u, LineRate: res.Stats.LineRateFraction(), AreaMM2: res.AreaMM2()}
		rows = append(rows, r)
		cells = append(cells, []string{"Conv1D", fmt.Sprint(u),
			fmt.Sprintf("1/%d", res.Stats.II), fmt.Sprintf("%.2f", r.AreaMM2)})
	}
	ip, err := lower.InnerProduct(16)
	if err != nil {
		return nil, "", err
	}
	res, err := compiler.Compile(ip, compiler.Options{})
	if err != nil {
		return nil, "", err
	}
	cells = append(cells, []string{"InnerProduct", "-", "1/1", fmt.Sprintf("%.2f", res.AreaMM2())})
	return rows, table("Table 7: throughput and area scaling with unrolling",
		[]string{"ubmark", "Unroll", "Line Rate", "Area (mm^2)"}, cells), nil
}

// MATComparison reproduces §5.1.4's MAT-only comparison.
func MATComparison(m *Models) (string, error) {
	compiled, err := m.CompileAll()
	if err != nil {
		return "", err
	}
	dnnMATs := hwmodel.IsoAreaMATs(compiled["DNN"].AreaMM2())
	svmMATs := hwmodel.IsoAreaMATs(compiled["SVM"].AreaMM2())
	kmMATs := hwmodel.IsoAreaMATs(compiled["KMeans"].AreaMM2())
	cells := [][]string{
		{"Anomaly DNN (4 layers)", fmt.Sprint(hwmodel.N2NetMATsPerLayer * 4), fmt.Sprintf("%.1f", dnnMATs)},
		{"SVM (IIsy)", fmt.Sprint(hwmodel.IIsySVMMATs), fmt.Sprintf("%.1f", svmMATs)},
		{"KMeans (IIsy)", fmt.Sprint(hwmodel.IIsyKMeansMATs), fmt.Sprintf("%.1f", kmMATs)},
	}
	return table("MAT-only ML implementations vs Taurus (iso-area MAT stages, 5.1.4)",
		[]string{"Model", "MAT-only MATs", "Taurus iso-area MATs"}, cells), nil
}
