package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

var (
	once sync.Once
	mdls *Models
	merr error
)

func sharedModels(t *testing.T) *Models {
	t.Helper()
	once.Do(func() { mdls, merr = TrainModels(1) })
	if merr != nil {
		t.Fatal(merr)
	}
	return mdls
}

func TestTable1Renders(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Heavy Hitters", "Congestion Control", "Load Balancing"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	rows, text := Table2()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.Contains(text, "Taurus") {
		t.Error("rendering should include the Taurus comparison row")
	}
}

// TestCPUWinsUnbatched pins the paper's ordering: CPU < GPU < TPU unbatched
// (§2.1.2: setup overhead dominates, so the CPU is the fastest design).
func TestCPUWinsUnbatched(t *testing.T) {
	rows, _ := Table2()
	if !(rows[0].LatencyMs < rows[1].LatencyMs && rows[1].LatencyMs < rows[2].LatencyMs) {
		t.Errorf("ordering violated: %+v", rows)
	}
}

func TestTable2Anchors(t *testing.T) {
	want := map[string]float64{
		"Broadwell Xeon": 0.67,
		"Tesla T4 GPU":   1.15,
		"Cloud TPU v2-8": 3.51,
	}
	rows, _ := Table2()
	for _, r := range rows {
		if math.Abs(r.LatencyMs-want[r.Name]) > 0.01 {
			t.Errorf("%s unbatched latency = %v ms, want %v", r.Name, r.LatencyMs, want[r.Name])
		}
	}
}

func TestTaurusOrdersOfMagnitude(t *testing.T) {
	rows, _ := Table2()
	if ratio := rows[0].LatencyMs / taurusLatencyMs; ratio < 1000 {
		t.Errorf("control plane should be >=3 orders slower, ratio %v", ratio)
	}
}

func TestTable3QuantisationLossSmall(t *testing.T) {
	rows, _, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: |diff| <= 0.07 points. Allow 1.5 for the synthetic set.
		if r.Diff > 1.5 || r.Diff < -1.5 {
			t.Errorf("%s: fix8 diff %.2f too large", r.Kernel, r.Diff)
		}
		// Accuracy near the paper's ~67% operating point.
		if r.Float32 < 60 || r.Float32 > 80 {
			t.Errorf("%s: float accuracy %.1f out of band", r.Kernel, r.Float32)
		}
	}
}

func TestTable4(t *testing.T) {
	rows, text := Table4()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AreaUM2 != 670 {
		t.Errorf("fix8 anchor = %v", rows[0].AreaUM2)
	}
	// Monotone growth with precision.
	if !(rows[0].AreaUM2 < rows[1].AreaUM2 && rows[1].AreaUM2 < rows[2].AreaUM2) {
		t.Error("area should grow with precision")
	}
	if !strings.Contains(text, "fix16") {
		t.Error("rendering missing fix16 row")
	}
}

func TestFigure9(t *testing.T) {
	pts, _ := Figure9()
	if len(pts) != 16 {
		t.Fatalf("points = %d", len(pts))
	}
	// Per-FU area at 4 lanes exceeds 32 lanes for every stage count.
	byStages := map[int]map[int]float64{}
	for _, p := range pts {
		if byStages[p.Stages] == nil {
			byStages[p.Stages] = map[int]float64{}
		}
		byStages[p.Stages][p.Lanes] = p.AreaUM2
	}
	for st, lanes := range byStages {
		if lanes[4] <= lanes[32] {
			t.Errorf("stages=%d: per-FU area should shrink with lanes", st)
		}
	}
}

func TestFigure10(t *testing.T) {
	pts, _, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	area := map[string]map[int]float64{}
	for _, p := range pts {
		if area[p.Activation] == nil {
			area[p.Activation] = map[int]float64{}
		}
		area[p.Activation][p.Stages] = p.AreaMM2
	}
	// Taylor-series activations cost more than piecewise at 4 stages.
	if area["TanhExp"][4] <= area["TanhPW"][4] {
		t.Errorf("TanhExp (%.3f) should exceed TanhPW (%.3f)", area["TanhExp"][4], area["TanhPW"][4])
	}
	// ReLU is cheap everywhere.
	for st, a := range area["ReLU"] {
		if a > area["SigmoidExp"][st] {
			t.Errorf("ReLU (%.3f) should not exceed SigmoidExp (%.3f) at %d stages",
				a, area["SigmoidExp"][st], st)
		}
	}
}

func TestTable5(t *testing.T) {
	m := sharedModels(t)
	rows, text, err := Table5(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper shape: KMeans < SVM < DNN < LSTM in area and latency; all but
	// LSTM at line rate.
	if !(rows[0].AreaMM2 < rows[1].AreaMM2 && rows[1].AreaMM2 < rows[2].AreaMM2 && rows[2].AreaMM2 < rows[3].AreaMM2) {
		t.Errorf("area ordering violated: %+v", rows)
	}
	for i := 0; i < 3; i++ {
		if rows[i].GPktPerSec != 1 {
			t.Errorf("%s should run at line rate", rows[i].Model)
		}
	}
	if rows[3].GPktPerSec >= 1 {
		t.Error("LSTM should be below line rate")
	}
	if !strings.Contains(text, "12x10 Grid") {
		t.Error("rendering missing the grid row")
	}
}

func TestFigure11(t *testing.T) {
	m := sharedModels(t)
	s, err := Figure11(m)
	if err != nil {
		t.Fatal(err)
	}
	// 12+6+3+1 = 22 perceptrons in the anomaly DNN.
	if !strings.Contains(s, "perceptron (inner-product) instances: 22") {
		t.Errorf("unexpected decomposition:\n%s", s)
	}
}

func TestTable6And7(t *testing.T) {
	rows6, _, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows6) != 9 {
		t.Fatalf("table 6 rows = %d", len(rows6))
	}
	for _, r := range rows6 {
		if r.II != 1 {
			t.Errorf("%s not at line rate", r.Name)
		}
	}
	rows7, _, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows7) != 4 {
		t.Fatalf("table 7 rows = %d", len(rows7))
	}
	if rows7[0].LineRate != 0.125 || rows7[3].LineRate != 1 {
		t.Errorf("unroll line rates wrong: %+v", rows7)
	}
}

func TestMATComparison(t *testing.T) {
	m := sharedModels(t)
	s, err := MATComparison(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "48") {
		t.Error("N2Net's 48 MATs missing")
	}
}

func TestTable8Small(t *testing.T) {
	m := sharedModels(t)
	rows, text, err := Table8(m, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TaurusF1 < 50 {
			t.Errorf("sampling %v: Taurus F1 %.1f too low", r.SamplingRate, r.TaurusF1)
		}
		if r.TaurusDetectedPct < 5*r.BaselineDetectedPct {
			t.Errorf("sampling %v: Taurus %.1f%% vs baseline %.3f%%",
				r.SamplingRate, r.TaurusDetectedPct, r.BaselineDetectedPct)
		}
	}
	if !strings.Contains(text, "Taurus F1") {
		t.Error("rendering missing headers")
	}
}

// curvesOf splits a convergence figure's rows into its curves, each of
// which starts at Update 0.
func curvesOf(rows []ConvergenceRow) [][]ConvergenceRow {
	var curves [][]ConvergenceRow
	for _, r := range rows {
		if r.Update == 0 {
			curves = append(curves, nil)
		}
		curves[len(curves)-1] = append(curves[len(curves)-1], r)
	}
	return curves
}

// updatesToF1 returns how many retrains curve took to serve at least
// target F1, or -1 if it never does.
func updatesToF1(curve []ConvergenceRow, target float64) int {
	for _, r := range curve {
		if r.F1 >= target {
			return r.Update
		}
	}
	return -1
}

var (
	figOnce      sync.Once
	fig13, fig14 [][]ConvergenceRow
	figErr       error
)

// sharedFigures runs Figures 13 and 14 once for every test that reads them.
func sharedFigures(t *testing.T) (c13, c14 [][]ConvergenceRow) {
	t.Helper()
	figOnce.Do(func() {
		var rows13, rows14 []ConvergenceRow
		if rows13, _, figErr = Figure13(); figErr != nil {
			return
		}
		if rows14, _, figErr = Figure14(); figErr != nil {
			return
		}
		fig13, fig14 = curvesOf(rows13), curvesOf(rows14)
	})
	if figErr != nil {
		t.Fatal(figErr)
	}
	return fig13, fig14
}

// TestFigures13And14Small checks both figures' layout on the real control
// loop: four curves each, the first fit on one batch and the last on the
// full sliding window.
func TestFigures13And14Small(t *testing.T) {
	c13, c14 := sharedFigures(t)
	if len(c13) != 4 || len(c14) != 4 {
		t.Fatalf("curves = %d, %d; want 4 each", len(c13), len(c14))
	}
	for _, c := range append(c13, c14...) {
		first, last := c[0], c[len(c)-1]
		if first.Records != first.Batch || last.Records != trainWindow {
			t.Errorf("sampling %g, %d/%d: fit on %d then %d records, want %d then the %d-record window",
				first.Sampling, first.Epochs, first.Batch, first.Records, last.Records, first.Batch, trainWindow)
		}
	}
}

// TestCurveShape: every curve's modelled time axis increases and the served
// model converges past F1 60.
func TestCurveShape(t *testing.T) {
	c13, c14 := sharedFigures(t)
	for _, c := range append(append([][]ConvergenceRow{}, c13...), c14...) {
		last := c[len(c)-1]
		name := fmt.Sprintf("sampling %g, %d/%d", last.Sampling, last.Epochs, last.Batch)
		for i := 1; i < len(c); i++ {
			if c[i].TimeS <= c[i-1].TimeS {
				t.Fatalf("%s: time not increasing at update %d", name, i)
			}
		}
		if last.F1 < 60 {
			t.Errorf("%s: final F1 %.1f < 60", name, last.F1)
		}
	}
}

// TestHigherSamplingConvergesFaster pins Figure 13: t(F1>=60) strictly
// decreases as the sampling rate rises.
func TestHigherSamplingConvergesFaster(t *testing.T) {
	c13, _ := sharedFigures(t)
	prev := math.Inf(1)
	for _, c := range c13 {
		tt := timeToF1(c, 60)
		if tt < 0 || tt >= prev {
			t.Errorf("sampling %g: t(F1>=60) = %v, want reached and below %v", c[0].Sampling, tt, prev)
		}
		prev = tt
	}
}

// TestMoreEpochsConvergeFaster pins Figure 14 (curves 1/64, 1/256, 10/64,
// 10/256): at either batch size, 10 epochs per update reach F1 60 in fewer
// updates than 1 epoch.
func TestMoreEpochsConvergeFaster(t *testing.T) {
	_, c14 := sharedFigures(t)
	for i := 0; i < 2; i++ {
		one, ten := updatesToF1(c14[i], 60), updatesToF1(c14[i+2], 60)
		if ten < 0 || (one >= 0 && ten >= one) {
			t.Errorf("batch %d: 10 epochs reach F1 60 after %d updates, 1 epoch after %d",
				c14[i][0].Batch, ten, one)
		}
	}
}

func TestTimeToF1Helpers(t *testing.T) {
	curve := []ConvergenceRow{{TimeS: 0, F1: 10}, {Update: 1, TimeS: 1, F1: 50}, {Update: 2, TimeS: 2, F1: 70}}
	if got := timeToF1(curve, 50); got != 1 {
		t.Errorf("timeToF1 = %v", got)
	}
	if got := timeToF1(curve, 99); got != -1 {
		t.Errorf("unreachable target = %v", got)
	}
	if got := updatesToF1(curve, 70); got != 2 {
		t.Errorf("updatesToF1 = %v", got)
	}
	if got := updatesToF1(curve, 99); got != -1 {
		t.Errorf("unreachable target = %v", got)
	}
}
