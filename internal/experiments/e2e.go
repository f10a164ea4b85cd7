package experiments

import (
	"fmt"

	"taurus/internal/netsim"
	"taurus/internal/training"
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

// Figure13 produces online-training convergence curves per sampling rate.
func Figure13() (map[float64][]training.Point, string, error) {
	curves := map[float64][]training.Point{}
	var cells [][]string
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		cfg := training.DefaultConfig(p)
		pts, err := training.Run(cfg)
		if err != nil {
			return nil, "", err
		}
		curves[p] = pts
		cells = append(cells, []string{
			fmt.Sprintf("%.0e", p),
			fmt.Sprintf("%.4f", training.TimeToF1(pts, 60)),
			fmt.Sprintf("%.4f", pts[len(pts)-1].TimeS),
			fmt.Sprintf("%.1f", training.FinalF1(pts)),
		})
	}
	return curves, table("Figure 13: online training convergence by sampling rate",
		[]string{"Sampling", "t(F1>=60) s", "t(final) s", "final F1"}, cells), nil
}

// Figure14 produces convergence curves per (epochs, batch) at sampling 1e-2.
func Figure14() (map[string][]training.Point, string, error) {
	curves := map[string][]training.Point{}
	var cells [][]string
	for _, cfg := range []struct {
		epochs, batch int
	}{
		{1, 64}, {1, 256}, {10, 64}, {10, 256},
	} {
		c := training.DefaultConfig(1e-2)
		c.Epochs = cfg.epochs
		c.BatchSize = cfg.batch
		c.Updates = 40
		pts, err := training.Run(c)
		if err != nil {
			return nil, "", err
		}
		key := fmt.Sprintf("%d/%d", cfg.epochs, cfg.batch)
		curves[key] = pts
		cells = append(cells, []string{key,
			fmt.Sprintf("%.4f", training.TimeToF1(pts, 60)),
			fmt.Sprintf("%.1f", training.FinalF1(pts)),
		})
	}
	return curves, table("Figure 14: convergence by epochs/batch at sampling 1e-2",
		[]string{"Epoch/Batch", "t(F1>=60) s", "final F1"}, cells), nil
}
