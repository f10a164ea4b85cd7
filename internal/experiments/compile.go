package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"taurus/internal/cgra"
	"taurus/internal/graphcheck"
	"taurus/internal/hwmodel"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// CompileRow is one model family's compiled-tape measurement: the
// host-measured per-packet cost of the tape, swept one packet and a full
// batch at a time, plus the schedule it derives its service model from.
type CompileRow struct {
	Model string
	Nodes int
	// CompiledNs and BatchNs are host-measured ns per packet for Program.Run
	// and for Program.RunBatch amortised over a full batch. Wall-clock
	// diagnostics: they depend on the machine.
	CompiledNs float64
	BatchNs    float64
	// SchedII and SchedDepth are the list schedule's measured initiation
	// interval and makespan; Occupancy is its CU bundle fill fraction.
	SchedII    int
	SchedDepth int
	Occupancy  float64
	// ModelMpps is the modelled single-block throughput at the measured II
	// (one packet per II cycles at 1 GHz).
	ModelMpps float64
}

// timePerOp measures f's steady-state cost, amortising timer overhead over
// inner repetitions.
func timePerOp(f func()) float64 {
	for i := 0; i < 200; i++ {
		f() // warm caches and branch predictors
	}
	const inner = 500
	n := 0
	start := time.Now()
	for time.Since(start) < 25*time.Millisecond {
		for i := 0; i < inner; i++ {
			f()
		}
		n += inner
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// CompileBench times the compiled tape on the dnn/svm/kmeans lowerings —
// the experiment behind `taurus-bench -exp compile`. Run and RunBatch are
// bit-exact with Graph.Eval (the fuzz and sched tests assert it); this
// measures what batching the sweep buys and what II the service model runs
// on.
func CompileBench(m *Models) ([]CompileRow, string, error) {
	grid := cgra.DefaultGrid()
	families := []struct {
		name string
		g    *mr.Graph
	}{
		{"dnn", m.DNNGraph},
		{"svm", m.SVMGraph},
		{"kmeans", m.KMeansGraph},
	}

	var rows []CompileRow
	var cells [][]string
	for _, fam := range families {
		p, err := sched.Compile(fam.g, grid)
		if err != nil {
			return nil, "", err
		}
		if err := graphcheck.Check(fam.g); err != nil {
			return nil, "", err
		}

		// One deterministic feature vector per batch slot, int8 codes like
		// the preprocessing MATs produce.
		rng := rand.New(rand.NewSource(11))
		width := fam.g.Node(fam.g.Inputs[0]).Width
		codes := make([][]int32, p.MaxBatch())
		for j := range codes {
			codes[j] = make([]int32, width)
			for i := range codes[j] {
				codes[j][i] = int32(int8(rng.Intn(256)))
			}
		}

		compiled := timePerOp(func() {
			copy(p.In(0), codes[0])
			p.Run()
		})
		batch := p.MaxBatch()
		for j := 0; j < batch; j++ {
			copy(p.InAt(0, j), codes[j])
		}
		batchNs := timePerOp(func() { p.RunBatch(batch) }) / float64(batch)

		s := p.Schedule()
		row := CompileRow{
			Model:      fam.name,
			Nodes:      len(fam.g.Nodes),
			CompiledNs: compiled,
			BatchNs:    batchNs,
			SchedII:    s.II,
			SchedDepth: s.Depth,
			Occupancy:  s.Occupancy(),
			ModelMpps:  hwmodel.ThroughputPPS(s.II) / 1e6,
		}
		rows = append(rows, row)
		cells = append(cells, []string{
			row.Model,
			fmt.Sprintf("%d", row.Nodes),
			fmt.Sprintf("%.0f", row.CompiledNs),
			fmt.Sprintf("%.0f", row.BatchNs),
			fmt.Sprintf("%d", row.SchedII),
			fmt.Sprintf("%.0f%%", 100*row.Occupancy),
			fmt.Sprintf("%.0f", row.ModelMpps),
		})
	}
	return rows, table("Compiled evaluation: the VLIW tape (ns/packet, measured II)",
		[]string{"Model", "Nodes", "Compiled", "Batch",
			"Sched II", "Occup", "Model Mpps"}, cells), nil
}
