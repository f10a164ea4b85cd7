// Command taurus-compile trains one of the paper's models, lowers it to
// MapReduce, places it on the CGRA grid, and prints the compilation report:
// units used, latency, initiation interval, area and power.
//
// With -check it instead runs both static verifiers and prints their full
// reports, exiting non-zero if either rejects or the graph does not schedule:
// the graph verifier (internal/graphcheck) — value ranges, resource census,
// dead nodes — and the tape verifier (sched.Verify, the report of the gate
// sched.Compile closes with), which translation-validates the compiled
// instruction tape against the graph (semantic equivalence, weight aliasing,
// row sums, arena and schedule bounds). The list schedule (internal/sched)
// follows: its depth, its II and its per-cycle issue bundles. -json renders
// both reports as one JSON document instead of text.
//
// Usage:
//
//	taurus-compile -model dnn|svm|kmeans|lstm [-maxcus N] [-seed N] [-check [-json]]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/experiments"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

func main() {
	model := flag.String("model", "dnn", "model to compile: dnn, svm, kmeans, lstm")
	maxCUs := flag.Int("maxcus", 0, "cap on compute units (0 = whole grid); forces unit sharing")
	seed := flag.Int64("seed", 1, "training seed")
	check := flag.Bool("check", false, "run the static verifiers and print their reports instead of compiling")
	asJSON := flag.Bool("json", false, "with -check: print both verifier reports as JSON")
	flag.Parse()

	if *asJSON && !*check {
		fmt.Fprintln(os.Stderr, "taurus-compile: -json requires -check")
		os.Exit(2)
	}
	if err := run(*model, *maxCUs, *seed, *check, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "taurus-compile:", err)
		os.Exit(1)
	}
}

func run(model string, maxCUs int, seed int64, check, asJSON bool) error {
	fmt.Fprintln(os.Stderr, "training models...")
	m, err := experiments.TrainModels(seed)
	if err != nil {
		return err
	}
	var g *mr.Graph
	switch model {
	case "dnn":
		g = m.DNNGraph
	case "svm":
		g = m.SVMGraph
	case "kmeans":
		g = m.KMeansGraph
	case "lstm":
		g = m.LSTMGraph
	default:
		return fmt.Errorf("unknown model %q", model)
	}

	if check {
		return runCheck(os.Stdout, g, asJSON)
	}

	res, err := compiler.Compile(g, compiler.Options{MaxCUs: maxCUs})
	if err != nil {
		return err
	}
	grid := cgra.DefaultGrid()
	fmt.Printf("model:            %s (%d IR nodes)\n", g.Name, len(g.Nodes))
	fmt.Printf("grid:             %dx%d units, %d-lane %d-stage CUs, %v datapath\n",
		grid.Rows, grid.Cols, grid.Lanes, grid.Stages, grid.Precision)
	fmt.Printf("compute units:    %d of %d\n", res.Usage.CUs, grid.CUCount())
	fmt.Printf("memory units:     %d of %d (%d weight bytes, %d LUTs)\n",
		res.Usage.MUs, grid.MUCount(), res.WeightBytes, res.LUTCount)
	fmt.Printf("latency:          %d cycles = %.0f ns at 1 GHz\n",
		res.Stats.LatencyCycles, res.Stats.LatencyNs())
	fmt.Printf("initiation intvl: %d (%.3f of line rate)\n",
		res.Stats.II, res.Stats.LineRateFraction())
	fmt.Printf("area:             %.3f mm^2 (+%.2f%% of a 500 mm^2 switch, 4 pipelines)\n",
		res.AreaMM2(), res.Usage.AreaOverheadPct())
	fmt.Printf("power:            %.0f mW (+%.2f%% of 270 W)\n",
		res.PowerMW(), res.Usage.PowerOverheadPct())

	// Placement dump: groups per column.
	perCol := map[int]int{}
	for _, grp := range res.Placement.Groups {
		if grp.Kind != cgra.GroupWire {
			perCol[grp.Pos.Col]++
		}
	}
	fmt.Printf("placement:        ")
	for c := 0; c < grid.Cols; c++ {
		fmt.Printf("col%d:%d ", c, perCol[c])
	}
	fmt.Println()
	return nil
}

// runCheck runs both static verifiers and prints their reports; its error is
// -check's exit status (see checkErr).
func runCheck(w io.Writer, g *mr.Graph, asJSON bool) error {
	rep := graphcheck.Verify(g)

	// Compile the tape unverified so a rejected translation still yields the
	// full tapecheck report rather than a bare compile error.
	var trep *sched.Report
	prog, tapeErr := sched.CompileUnverified(g, cgra.DefaultGrid())
	if tapeErr == nil {
		trep = sched.Verify(prog)
	}
	verdict := checkErr(rep, trep, tapeErr)

	if asJSON {
		out := struct {
			Graph *graphcheck.Report `json:"graph"`
			Tape  *sched.Report      `json:"tape,omitempty"`
			// TapeError is set when the list scheduler refused the graph and
			// no tape exists to verify.
			TapeError string `json:"tape_error,omitempty"`
		}{Graph: rep, Tape: trep}
		if tapeErr != nil {
			out.TapeError = tapeErr.Error()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		return verdict
	}

	fmt.Fprintln(w, rep)
	if tapeErr != nil {
		fmt.Fprintf(w, "tapecheck: skipped — graph does not schedule: %s\n", tapeErr)
		return verdict
	}
	fmt.Fprintf(w, "%s\n\n%s\n", trep, prog.Schedule())
	return verdict
}

// checkErr is -check's exit decision, the same with and without -json: the
// graph must verify, schedule, and translate faithfully — exactly the graphs
// the push gate (graphcheck.Check) and the install gate (sched.Compile)
// accept. trep is nil when tapeErr is not.
func checkErr(rep *graphcheck.Report, trep *sched.Report, tapeErr error) error {
	switch {
	case !rep.OK():
		return rep.Err()
	case tapeErr != nil:
		return fmt.Errorf("graph verifies but does not schedule: %w", tapeErr)
	default:
		return trep.Err()
	}
}
