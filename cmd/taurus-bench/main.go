// Command taurus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	taurus-bench                     # everything
//	taurus-bench -exp table5         # one experiment
//	taurus-bench -packets 100000     # smaller Table 8 run
//	taurus-bench -exp drift -model svm # close the loop over the SVM
//	taurus-bench -exp fleet          # one control plane driving 3 switches
//	taurus-bench -exp latency        # continuous-time queueing: tails, drops, push-under-load
//	taurus-bench -exp distfit        # distributed retrain: scaling + fault-injected drift recovery
//	taurus-bench -exp compile        # compiled-tape evaluation cost, measured II
//	taurus-bench -exp drift -json    # machine-readable rows (CI artifacts)
//
// Experiments: table1 table2 table3 table4 table5 table6 table7 table8
// fig9 fig10 fig11 fig13 fig14 mats throughput latency drift fleet
// distfit compile. The drift and fleet experiments take -model dnn|svm|iot
// to pick the retrained model family. -json (drift, throughput, latency,
// fleet, distfit and compile only) replaces the rendered table with the
// experiment's data rows as JSON, for the benchmark artifacts CI
// accumulates; every -json envelope carries an "obs" block — the full
// metrics-registry snapshot at the end of the run. -metrics-addr serves
// /metrics (Prometheus text), /metrics.json, /trace and /trace.json while
// the run executes; -trace-dump writes the control-plane trace journal to a
// file at exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"

	"taurus/internal/experiments"
	"taurus/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1..table8, fig9, fig10, fig11, fig13, fig14, mats, throughput, latency, drift, fleet, distfit, compile)")
	packets := flag.Int("packets", 400_000, "packets for the Table 8 simulation")
	seed := flag.Int64("seed", 1, "training seed")
	driftModel := flag.String("model", "dnn", "model family for the drift and fleet experiments (dnn, svm, iot)")
	jsonOut := flag.Bool("json", false, "emit the experiment's data rows as JSON (drift, throughput, latency, fleet, distfit, compile only)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /trace on this address while the run executes")
	traceDump := flag.String("trace-dump", "", "write the control-plane trace journal to this file at exit (.json selects JSON, otherwise text)")
	flag.Parse()

	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr)
	}
	var err error
	if *jsonOut {
		err = runJSON(*exp, *seed, *driftModel)
	} else {
		err = run(*exp, *packets, *seed, *driftModel)
	}
	if derr := dumpTrace(*traceDump); err == nil {
		err = derr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "taurus-bench:", err)
		os.Exit(1)
	}
}

// serveMetrics exposes the default registry and trace journal for scrapes
// while the experiments run; the listener dies with the process.
func serveMetrics(addr string) {
	if err := http.ListenAndServe(addr, obs.Handler(obs.Default(), obs.DefaultTracer())); err != nil {
		fmt.Fprintln(os.Stderr, "taurus-bench: metrics listener:", err)
	}
}

// dumpTrace writes the retained trace journal to path ("" = skip).
func dumpTrace(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := obs.DefaultTracer()
	if strings.HasSuffix(path, ".json") {
		err = tr.WriteJSON(f)
	} else {
		err = tr.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// benchOutput is the envelope of every -json run: the experiment's rows
// plus an obs block — the full metrics-registry snapshot at the end of the
// run, so CI artifacts carry the telemetry beside the results. The field
// set is pinned by TestBenchOutputSchema.
type benchOutput struct {
	Experiment string       `json:"experiment"`
	Model      string       `json:"model,omitempty"`
	Seed       int64        `json:"seed"`
	Rows       any          `json:"rows"`
	Obs        []obs.Metric `json:"obs"`
}

// runJSON emits one experiment's rows as indented JSON on stdout — the
// machine-readable benchmark trajectory CI uploads as artifacts.
func runJSON(exp string, seed int64, driftModel string) error {
	out := benchOutput{Experiment: strings.ToLower(exp), Seed: seed}

	switch out.Experiment {
	case "drift":
		rows, _, err := experiments.DriftTable(seed, driftModel)
		if err != nil {
			return err
		}
		out.Model, out.Rows = driftModel, rows
	case "fleet":
		rows, _, err := experiments.FleetTable(seed, driftModel)
		if err != nil {
			return err
		}
		out.Model, out.Rows = driftModel, rows
	case "distfit":
		res, _, err := experiments.DistFitTable(seed)
		if err != nil {
			return err
		}
		out.Rows = res
	case "throughput":
		models, err := experiments.TrainModels(seed)
		if err != nil {
			return err
		}
		rows, _, err := experiments.Throughput(models)
		if err != nil {
			return err
		}
		out.Rows = rows
	case "latency":
		models, err := experiments.TrainModels(seed)
		if err != nil {
			return err
		}
		res, _, err := experiments.Latency(models, seed)
		if err != nil {
			return err
		}
		out.Rows = res
	case "compile":
		models, err := experiments.TrainModels(seed)
		if err != nil {
			return err
		}
		rows, _, err := experiments.CompileBench(models)
		if err != nil {
			return err
		}
		out.Rows = rows
	default:
		return fmt.Errorf("-json supports drift, throughput, latency, fleet, distfit and compile, not %q", exp)
	}
	out.Obs = obs.Default().Snapshot()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func run(exp string, packets int, seed int64, driftModel string) error {
	want := func(name string) bool { return exp == "all" || strings.EqualFold(exp, name) }

	needModels := exp == "all" || want("table5") || want("table8") || want("fig11") || want("mats") || want("throughput") || want("latency") || want("compile")
	var models *experiments.Models
	if needModels {
		fmt.Fprintln(os.Stderr, "training application models...")
		m, err := experiments.TrainModels(seed)
		if err != nil {
			return err
		}
		models = m
	}

	ran := false
	emit := func(text string) {
		fmt.Println(text)
		ran = true
	}

	if want("table1") {
		emit(experiments.Table1())
	}
	if want("table2") {
		_, text := experiments.Table2()
		emit(text)
	}
	if want("table3") {
		_, text, err := experiments.Table3(seed)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("table4") {
		_, text := experiments.Table4()
		emit(text)
	}
	if want("fig9") {
		_, text := experiments.Figure9()
		emit(text)
	}
	if want("fig10") {
		_, text, err := experiments.Figure10()
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("table5") {
		_, text, err := experiments.Table5(models)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("fig11") {
		text, err := experiments.Figure11(models)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("table6") {
		_, text, err := experiments.Table6()
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("table7") {
		_, text, err := experiments.Table7()
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("mats") {
		text, err := experiments.MATComparison(models)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("throughput") {
		_, text, err := experiments.Throughput(models)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("compile") {
		fmt.Fprintln(os.Stderr, "measuring compiled evaluation...")
		_, text, err := experiments.CompileBench(models)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("latency") {
		fmt.Fprintln(os.Stderr, "running continuous-time queueing experiment...")
		_, text, err := experiments.Latency(models, seed)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("drift") {
		fmt.Fprintf(os.Stderr, "running closed-control-loop drift experiment (%s)...\n", driftModel)
		_, text, err := experiments.Drift(seed, driftModel)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("fleet") {
		fmt.Fprintf(os.Stderr, "running fleet control-plane experiment (%s)...\n", driftModel)
		_, text, err := experiments.FleetTable(seed, driftModel)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("distfit") {
		fmt.Fprintln(os.Stderr, "running distributed-retrain experiment...")
		_, text, err := experiments.DistFitTable(seed)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("table8") {
		fmt.Fprintln(os.Stderr, "running end-to-end simulation...")
		_, text, err := experiments.Table8(models, packets)
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("fig13") {
		_, text, err := experiments.Figure13()
		if err != nil {
			return err
		}
		emit(text)
	}
	if want("fig14") {
		_, text, err := experiments.Figure14()
		if err != nil {
			return err
		}
		emit(text)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
