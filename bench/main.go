// Command bench is the repository's benchmark: four seeded workloads through
// the traffic plane and its control path, every end-to-end metric from an
// untraced run and every per-layer metric from a traced one, each output
// checked against an independent reference. See README.md.
//
//	bash bench/run.sh --workload dnn-bulk --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of packets, flow set, class mix and order, model initialisation, label feed and arrivals")
		seconds   = flag.Float64("seconds", 16, "how long one run measures")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		outDir    = flag.String("out", "bench/out", "directory the traced run writes <workload>.spans.json to")
		repeat    = flag.Int("repeat", 1, "run N sets back to back on one seed and report each metric's spread against its bound")
		recompute = flag.String("recompute", "", "print the per-layer metrics of a span file and exit")
	)
	flag.Parse()
	if *recompute != "" {
		f, err := readSpanFile(*recompute)
		if err != nil {
			fatal(err)
		}
		printTable(os.Stdout, perLayer, layerMetrics(f))
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(fmt.Errorf("%w (have %s)", err, workloadNames()))
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0, -repeat >= 1 and -trace 0 or 1"))
	}
	spanPath := filepath.Join(*outDir, w.name+".spans.json")
	runSet := func() (*result, []metricDef, error) {
		if *trace == 1 {
			res, err := runTraced(w, *seed, *seconds, spanPath)
			return res, perLayer, err
		}
		res, err := runEndToEnd(w, *seed, *seconds, setupRuns)
		return res, endToEnd, err
	}

	var sets []*result
	var defs []metricDef
	for i := 0; i < *repeat; i++ {
		res, d, err := runSet()
		if err != nil {
			fatal(err)
		}
		sets, defs = append(sets, res), d
		fmt.Printf("# %s seed %d: %d operations attempted, %d failed\n", w.name, *seed, res.tally.attempted, res.tally.failed)
		for _, n := range res.tally.notes {
			fmt.Printf("#   %s\n", n)
		}
		printTable(os.Stdout, defs, res.metrics)
	}
	moved := 0
	if *repeat > 1 {
		moved = printRepeat(os.Stdout, defs, sets)
	}
	last := sets[len(sets)-1]
	failed := 0
	for _, s := range sets {
		failed += s.tally.failed
	}
	if err := emit(os.Stdout, defs, last, failed == 0); err != nil {
		fatal(err)
	}
	if failed > 0 || moved > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printTable lists every metric by name with unit, direction and kind, and
// the distribution its value was read from.
func printTable(out io.Writer, defs []metricDef, metrics map[string]sample) {
	fmt.Fprintf(out, "%-32s %14s %-6s %-7s %-9s %14s %14s %14s %6s\n",
		"metric", "value", "unit", "better", "kind", "median", "q1", "q3", "n")
	for _, d := range defs {
		s := metrics[d.name]
		note := ""
		if s.unresolved {
			note = "  unresolved: quartiles more than 10% of the median apart"
		}
		fmt.Fprintf(out, "%-32s %14.6g %-6s %-7s %-9s %14.6g %14.6g %14.6g %6d%s\n",
			d.name, s.value, d.unit, d.direction(), d.kind, s.median, s.q1, s.q3, s.n, note)
	}
}

// printRepeat is the -repeat self-check: per metric, the medians of the N
// sets, their quartiles, and the spread against the bound. It returns how
// many exact metrics moved between sets.
func printRepeat(out io.Writer, defs []metricDef, sets []*result) int {
	moved := 0
	fmt.Fprintf(out, "# -repeat %d: spread = (q3 - q1) / median of the sets' values\n", len(sets))
	fmt.Fprintf(out, "%-32s %16s %14s %14s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, d := range defs {
		var xs []float64
		for _, s := range sets {
			xs = append(xs, s.metrics[d.name].value)
		}
		s := summarize(xs)
		verdict := "ok"
		switch {
		case d.exact:
			verdict = "exact"
			for _, x := range xs {
				if x != xs[0] {
					verdict = "MOVED: an exact metric differs between sets of one seed"
					moved++
					break
				}
			}
		case d.bound > 0 && s.spread() > d.bound:
			verdict = "unresolved: spread exceeds the bound; run more trials, do not widen the bound"
		case d.bound == 0:
			verdict = "reported"
		}
		fmt.Fprintf(out, "%-32s %16.6g %14.6g %14.6g %7.2f%% %7.2f%%  %s\n",
			d.name, s.value, s.q1, s.q3, 100*s.spread(), 100*d.bound, verdict)
	}
	return moved
}

// emit prints the run's result as the last line of standard output, in the
// form the driver reads.
func emit(out io.Writer, defs []metricDef, res *result, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		s, ok := res.metrics[d.name]
		if !ok || math.IsNaN(s.value) || math.IsInf(s.value, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{s.value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.tally.attempted, res.tally.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
