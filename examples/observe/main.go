// Observability end to end: the closed control loop of the controlloop
// example, instrumented. A sharded Pipeline serves concept-drifting traffic
// while a synchronous Controller watches its decisions; when drift is
// detected the example retrains in-line and then audits the trace journal
// for the complete recovery chain — drift.detected, retrain.start,
// retrain.fit, the data plane's model.publish of the push, push.done — with
// monotonic timestamps from the retrain's start. It exits non-zero if the
// chain is broken, which makes it a CI gate as well as a demo.
//
// Every counter and histogram the run touches lives in the process-wide
// registry (taurus.Metrics()); -metrics-addr serves it as Prometheus text
// on /metrics (plus /metrics.json, /trace, /trace.json), and -hold keeps
// the process alive after the run so a scraper can collect.
//
// Usage:
//
//	observe                              # run the loop, audit the chain
//	observe -metrics-addr :9377 -hold 30s  # then serve scrapes for 30s
//	observe -trace-dump trace.txt        # journal the control-plane events
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"taurus"
)

func main() {
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json, /trace on this address")
	traceDump := flag.String("trace-dump", "", "write the trace journal to this file at exit (.json selects JSON, otherwise text)")
	hold := flag.Duration("hold", 0, "keep serving metrics this long after the run (requires -metrics-addr)")
	flag.Parse()

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics: serving on %s\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, taurus.MetricsHandler()); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if err := run(); err != nil {
		log.Fatal(err)
	}
	if err := dumpTrace(*traceDump); err != nil {
		log.Fatal(err)
	}
	if *hold > 0 {
		fmt.Printf("holding %v for scrapes...\n", *hold)
		time.Sleep(*hold)
	}
}

func run() error {
	const (
		flows     = 256
		batchSize = 2048
		rounds    = 18
	)

	stream, err := taurus.NewDriftingStream(taurus.DefaultDriftConfig(), 1, flows)
	if err != nil {
		return err
	}

	net := taurus.NewDNN([]int{6, 12, 6, 3, 1}, taurus.ReLU, taurus.Sigmoid,
		rand.New(rand.NewSource(1)))
	dep, err := taurus.NewDNNDeployable(net, taurus.DNNDeployableConfig{Epochs: 10, Seed: 1})
	if err != nil {
		return err
	}
	recs := stream.Labelled(4000)
	inQ := taurus.InputQuantizerFor(recs)
	for i := 0; i < 3; i++ {
		if err := dep.Fit(recs); err != nil {
			return err
		}
	}
	program, err := dep.Lower(inQ)
	if err != nil {
		return err
	}

	pl, err := taurus.NewPipeline(6, taurus.WithShards(4))
	if err != nil {
		return err
	}
	defer pl.Close()
	if err := pl.LoadModel(program, inQ, taurus.CompileOptions{}); err != nil {
		return err
	}

	// Synchronous controller: Observe feeds the drift detector, and the loop
	// retrains in-line the moment drift latches — deterministic, so the trace
	// audit below always has a complete chain to find.
	ctrl, err := taurus.NewController(pl, dep, stream.Labelled,
		taurus.WithRetrainRecords(3000))
	if err != nil {
		return err
	}

	out := make([]taurus.Decision, batchSize)
	for r := 0; r < rounds; r++ {
		phase := float64(r-rounds/3+1) / float64(rounds/3)
		stream.SetPhase(phase)
		ins, _, _ := stream.NextBatch(batchSize)
		if _, err := pl.ProcessBatch(ins, out); err != nil {
			return err
		}
		if ctrl.Observe(out) {
			fmt.Printf("round %2d  drift detected; retraining in-line\n", r)
			if err := ctrl.RetrainNow(); err != nil {
				return err
			}
		}
	}

	st := ctrl.Stats()
	pst := pl.Stats()
	fmt.Printf("controller: %d sampled, %d windows, %d drifts, %d retrains\n",
		st.Sampled, st.Windows, st.Drifts, st.Retrains)
	fmt.Printf("pipeline:   %d processed = %d ML + %d bypassed\n",
		pst.Processed, pst.MLInferences, pst.Bypassed)
	if st.Retrains == 0 {
		return fmt.Errorf("drift never triggered a retrain; the workload calibration has regressed")
	}

	// Metrics and Stats are views over the same instruments: prove it on the
	// headline counter before auditing the journal.
	for _, m := range taurus.Metrics().Snapshot() {
		if m.Name == "taurus.device.processed" {
			fmt.Printf("registry:   %s%v = %d\n", m.Name, m.Labels, m.Value)
		}
	}

	return auditTrace()
}

// auditTrace walks the trace journal for the drift-recovery chain the run
// must have journalled, in order, with monotonic timestamps from the
// retrain's start.
func auditTrace() error {
	events := taurus.Tracer().Events()
	chain := []string{"drift.detected", "retrain.start", "retrain.fit", "model.publish", "push.done"}
	next, span := 0, int64(0)
	var lastNs int64
	for _, ev := range events {
		if next >= len(chain) {
			break
		}
		if ev.Kind != chain[next] {
			continue
		}
		switch chain[next] {
		case "drift.detected":
			// Unspanned: it precedes the retrain span.
		case "retrain.start":
			span = ev.Span
		case "model.publish":
			// The data plane journals the push it serves at span 0.
			if ev.Span != 0 || !strings.Contains(ev.Detail, "kind=push") {
				continue
			}
		default:
			if ev.Span != span {
				continue // an event from some other retrain's span
			}
		}
		if span != 0 {
			if ev.TimeNs < lastNs {
				return fmt.Errorf("trace: %s at %dns precedes the previous span event at %dns", ev.Kind, ev.TimeNs, lastNs)
			}
			lastNs = ev.TimeNs
		}
		next++
	}
	if next < len(chain) {
		return fmt.Errorf("trace: recovery chain incomplete: missing %q (have %d events)", chain[next], len(events))
	}

	fmt.Println("trace: drift -> retrain -> publish -> push chain complete; excerpt:")
	start := len(events) - 8
	if start < 0 {
		start = 0
	}
	for _, ev := range events[start:] {
		fmt.Printf("  [%d] span=%d %-16s %s\n", ev.Seq, ev.Span, ev.Kind, ev.Detail)
	}
	return nil
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
	tr := taurus.Tracer()
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
