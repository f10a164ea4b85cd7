// The paper's two other applications (§5.1.2, Table 5's IoT and Indigo
// rows), each trained on the control plane, lowered to MapReduce and
// compiled onto the grid by one shared step:
//
//   - IoT traffic classification with KMeans: 5 device-category clusters
//     over 11 features, run through the nearest-centroid program's compiled
//     tape and compared against the float classifier.
//   - Indigo-style congestion control on a Taurus NIC: an LSTM picks a
//     congestion-window action from recent network measurements. The
//     paper's point is reaction time: in software the LSTM updates every
//     ~10 ms; on the MapReduce block a decision is ready in hundreds of
//     nanoseconds.
package main

import (
	"fmt"
	"log"
	"maps"
	"math/rand"
	"slices"

	"taurus"
)

func main() {
	iot()
	indigo()
}

// compile places g on the default grid and reports its footprint.
func compile(g *taurus.Graph) *taurus.Compiled {
	c, err := taurus.Compile(g, taurus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on the grid: %d CUs, %d MUs, %d ns, II=%d, %.2f mm^2\n",
		g.Name, c.Usage.CUs, c.Usage.MUs, c.Stats.LatencyCycles, c.Stats.II, c.AreaMM2())
	return c
}

func iot() {
	rng := rand.New(rand.NewSource(3))
	gen, err := taurus.NewIoTGenerator(taurus.KMeansIoTConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	X, labels := gen.Samples(1000)
	km, err := taurus.TrainKMeans(X, 5, 100, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Quantiser calibrated over the training features (the preprocessing
	// MATs would apply the same fixed-point formatting, §3.1).
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	inQ := taurus.QuantizerFor(flat)
	program, err := taurus.LowerKMeans(km, inQ, "iot-kmeans")
	if err != nil {
		log.Fatal(err)
	}
	compile(program)

	// Drive the program with quantised features through its compiled tape
	// — the same preallocated, allocation-free engine the device hot path
	// sweeps per batch — and compare against the float classifier.
	tape, err := taurus.CompileProgram(program, taurus.DefaultGrid())
	if err != nil {
		log.Fatal(err)
	}
	testX, _ := gen.Samples(1000)
	agree := 0
	for _, x := range testX {
		in := tape.In(0)
		for i, c := range inQ.QuantizeSlice(x) {
			in[i] = int32(c)
		}
		tape.Run()
		if int(tape.Out(0)[0]) == km.Predict(x) {
			agree++
		}
	}
	fmt.Printf("8-bit data plane agrees with float KMeans on %d/%d samples\n", agree, len(testX))

	// Purity against ground-truth device categories, in category order.
	byTruth := map[int]map[int]int{}
	for i, x := range X {
		if byTruth[labels[i]] == nil {
			byTruth[labels[i]] = map[int]int{}
		}
		byTruth[labels[i]][km.Predict(x)]++
	}
	for _, truth := range slices.Sorted(maps.Keys(byTruth)) {
		best, total := 0, 0
		for _, n := range byTruth[truth] {
			total += n
			best = max(best, n)
		}
		fmt.Printf("device category %d: cluster purity %.0f%%\n", truth, 100*float64(best)/float64(total))
	}
}

// link models a bottleneck link: the sender's window against a capacity
// that drifts over time.
type link struct {
	capacity, queue float64
	rng             *rand.Rand
}

func (l *link) step(window float64) (throughput, delay float64) {
	l.capacity = min(max(l.capacity+l.rng.NormFloat64()*0.5, 4), 20)
	l.queue = max(l.queue+(window-l.capacity), 0)
	return min(window, l.capacity), l.queue / l.capacity
}

// features are the LSTM's 4 inputs: normalised window, throughput, delay
// and capacity estimate.
func (l *link) features(window, throughput, delay float64) taurus.Vec {
	return taurus.Vec{float32(window / 20), float32(throughput / 20), float32(delay / 3), float32(l.capacity / 20)}
}

func indigo() {
	rng := rand.New(rand.NewSource(5))
	// 5 actions: window x0.5, -1, hold, +1, x1.5 (Indigo-style discrete
	// cwnd actions).
	lstm := taurus.NewLSTM(4, 32, 5, rng)

	// Teach the LSTM a reasonable policy from a hand-written oracle
	// (decrease when delay is high, increase when under-utilised). The
	// paper trains Indigo offline too; the data plane only runs inference.
	oracle := func(delay, util float64) int {
		switch {
		case delay > 1.5:
			return 0
		case delay > 0.5:
			return 1
		case util < 0.6:
			return 4
		case util < 0.9:
			return 3
		default:
			return 2
		}
	}
	l := &link{capacity: 10, rng: rng}
	for epoch := 0; epoch < 2500; epoch++ {
		var seq []taurus.Vec
		var delay, util float64
		for t := 0; t < 6; t++ {
			tp, d := l.step(8)
			seq = append(seq, l.features(8, tp, d))
			delay, util = d, tp/l.capacity
		}
		lstm.TrainLSTMSequence(seq, oracle(delay, util), 0.03)
	}

	// One LSTM step, lowered and compiled: the Table 5 Indigo row.
	program, err := taurus.LowerLSTMStep(lstm, taurus.NewQuantizer(1.0), "indigo-lstm")
	if err != nil {
		log.Fatal(err)
	}
	ns := compile(program).Stats.LatencyCycles
	fmt.Printf("software Indigo decides every ~10 ms; Taurus every %d ns — %.0fx faster reactions\n",
		ns, 10e6/float64(ns))

	// Run the control loop with the float model (the data-plane step is the
	// quantised mirror of the same weights).
	l = &link{capacity: 10, rng: rng}
	window := 8.0
	st := lstm.ZeroState()
	var sumTP, sumDelay float64
	const steps = 400
	for t := 0; t < steps; t++ {
		tp, d := l.step(window)
		sumTP += tp
		sumDelay += d
		var probs taurus.Vec
		probs, st = lstm.Step(l.features(window, tp, d), st)
		switch slices.Index(probs, slices.Max(probs)) {
		case 0:
			window *= 0.5
		case 1:
			window--
		case 3:
			window++
		case 4:
			window *= 1.5
		}
		window = min(max(window, 1), 40)
	}
	fmt.Printf("closed loop over %d steps: mean throughput %.1f (capacity ~10), mean queueing delay %.2f\n",
		steps, sumTP/steps, sumDelay/steps)
}
