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

// act applies one of the 5 Indigo-style discrete cwnd actions (window x0.5,
// -1, hold, +1, x1.5) and clamps the window to [1, 40].
func act(window float64, action int) float64 {
	switch action {
	case 0:
		window *= 0.5
	case 1:
		window--
	case 3:
		window++
	case 4:
		window *= 1.5
	}
	return min(max(window, 1), 40)
}

// oracle is a hand-written policy: decrease when delay is high, increase
// when the link is under-utilised.
func oracle(delay, util float64) int {
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

// closedLoop runs steps steps of a fresh link drawn from seed, starting at
// window 8, with decide picking each step's action from what the sender
// saw. It returns the mean throughput, queueing delay and capacity.
func closedLoop(seed int64, steps int, decide func(l *link, window, tp, d float64) int) (tp, delay, capacity float64) {
	l := &link{capacity: 10, rng: rand.New(rand.NewSource(seed))}
	window := 8.0
	for t := 0; t < steps; t++ {
		stepTP, d := l.step(window)
		tp += stepTP
		delay += d
		capacity += l.capacity
		window = act(window, decide(l, window, stepTP, d))
	}
	n := float64(steps)
	return tp / n, delay / n, capacity / n
}

func indigo() {
	rng := rand.New(rand.NewSource(5))
	lstm := taurus.NewLSTM(4, 32, 5, rng)

	// Teach the LSTM the oracle's policy along the oracle's own trajectory:
	// each step applies the oracle's action, so the LSTM trains on the
	// windows a closed loop visits. The paper trains Indigo offline too;
	// the data plane only runs inference.
	l := &link{capacity: 10, rng: rng}
	window := 8.0
	for epoch := 0; epoch < 2500; epoch++ {
		var seq []taurus.Vec
		var action int
		for t := 0; t < 6; t++ {
			tp, d := l.step(window)
			seq = append(seq, l.features(window, tp, d))
			action = oracle(d, tp/l.capacity)
			window = act(window, action)
		}
		lstm.TrainLSTMSequence(seq, action, 0.03)
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
	// quantised mirror of the same weights), then the oracle on the same
	// link.
	const seed, steps = 6, 400
	st := lstm.ZeroState()
	tp, delay, capacity := closedLoop(seed, steps, func(l *link, window, tp, d float64) int {
		var probs taurus.Vec
		probs, st = lstm.Step(l.features(window, tp, d), st)
		return slices.Index(probs, slices.Max(probs))
	})
	fmt.Printf("closed loop over %d steps (mean capacity %.1f): LSTM mean throughput %.1f, mean queueing delay %.2f\n",
		steps, capacity, tp, delay)
	tp, delay, _ = closedLoop(seed, steps, func(l *link, _, tp, d float64) int { return oracle(d, tp/l.capacity) })
	fmt.Printf("the oracle it learned from, same link: mean throughput %.1f, mean queueing delay %.2f\n", tp, delay)
}
