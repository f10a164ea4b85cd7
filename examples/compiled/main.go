// Compiled evaluation: train a small anomaly DNN, list-schedule its
// MapReduce lowering into VLIW issue bundles, print the per-cycle schedule,
// check the compiled instruction tape bit-for-bit against Graph.Eval (the
// reference semantics), and time it one packet and one batch at a time.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"taurus"
)

func main() {
	rng := rand.New(rand.NewSource(1))

	// 1. Train and lower a deliberately small DNN so the whole schedule
	//    fits on screen.
	gen, err := taurus.NewAnomalyGenerator(taurus.DefaultAnomalyConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	X, y := taurus.SplitRecords(gen.Records(1500))
	net := taurus.NewDNN([]int{6, 4, 1}, taurus.ReLU, taurus.Sigmoid, rng)
	taurus.NewTrainer(net, taurus.SGDConfig{
		LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 10,
	}, rng).Fit(X, y)
	q, err := taurus.QuantizeDNN(net, X[:300])
	if err != nil {
		log.Fatal(err)
	}
	program, err := taurus.LowerDNN(q, "tiny-dnn")
	if err != nil {
		log.Fatal(err)
	}

	// 2. List-schedule onto the default grid: every compute node gets an
	//    issue cycle, no cycle oversubscribes the grid's CU/MU capacity.
	sched, err := taurus.PlanSchedule(program, taurus.DefaultGrid())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sched)
	fmt.Println()

	// 3. Emit the instruction tape and check bit-exactness against the
	//    reference semantics on a few packets.
	prog, err := taurus.CompileProgram(program, taurus.DefaultGrid())
	if err != nil {
		log.Fatal(err)
	}
	codes := make([]int32, 6)
	for trial := 0; trial < 1000; trial++ {
		for i := range codes {
			codes[i] = int32(int8(rng.Intn(256)))
		}
		want, err := program.Eval(codes)
		if err != nil {
			log.Fatal(err)
		}
		copy(prog.In(0), codes)
		prog.Run()
		if want[0][0] != prog.Out(0)[0] {
			log.Fatalf("divergence: Graph.Eval %d, compiled %d", want[0][0], prog.Out(0)[0])
		}
	}
	fmt.Println("bit-exact: 1000 random packets, Graph.Eval == compiled tape")

	// 4. Time the tape: one packet per sweep vs a full batch per sweep.
	const rounds = 200_000
	measure := func(f func()) float64 {
		start := time.Now()
		f()
		return float64(time.Since(start).Nanoseconds()) / rounds
	}
	compiled := measure(func() {
		for r := 0; r < rounds; r++ {
			copy(prog.In(0), codes)
			prog.Run()
		}
	})
	batch := prog.MaxBatch()
	for j := 0; j < batch; j++ {
		copy(prog.InAt(0, j), codes)
	}
	batched := measure(func() {
		for r := 0; r < rounds; r += batch {
			prog.RunBatch(batch)
		}
	})
	fmt.Printf("compiled:    %6.0f ns/packet\n", compiled)
	fmt.Printf("batched(%d): %6.0f ns/packet (%.1fx)\n", batch, batched, compiled/batched)
}
