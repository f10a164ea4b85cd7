// IoT traffic classification with KMeans (§5.1.2's first application): train
// 5 device-category clusters over 11 features, lower the nearest-centroid
// program to MapReduce, compile it, and compare the line-rate quantised
// classifier against float predictions.
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
	compiled, err := taurus.Compile(program, taurus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KMeans on the grid: %d CUs, %d ns, II=%d, %.2f mm^2 (Table 5's IoT row)\n",
		compiled.Usage.CUs, compiled.Stats.LatencyCycles, compiled.Stats.II, compiled.AreaMM2())

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
		c := km.Predict(x)
		if byTruth[labels[i]] == nil {
			byTruth[labels[i]] = map[int]int{}
		}
		byTruth[labels[i]][c]++
	}
	for _, truth := range slices.Sorted(maps.Keys(byTruth)) {
		best, total := 0, 0
		for _, n := range byTruth[truth] {
			total += n
			if n > best {
				best = n
			}
		}
		fmt.Printf("device category %d: cluster purity %.0f%%\n", truth, 100*float64(best)/float64(total))
	}
}
