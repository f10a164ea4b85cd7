package compiler

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/tensor"
)

// requireOracle compiles g with the current passes and with the oracle's and
// requires the same Result — or the same error.
func requireOracle(t testing.TB, name string, g *mr.Graph, opts Options) {
	t.Helper()
	got, gotErr := Compile(g, opts)
	want, wantErr := oracleCompile(g, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: Compile error %v, oracle %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Compile differs from the oracle\n got stats %+v\nwant stats %+v", name, got.Stats, want.Stats)
	}
}

// oracleModels are the graphs every option set is tried on: the four model
// families the sched tests train (seed 7), the two benchmark DNN shapes, the
// ~1400-node DNN and lookups sharing one table.
func oracleModels(t testing.TB) map[string]*mr.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(400))
	out := map[string]*mr.Graph{}

	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 4}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	if out["dnn"], err = lower.DNN(q, "dnn"); err != nil {
		t.Fatal(err)
	}
	km, err := ml.TrainKMeans(X, 4, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	var flat []float32
	for _, x := range X {
		flat = append(flat, x...)
	}
	inQ := fixed.QuantizerFor(flat)
	if out["kmeans"], err = lower.KMeans(km, inQ, "kmeans"); err != nil {
		t.Fatal(err)
	}
	Xpm, ypm := dataset.SplitPM(gen.Records(400))
	svm, err := ml.TrainSVM(Xpm, ypm, ml.DefaultSVMConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if out["svm"], err = lower.SVM(svm, inQ, 8, "svm"); err != nil {
		t.Fatal(err)
	}
	if out["lstm"], err = lower.LSTMStep(ml.NewLSTM(4, 32, 5, rand.New(rand.NewSource(7))), fixed.NewQuantizer(1), "lstm"); err != nil {
		t.Fatal(err)
	}
	for _, sizes := range [][]int{{8, 64, 32, 1}, {64, 128, 64, 8}} {
		X := make([]tensor.Vec, 64)
		for i := range X {
			X[i] = make(tensor.Vec, sizes[0])
			for j := range X[i] {
				X[i][j] = rng.Float32()*2 - 1
			}
		}
		q, err := ml.Quantize(ml.NewDNN(sizes, ml.ReLU, ml.Sigmoid, rng), X)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprint(sizes)
		if out[name], err = lower.DNN(q, name); err != nil {
			t.Fatal(err)
		}
	}
	// Three lookups of one table, 18 lanes: one MU serves them in two bank
	// cycles, so the MU bounds II.
	var table mr.LUT
	if table.Mult, err = fixed.NewMultiplier(0.5); err != nil {
		t.Fatal(err)
	}
	b := mr.NewBuilder("shared-lut")
	x := b.Input("x", 6)
	b.Output(b.Concat(b.ApplyLUT(x, &table), b.ApplyLUT(b.Unary(mr.UNeg, x), &table), b.ApplyLUT(b.Unary(mr.UAbs, x), &table)))
	if out["shared-lut"], err = b.Build(); err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleOptions are the option sets every graph is compiled under: the
// default grid, unit caps tight enough that groups share units (so
// shareLeastLoaded decides positions), and a small grid.
func oracleOptions() map[string]Options {
	small := cgra.DefaultGrid()
	small.Rows, small.Cols = 4, 3
	narrow := cgra.DefaultGrid()
	narrow.Lanes = 8
	return map[string]Options{
		"default":      {},
		"cus=3":        {MaxCUs: 3},
		"cus=5,mus=1":  {MaxCUs: 5, MaxMUs: 1},
		"mus=2":        {MaxMUs: 2},
		"small-grid":   {Grid: small},
		"narrow,cus=4": {Grid: narrow, MaxCUs: 4},
	}
}

// TestCompileMatchesOracle is the differential over the model graphs and
// random programs: the linear fuse, slice-indexed place and Timing must place
// and time every graph exactly as the old passes did.
func TestCompileMatchesOracle(t *testing.T) {
	graphs := oracleModels(t)
	if n := len(graphs["[64 128 64 8]"].Nodes); n < 1000 {
		t.Fatalf("the big DNN has %d nodes, want ~1400", n)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		g, _ := randomGraph(rng)
		graphs[fmt.Sprint("random-", i)] = g
	}
	for gname, g := range graphs {
		for oname, opts := range oracleOptions() {
			requireOracle(t, gname+"/"+oname, g, opts)
		}
	}
}

// graphFromBytes is the decoder of mapreduce's FuzzGraph
// (internal/mapreduce/fuzz_test.go), repeated because the oracle is visible
// only to this package's tests: FuzzCompileOracle replays FuzzGraph's
// checked-in corpus through it and so sees the same graphs. Keep the two in
// step.
func graphFromBytes(data []byte) *mr.Graph {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		pos++
		return data[pos-1]
	}
	int32le := func() int32 {
		return int32(next()) | int32(next())<<8 | int32(next())<<16 | int32(next())<<24
	}
	n := 1 + int(next())%24
	g := &mr.Graph{Name: "fuzz"}
	for i := 0; i < n; i++ {
		node := &mr.Node{
			ID:    mr.NodeID(i),
			Kind:  mr.Kind(int(next()) % 10),
			Width: int(next()) % 9,
		}
		nargs := int(next()) % 3
		for a := 0; a < nargs; a++ {
			node.Args = append(node.Args, mr.NodeID(int(next())%(i+2)-1))
		}
		switch node.Kind {
		case mr.KConst:
			for v := 0; v < int(next())%9; v++ {
				node.Const = append(node.Const, int32le())
			}
		case mr.KMap:
			node.Map = mr.MapOp(int(next()) % 5)
		case mr.KUnary:
			node.Unary = mr.UnaryOp(int(next()) % 4)
		case mr.KReduce:
			node.Reduce = mr.ReduceOp(int(next()) % 5)
		case mr.KRequant, mr.KScale:
			node.Mult = fixed.Multiplier{M0: int32le(), Shift: int(next()) % 70}
		case mr.KLUT:
			lut := &mr.LUT{Mult: fixed.Multiplier{M0: int32le(), Shift: int(next()) % 70}}
			for t := range lut.Table {
				lut.Table[t] = int8(next())
			}
			node.LUT = lut
		case mr.KSlice:
			node.Start = int(next()) % 9
		case mr.KInput:
			node.Name = "in"
		}
		g.Nodes = append(g.Nodes, node)
		if node.Kind == mr.KInput {
			g.Inputs = append(g.Inputs, node.ID)
		}
	}
	for o := 0; o < 1+int(next())%2; o++ {
		g.Outputs = append(g.Outputs, mr.NodeID(int(next())%(n+1)))
	}
	return g
}

// fuzzGraphCorpus reads mapreduce's checked-in FuzzGraph corpus.
func fuzzGraphCorpus(tb testing.TB) [][]byte {
	files, err := filepath.Glob(filepath.Join("..", "mapreduce", "testdata", "fuzz", "FuzzGraph", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("FuzzGraph corpus: %d files, %v", len(files), err)
	}
	var corpus [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		// "go test fuzz v1" then one []byte("...") line.
		lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
		lit := bytes.TrimSuffix(bytes.TrimPrefix(lines[len(lines)-1], []byte("[]byte(")), []byte(")"))
		data, err := strconv.Unquote(string(lit))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, []byte(data))
	}
	return corpus
}

// FuzzCompileOracle is the differential on attacker-chosen graphs: any graph
// Validate accepts must compile to the oracle's Result (or fail with its
// error) on the default grid and under caps and a grid the input's last byte
// picks. Seeded with FuzzGraph's corpus, so a plain go test replays it.
func FuzzCompileOracle(f *testing.F) {
	for _, data := range fuzzGraphCorpus(f) {
		f.Add(data)
	}
	f.Add([]byte("020")) // one input node: nothing to place, so no groups at all
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g.Validate() != nil {
			return
		}
		requireOracle(t, "default", g, Options{})
		if len(data) == 0 {
			return
		}
		k := int(data[len(data)-1])
		grid := cgra.DefaultGrid()
		grid.Rows, grid.Cols, grid.Lanes = 1+k%5, 1+k/5%4, 1<<(k/20%5)
		requireOracle(t, "seeded", g, Options{Grid: grid, MaxCUs: k % 4, MaxMUs: k / 4 % 3})
	})
}
