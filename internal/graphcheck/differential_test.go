package graphcheck_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// requireOracle verifies g with VerifyWith and with the allocating oracle
// walk and fails unless the two Reports are reflect.DeepEqual — findings
// text and witnesses, order, Ranges, census and DeadNodes.
func requireOracle(t testing.TB, name string, g *mr.Graph, opts graphcheck.Options) {
	t.Helper()
	got := graphcheck.VerifyWith(g, opts)
	want := graphcheck.OracleVerifyWith(g, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: VerifyWith differs from the oracle walk\ngot:  %+v\nwant: %+v", name, got, want)
	}
}

// oracleCase is one graph of the differential, with the options to verify
// it under.
type oracleCase struct {
	name string
	g    *mr.Graph
	opts graphcheck.Options
}

// oracleCases returns every graph the differential covers that does not
// come from the fuzz corpus: the lowered model families, the largest
// hand-built DNN, the rejection and warning fixtures, the brute-force
// transfer shapes on their narrow domain, and Graph.Validate's rejections.
func oracleCases(t testing.TB) []oracleCase {
	cases := []oracleCase{
		{name: "dnn", g: dnnGraph(t)},
		{name: "dnn-8-64-32-1", g: untrainedDNN(t, []int{8, 64, 32, 1})},
		{name: "svm", g: svmGraph(t)},
		{name: "kmeans", g: kmeansGraph(t)},
		{name: "lstm", g: lstmGraph(t)},
		{name: "big-dnn", g: bigDNNGraph(t)},
		{name: "lut-outside", g: first(lutOutsideGraph(t))},
		{name: "overflow", g: first(overflowGraph(t))},
		{name: "scale-wrap", g: first(scaleWrapGraph(t))},
		{name: "requant-pinned", g: requantClipsGraph(t)},
		{name: "nil"},
	}
	// The same fixtures with every input narrowed or widened.
	for _, n := range []int64{20, 1 << 40} {
		for _, c := range cases[6:10] {
			cases = append(cases, oracleCase{name: c.name + "-seeded", g: c.g, opts: narrowOpts(n)})
		}
	}

	small := graphcheck.Options{Grid: cgraSmall()}
	dead := mr.NewBuilder("deadwood")
	x := dead.Input("x", 4)
	dead.Unary(mr.UAbs, x)
	dead.Output(dead.Reduce(mr.RAdd, x))
	busy := mr.NewBuilder("busy")
	v := busy.Input("x", 4)
	for i := 0; i < 40; i++ {
		v = busy.Unary(mr.UAbs, v)
	}
	busy.Output(busy.Slice(v, 1, 2))
	fat := mr.NewBuilder("too-fat")
	fat.Output(fat.Const("w", make([]int32, 16*1024*small.Grid.MUCount()+1)))
	// Wires: a concat of multi-lane args whose lanes differ, and slices of it.
	wires := mr.NewBuilder("wires")
	c := wires.Const("c", []int32{-7, 0, 5})
	cat := wires.Concat(c, wires.Const("d", []int32{-1, 9}), c)
	mix := wires.Concat(wires.Input("x", 2), cat)
	wires.Output(wires.Slice(cat, 1, 3), wires.Unary(mr.UNeg, wires.Slice(mix, 4, 4)))
	// Constants read in place: a multiply reads a same-width KConst where it
	// is — on either side, against a broadcast lane, times itself or another
	// constant, beside a reader that needs its lanes — while a constant
	// broadcast into a multiply, and one nothing reads, keep the lane path.
	inPlace := mr.NewBuilder("in-place")
	x3, y1 := inPlace.Input("x", 3), inPlace.Input("y", 1)
	w, u := inPlace.Const("w", []int32{-7, 0, 5}), inPlace.Const("u", []int32{3, -2, 1 << 20})
	k := inPlace.Const("k", []int32{-9})
	inPlace.Const("unread", []int32{4, -4})
	inPlace.Output(inPlace.Concat(
		inPlace.Map(mr.MMul, w, x3), inPlace.Map(mr.MMul, x3, u), inPlace.Map(mr.MMul, w, y1),
		inPlace.Map(mr.MMul, u, u), inPlace.Map(mr.MMul, w, u), inPlace.Map(mr.MAdd, u, x3),
		inPlace.Map(mr.MMul, x3, k), inPlace.Map(mr.MMul, y1, k)))
	inPlaceG := mustBuild(t, inPlace)
	cases = append(cases,
		oracleCase{name: "in-place", g: inPlaceG},
		oracleCase{name: "in-place-seeded", g: inPlaceG, opts: narrowOpts(1 << 12)},
		oracleCase{name: "wires", g: mustBuild(t, wires)},
		oracleCase{name: "deadwood", g: mustBuild(t, dead)},
		oracleCase{name: "busy", g: mustBuild(t, busy), opts: small},
		oracleCase{name: "too-fat", g: mustBuild(t, fat), opts: small})

	add := func(b *mr.Builder, opts graphcheck.Options) {
		g := mustBuild(t, b)
		cases = append(cases, oracleCase{name: g.Name, g: g, opts: opts})
	}
	// The brute-force shapes: every operator on a narrow domain, and on one
	// wide enough to saturate.
	for _, n := range []int64{20, 1 << 30} {
		// One past the last operator is an unknown op: the full Fix32 range.
		for op := mr.MapOp(0); op <= mr.MMax+1; op++ {
			b := mr.NewBuilder("map-" + strconv.Itoa(int(op)))
			b.Output(b.Map(op, b.Input("x", 3), b.Input("y", 1)))
			add(b, narrowOpts(n))
			b = mr.NewBuilder("map-lanes-" + strconv.Itoa(int(op)))
			b.Output(b.Map(op, b.Input("x", 3), b.Const("c", []int32{-7, 0, 5})))
			add(b, narrowOpts(n))
		}
		for op := mr.UnaryOp(0); op <= mr.UAbs+1; op++ {
			b := mr.NewBuilder("unary-" + strconv.Itoa(int(op)))
			b.Output(b.Unary(op, b.Input("x", 3)))
			add(b, narrowOpts(n))
		}
		for op := mr.ReduceOp(0); op <= mr.RArgMax+1; op++ {
			b := mr.NewBuilder("reduce-" + strconv.Itoa(int(op)))
			b.Output(b.Reduce(op, b.Input("x", 4)))
			add(b, narrowOpts(n))
		}
	}
	for i, g := range malformedGraphs(t) {
		cases = append(cases, oracleCase{name: "malformed-" + strconv.Itoa(i), g: g})
	}
	return cases
}

func first(g *mr.Graph, _ mr.NodeID) *mr.Graph { return g }

// malformedGraphs are the graphs of mapreduce's TestValidateRejectionBranches:
// a minimal valid graph with one invariant broken each. None reaches the
// walk; the differential pins that the Validate finding is all either side
// reports.
func malformedGraphs(t testing.TB) []*mr.Graph {
	valid := func() *mr.Graph {
		return &mr.Graph{
			Name: "valid",
			Nodes: []*mr.Node{
				{ID: 0, Kind: mr.KInput, Width: 4, Name: "x"},
				{ID: 1, Kind: mr.KReduce, Width: 1, Args: []mr.NodeID{0}, Reduce: mr.RAdd},
			},
			Inputs:  []mr.NodeID{0},
			Outputs: []mr.NodeID{1},
		}
	}
	extra := func(g *mr.Graph, ns ...*mr.Node) { g.Nodes = append(g.Nodes, ns...) }
	mutations := []func(g *mr.Graph){
		func(g *mr.Graph) { g.Outputs = nil },
		func(g *mr.Graph) { g.Nodes[1].ID = 7 },
		func(g *mr.Graph) { g.Nodes[1].Width = 0 },
		func(g *mr.Graph) { g.Nodes[1].Args = []mr.NodeID{1} },
		func(g *mr.Graph) { g.Nodes[1].Args = []mr.NodeID{-1} },
		func(g *mr.Graph) { g.Nodes[0].Args = []mr.NodeID{0} },
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KInput, Width: 1, Args: []mr.NodeID{0}})
		},
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KConst, Width: 4, Const: []int32{1, 2}}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KMap, Width: 4, Args: []mr.NodeID{0}}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KMap, Width: 2, Args: []mr.NodeID{0, 0}}) },
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KConst, Width: 2, Const: []int32{1, 2}},
				&mr.Node{ID: 3, Kind: mr.KMap, Width: 4, Args: []mr.NodeID{0, 2}})
		},
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KUnary, Width: 4}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KUnary, Width: 2, Args: []mr.NodeID{0}}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KLUT, Width: 4, Args: []mr.NodeID{0}}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KRequant, Width: 4, Args: []mr.NodeID{0}}) },
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KScale, Width: 4, Args: []mr.NodeID{0},
				Mult: fixed.Multiplier{M0: -5, Shift: 10}})
		},
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KLUT, Width: 4, Args: []mr.NodeID{0}, LUT: &mr.LUT{}})
		},
		func(g *mr.Graph) { g.Nodes[1].Args = nil },
		func(g *mr.Graph) { g.Nodes[1].Width = 4 },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KSlice, Width: 2}) },
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KSlice, Width: 3, Start: 2, Args: []mr.NodeID{0}})
		},
		func(g *mr.Graph) {
			extra(g, &mr.Node{ID: 2, Kind: mr.KSlice, Width: 2, Start: -1, Args: []mr.NodeID{0}})
		},
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KConcat, Width: 4}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.KConcat, Width: 5, Args: []mr.NodeID{0}}) },
		func(g *mr.Graph) { extra(g, &mr.Node{ID: 2, Kind: mr.Kind(99), Width: 1}) },
		func(g *mr.Graph) { g.Outputs = []mr.NodeID{9} },
		func(g *mr.Graph) { g.Outputs = []mr.NodeID{-1} },
		func(g *mr.Graph) { g.Inputs = []mr.NodeID{1} },
		func(g *mr.Graph) { g.Inputs = []mr.NodeID{9} },
	}
	gs := make([]*mr.Graph, len(mutations))
	for i, mutate := range mutations {
		gs[i] = valid()
		mutate(gs[i])
		if gs[i].Validate() == nil {
			t.Fatalf("malformed graph %d passes Validate", i)
		}
	}
	return gs
}

// TestVerifyMatchesOracle is the differential over every fixed graph: the
// pooled walk must answer exactly what the allocating walk answered.
func TestVerifyMatchesOracle(t *testing.T) {
	for _, c := range oracleCases(t) {
		requireOracle(t, c.name, c.g, c.opts)
	}
}

// graphFromBytes is the decoder of mapreduce's FuzzGraph
// (internal/mapreduce/fuzz_test.go), repeated because the oracle is visible
// only to this package's tests: FuzzVerifyOracle replays FuzzGraph's checked-in
// corpus through it and so sees the same graphs. Keep the two in step.
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

// FuzzVerifyOracle is the differential on attacker-chosen graphs: any graph
// Validate accepts must get the oracle's Report, under the default seed and
// under one narrowed or widened by the input's last byte. Seeded with
// FuzzGraph's corpus, so a plain go test replays it.
func FuzzVerifyOracle(f *testing.F) {
	for _, data := range fuzzGraphCorpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		if g.Validate() != nil {
			return
		}
		requireOracle(t, "default seed", g, graphcheck.Options{})
		if len(data) > 0 {
			requireOracle(t, "seeded", g, narrowOpts(int64(1)<<(data[len(data)-1]%40)))
		}
	})
}

// TestVerifyConcurrent runs VerifyWith from 8 goroutines over graphs of
// different sizes, each in its own order, and requires every Report to
// equal a serial run's: pooled workspaces must never be shared in flight.
// Each installable graph is pushed onto itself through CheckPush in between,
// which must give the serial verify's verdict.
func TestVerifyConcurrent(t *testing.T) {
	cases := oracleCases(t)
	want := make([]*graphcheck.Report, len(cases))
	installable := make([]bool, len(cases))
	for i, c := range cases {
		want[i] = graphcheck.VerifyWith(c.g, c.opts)
		installable[i] = want[i].Valid
		for _, f := range want[i].Findings {
			if f.Check == graphcheck.CheckResource && f.Severity == graphcheck.SevError {
				installable[i] = false
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range cases {
					i := (k*(w+1) + round) % len(cases)
					if got := graphcheck.VerifyWith(cases[i].g, cases[i].opts); !reflect.DeepEqual(got, want[i]) {
						errs <- cases[i].name
						return
					}
					if !installable[i] {
						continue
					}
					if err := graphcheck.CheckPush(cases[i].g, cases[i].g, cases[i].opts); fmt.Sprint(err) != fmt.Sprint(want[i].Err()) {
						errs <- cases[i].name + " (push)"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a concurrent verify differs from the serial one", name)
	}
}

// TestReportDoesNotAlias verifies g1, then a larger g2, and requires g1's
// Report — Ranges and finding witnesses included — to be unchanged: nothing
// a Report holds may point into the pooled workspace the next verify reuses.
// The pool is warmed with g2 first, so g1 runs in a workspace already big
// enough for g2 and g2 reuses it rather than growing a new one.
func TestReportDoesNotAlias(t *testing.T) {
	g1, _ := overflowGraph(t)
	g2 := bigDNNGraph(t)
	graphcheck.Verify(g2)
	r1 := graphcheck.Verify(g1)
	if r1.OK() || len(r1.Ranges) == 0 {
		t.Fatalf("fixture does not exercise findings and ranges:\n%s", r1)
	}
	snap := *r1
	snap.Ranges = append([]graphcheck.Interval(nil), r1.Ranges...)
	snap.Findings = append([]graphcheck.Finding(nil), r1.Findings...)
	graphcheck.Verify(g2)
	if !reflect.DeepEqual(*r1, snap) {
		t.Fatalf("a later Verify rewrote an earlier Report:\nbefore: %+v\nafter:  %+v", snap, *r1)
	}
}
