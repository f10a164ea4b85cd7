package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/obs"
	"taurus/internal/sched"
	"taurus/internal/tensor"
)

// constantScore returns g with the output activation table flattened to
// score: a model of g's structure that scores every packet alike.
func constantScore(t *testing.T, g *mr.Graph, score int8) *mr.Graph {
	t.Helper()
	v := g.Clone()
	out := v.Node(v.Outputs[0])
	if out.Kind != mr.KLUT {
		t.Fatalf("model output is a %v node, want the sigmoid's LUT", out.Kind)
	}
	for i := range out.LUT.Table {
		out.LUT.Table[i] = score
	}
	return v
}

// TestBatchServesOneModel pins the publish contract under concurrent installs
// and pushes: every packet of a batch — whichever shard it lands on — is
// served by one published model, and a single packet by some published model.
// The control plane alternates pushes of two weight sets whose scores differ
// on every ML packet with rollbacks of them (and a full LoadModel of a third
// thrown in) while traffic runs; a batch that straddled a publish would mix
// scores. One shard, which takes
// the batch unpartitioned, must load the published model once per batch as
// four do.
func TestBatchServesOneModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { batchServesOneModel(t, shards) })
	}
}

func batchServesOneModel(t *testing.T, shards int) {
	q, g, _, _ := trainModel(t)
	const scoreA, scoreB, scoreC = 100, -100, 50 // threshold 64: A flags, B and C forward
	gA, gB, gC := constantScore(t, g, scoreA), constantScore(t, g, scoreB), constantScore(t, g, scoreC)

	p, err := New(Config{Shards: shards, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.LoadModel(gA, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	ins, out := makeBatch(t, 256, 64)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }() // also when a check below gives up early
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch {
			case i%16 == 15:
				err = p.LoadModel(gC, q.InputQ, compiler.Options{})
			case i%4 == 0:
				err = p.UpdateWeights(gB)
			case i%4 == 2:
				err = p.UpdateWeights(gA)
			default:
				p.RollbackWeights()
			}
			if err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()

	seen := map[int32]int{}
	for round := 0; round < 300; round++ {
		if _, err := p.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != out[0] {
				t.Fatalf("round %d: packet %d decided %+v, packet 0 %+v: the batch was served by two models", round, i, out[i], out[0])
			}
		}
		seen[out[0].MLScore]++
		dec, err := p.Process(ins[round%len(ins)])
		if err != nil {
			t.Fatal(err)
		}
		seen[dec.MLScore]++
	}

	for score := range seen {
		if score != scoreA && score != scoreB && score != scoreC {
			t.Errorf("score %d was served; no published model gives it", score)
		}
	}
	for i, st := range p.ShardStats() {
		if st.MLInferences == 0 {
			t.Errorf("shard %d served no ML packet: the batch does not span every shard", i)
		}
	}
	if want := p.model.Load().Epoch(); want < 3 {
		t.Errorf("only %d publishes raced the traffic", want)
	}
}

// TestRollbackWeights pins what a rollback undoes: the last accepted push,
// once, by republishing the image it replaced under a fresh epoch. After an
// install, after a refused push with nothing accepted since, and after
// another rollback there is nothing to undo, and the published model stays.
func TestRollbackWeights(t *testing.T) {
	q, g, _, _ := trainModel(t)
	const scoreA, scoreB, scoreC = 100, -100, 50
	gA, gB, gC := constantScore(t, g, scoreA), constantScore(t, g, scoreB), constantScore(t, g, scoreC)
	cfg := core.DefaultConfig(6)
	cfg.Obs, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(64)
	p, err := New(Config{Shards: 2, Device: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ins, _ := makeBatch(t, 64, 16)
	var ml core.PacketIn // a packet the model scores
	served := func(step string, score int32, epoch uint64) {
		t.Helper()
		dec, err := p.Process(ml)
		if err != nil {
			t.Fatal(err)
		}
		if dec.MLScore != score || p.model.Load().Epoch() != epoch {
			t.Errorf("%s: serves score %d at epoch %d, want %d at %d", step, dec.MLScore, p.model.Load().Epoch(), score, epoch)
		}
	}
	noop := func(step string) {
		t.Helper()
		before := p.model.Load()
		p.RollbackWeights()
		if p.model.Load() != before {
			t.Errorf("%s: a rollback with nothing to undo published epoch %d", step, p.model.Load().Epoch())
		}
	}

	noop("before any install")
	if err := p.LoadModel(gA, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if dec, err := p.Process(in); err == nil && dec.MLScore == scoreA {
			ml = in
			break
		}
	}
	served("install", scoreA, 1)
	noop("after the install")
	if err := p.UpdateWeights(gB); err != nil {
		t.Fatal(err)
	}
	served("push B", scoreB, 2)
	if err := p.UpdateWeights(benignGraph(t)); err == nil {
		t.Fatal("an incompatible push was accepted")
	}
	p.RollbackWeights()
	served("rollback after a refused push", scoreA, 3)
	noop("second rollback")
	served("second rollback", scoreA, 3)
	for _, w := range []*mr.Graph{gC, gB} {
		if err := p.UpdateWeights(w); err != nil {
			t.Fatal(err)
		}
	}
	p.RollbackWeights()
	served("rollback of the second of two pushes", scoreC, 6)

	var last uint64
	var kinds []string
	for _, e := range cfg.Tracer.Events() {
		if e.Kind != "model.publish" {
			continue
		}
		var epoch uint64
		var kind string
		if _, err := fmt.Sscanf(e.Detail, "epoch=%d kind=%s", &epoch, &kind); err != nil {
			t.Fatalf("model.publish %q: %v", e.Detail, err)
		}
		if epoch <= last {
			t.Errorf("model.publish epoch %d after %d: epochs must strictly increase", epoch, last)
		}
		last = epoch
		kinds = append(kinds, kind)
	}
	if want := "install push rollback push push rollback"; strings.Join(kinds, " ") != want {
		t.Errorf("journalled publishes %q, want %q", strings.Join(kinds, " "), want)
	}
}

// untrainedDNN lowers a randomly initialised DNN of the given layer widths.
func untrainedDNN(t testing.TB, sizes []int) (*mr.Graph, *ml.QuantizedDNN) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(sizes) + sizes[1])))
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
	g, err := lower.DNN(q, "dnn")
	if err != nil {
		t.Fatal(err)
	}
	return g, q
}

// TestInstallCostFlatInShards: an install compiles and verifies once whatever
// the shard count, so the only thing a 4-shard LoadModel allocates beyond a
// 1-shard one is the three extra arenas (plus a little per-shard
// bookkeeping), and it journals exactly one tapecheck verdict. The bound is
// absolute, so cutting an unrelated cost out of every install cannot trip it.
func TestInstallCostFlatInShards(t *testing.T) {
	const slack = 4 << 10 // per-install bytes not in an arena: shard gauges, the model's arena slice
	for _, sizes := range [][]int{{6, 12, 6, 3, 1}, {8, 64, 32, 1}} {
		g, q := untrainedDNN(t, sizes)
		install := func(shards int) (allocated uint64, passes int) {
			t.Helper()
			cfg := core.DefaultConfig(sizes[0])
			cfg.Obs, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(64)
			p, err := New(Config{Shards: shards, Device: cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := p.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			for _, e := range cfg.Tracer.Events() {
				if e.Kind == "tapecheck.pass" {
					passes++
				}
			}
			return after.TotalAlloc - before.TotalAlloc, passes
		}
		prog, err := sched.Compile(g, cgra.DefaultGrid())
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prog.Tape().NewArena()
		runtime.ReadMemStats(&after)
		arena := after.TotalAlloc - before.TotalAlloc

		// The least of eight installs is the steady cost: one-time
		// initialisation, and graphcheck refilling its workspace pool (after
		// a GC, or a Put that -race drops on purpose one time in four), are
		// not an install's cost.
		least := func(shards int) (allocated uint64, passes int) {
			allocated = math.MaxUint64
			for range 8 {
				a, n := install(shards)
				allocated, passes = min(allocated, a), n
			}
			return allocated, passes
		}
		one, _ := least(1)
		four, passes := least(4)
		if passes != 1 {
			t.Errorf("%v: a 4-shard LoadModel journalled %d tapecheck.pass events, want exactly 1", sizes, passes)
		}
		if four > one+3*arena+slack {
			t.Errorf("%v: a 4-shard LoadModel allocates %d bytes, a 1-shard one %d: want at most 3 arenas (%d bytes each) + %d more",
				sizes, four, one, arena, slack)
		}
		t.Logf("%v: LoadModel allocates %d bytes on 1 shard, %d on 4 (+%d; one arena %d)", sizes, one, four, int64(four)-int64(one), arena)
	}
}
