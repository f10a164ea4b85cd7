package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"taurus/internal/cgra"
	"taurus/internal/compiler"
	"taurus/internal/core"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/pisa"
	"taurus/internal/trafficgen"
)

// trainModel trains the 6-12-6-3-1 anomaly DNN once per test binary.
var (
	modelOnce sync.Once
	modelQ    *ml.QuantizedDNN
	modelG    *mr.Graph
	modelG2   *mr.Graph // same structure, different weights
	modelGen  *dataset.AnomalyGenerator
	modelErr  error
)

func trainModel(t *testing.T) (*ml.QuantizedDNN, *mr.Graph, *mr.Graph, *dataset.AnomalyGenerator) {
	t.Helper()
	modelOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
		if err != nil {
			modelErr = err
			return
		}
		train := func(records, epochs int) (*ml.QuantizedDNN, *mr.Graph, error) {
			X, y := dataset.Split(gen.Records(records))
			n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
			ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: epochs}, rng).Fit(X, y)
			q, err := ml.Quantize(n, X[:200])
			if err != nil {
				return nil, nil, err
			}
			g, err := lower.DNN(q, "anomaly")
			if err != nil {
				return nil, nil, err
			}
			return q, g, nil
		}
		modelQ, modelG, modelErr = train(800, 20)
		if modelErr != nil {
			return
		}
		_, modelG2, modelErr = train(400, 8)
		modelGen = gen
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelQ, modelG, modelG2, modelGen
}

func newLoadedPipeline(t *testing.T, shards int) *Pipeline {
	t.Helper()
	q, g, _, _ := trainModel(t)
	p, err := New(Config{Shards: shards, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	if err := p.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	return p
}

// makeBatch builds n TCP packets over nflows flows, each carrying its
// flow's feature vector.
func makeBatch(t *testing.T, n, nflows int) ([]core.PacketIn, []core.Decision) {
	t.Helper()
	ins, out, err := trafficgen.AnomalyBatch(42, n, nflows)
	if err != nil {
		t.Fatal(err)
	}
	return ins, out
}

// The packet classes mixedTraffic deals, one for each exit of the packet path.
const (
	clsFeatures  = iota // TCP carrying its flow's features: ML
	clsRegisters        // TCP without features: ML once its flow is warm, a bypass before
	clsUnseen           // TCP of a flow no packet ever fed: the registers are empty, a bypass
	clsBypass           // UDP or ICMP: the preprocessing MAT bypasses it
	clsNonIP            // ARP: bypassed without an IP header
	clsTruncated        // a parse error, counted as a Drop
	numClasses
)

// mixedTraffic rewrites a feature-carrying TCP batch so that packet i is of
// class class(i), and returns the classes it dealt.
func mixedTraffic(t *testing.T, n, nflows int, class func(i int) int) ([]core.PacketIn, []core.Decision, []int) {
	t.Helper()
	ins, out := makeBatch(t, n, nflows)
	arp := make([]byte, 14)
	arp[12], arp[13] = 0x08, 0x06
	classes := make([]int, n)
	for i := range ins {
		classes[i] = class(i)
		switch classes[i] {
		case clsRegisters:
			ins[i].Features = nil
		case clsUnseen:
			ins[i] = core.PacketIn{Data: pisa.BuildTCPPacket(0x0b000000+uint32(i), 0x0a800001, 7, 443, 0x10, 64)}
		case clsBypass:
			frame := pisa.BuildTCPPacket(0x0c000000+uint32(i), 0x0a800001, 5353, 53, 0, 16)
			frame[23] = []byte{17, 1}[i%2] // UDP or ICMP
			ins[i] = core.PacketIn{Data: frame}
		case clsNonIP:
			ins[i] = core.PacketIn{Data: arp}
		case clsTruncated:
			ins[i] = core.PacketIn{Data: ins[i].Data[:[]int{2, 14, 30, 34, 50}[i%5]]}
		}
	}
	return ins, out, classes
}

// roundRobin deals every class in turn, so any six packets take every exit.
func roundRobin(i int) int { return i % numClasses }

// checkConservation asserts the counter laws every batch boundary satisfies.
func checkConservation(t *testing.T, who string, st core.Stats) {
	t.Helper()
	if st.Processed != st.MLInferences+st.Bypassed+st.ParseErrors {
		t.Errorf("%s: processed %d != ml %d + bypassed %d + parse errors %d",
			who, st.Processed, st.MLInferences, st.Bypassed, st.ParseErrors)
	}
	if st.Forwarded+st.Flagged+st.Dropped != st.Processed-st.ParseErrors {
		t.Errorf("%s: forwarded %d + flagged %d + dropped %d != processed %d - parse errors %d",
			who, st.Forwarded, st.Flagged, st.Dropped, st.Processed, st.ParseErrors)
	}
}

// TestEntryPointsAgree: Device.Process, Device.ProcessBatch, Pipeline.Process
// and Pipeline.ProcessBatch are four views of one packet loop — on traffic
// that takes every exit they give identical decisions and identical counter
// totals, the conservation laws hold after each, and they address one register
// file: a flow lands in the same slot whichever of them carried it. The
// pipeline's views run at one shard, where the whole batch goes to the device
// unrouted and it hashes what it needs, and at three, where the dispatcher
// hashes every frame to route it and the device reuses that key. Each run deals
// a seeded random class mix.
func TestEntryPointsAgree(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				entryPointsAgree(t, shards, seed)
			})
		}
	}
}

func entryPointsAgree(t *testing.T, shards int, seed int64) {
	q, g, _, _ := trainModel(t)
	rng := rand.New(rand.NewSource(seed))
	ins, want, classes := mixedTraffic(t, 384, 48, func(int) int { return rng.Intn(numClasses) })
	newDevice := func() *core.Device {
		dev, err := core.NewDevice(core.DefaultConfig(6))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
			t.Fatal(err)
		}
		return dev
	}

	batchDev := newDevice()
	if err := batchDev.ProcessBatch(ins, want); err != nil {
		t.Fatal(err)
	}
	wantStats := batchDev.Stats()
	checkConservation(t, "Device.ProcessBatch", wantStats)
	if wantStats.MLInferences == 0 || wantStats.Bypassed == 0 || wantStats.ParseErrors == 0 {
		t.Fatalf("traffic misses an exit of the packet path: %+v", wantStats)
	}

	compare := func(who string, got []core.Decision, st core.Stats) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: packet %d decided %+v, Device.ProcessBatch decided %+v", who, i, got[i], want[i])
			}
		}
		if st != wantStats {
			t.Errorf("%s: counters %+v, Device.ProcessBatch counted %+v", who, st, wantStats)
		}
		checkConservation(t, who, st)
	}
	// single drives a one-packet entry point over the batch; a truncated
	// frame must come back as a Drop together with its parse error.
	single := func(who string, process func(core.PacketIn) (core.Decision, error)) []core.Decision {
		t.Helper()
		got := make([]core.Decision, len(ins))
		for i, in := range ins {
			dec, err := process(in)
			if truncated := classes[i] == clsTruncated; truncated != errors.Is(err, pisa.ErrShortPacket) {
				t.Fatalf("%s: packet %d (truncated=%v) returned %v", who, i, truncated, err)
			}
			got[i] = dec
		}
		return got
	}

	oneDev := newDevice()
	compare("Device.Process", single("Device.Process", oneDev.Process), oneDev.Stats())

	got := make([]core.Decision, len(ins))
	batchPipe := newLoadedPipeline(t, shards)
	if _, err := batchPipe.ProcessBatch(ins, got); err != nil {
		t.Fatal(err)
	}
	compare("Pipeline.ProcessBatch", got, batchPipe.Stats())

	onePipe := newLoadedPipeline(t, shards)
	compare("Pipeline.Process", single("Pipeline.Process", onePipe.Process), onePipe.Stats())

	// The flow hash is computed in two places — the dispatcher of a pipeline
	// of several shards, which hands it to the shard with the packet, and a
	// device given no key, which hashes the frame itself — and both must land
	// a flow in the same register slot: features written through one entry
	// point are what the other reads. Were the two to disagree, the read below
	// would find an empty slot (a bypass) or another flow's features (another
	// score).
	var flows []int // the feature-carrying packets, one per register write
	for i := range ins {
		if ins[i].Features != nil {
			flows = append(flows, i)
		}
	}
	bare := func(p *Pipeline, in core.PacketIn) core.Decision {
		t.Helper()
		s := p.shardOf(core.ShardHash(in.Data))
		s.mu.Lock()
		defer s.mu.Unlock()
		// No routed keys: the device hashes the frame itself.
		var dec [1]core.Decision
		if err := s.dev.ProcessIndexed(p.model.Load(), s.index, []core.PacketIn{in}, dec[:], nil); err != nil {
			t.Fatal(err)
		}
		return dec[0]
	}
	// Written through Pipeline.ProcessBatch (batchPipe above), read with the device's own hash.
	for _, i := range flows {
		if dec := bare(batchPipe, core.PacketIn{Data: ins[i].Data}); dec != want[i] {
			t.Fatalf("flow of packet %d: written through Pipeline.ProcessBatch, the shard's device reads %+v, want %+v", i, dec, want[i])
		}
	}
	// Written with the device's own hash, read through Pipeline.ProcessBatch.
	revPipe := newLoadedPipeline(t, shards)
	reads := make([]core.PacketIn, len(flows))
	for k, i := range flows {
		bare(revPipe, ins[i])
		reads[k] = core.PacketIn{Data: ins[i].Data}
	}
	if _, err := revPipe.ProcessBatch(reads, got[:len(reads)]); err != nil {
		t.Fatal(err)
	}
	for k, i := range flows {
		if got[k] != want[i] {
			t.Fatalf("flow of packet %d: written through its shard's device, Pipeline.ProcessBatch reads %+v, want %+v", i, got[k], want[i])
		}
	}
}

// TestPipelineProcessZeroAlloc: the single-packet plane shares the batch
// plane's allocation-free loop, on the parse-error exit too, whether or not the
// pipeline hashes the frame to route it.
func TestPipelineProcessZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 3} {
		p := newLoadedPipeline(t, shards)
		ins, _, _ := mixedTraffic(t, 12, 4, roundRobin)
		for _, in := range ins {
			_, _ = p.Process(in) // warm up
			if allocs := testing.AllocsPerRun(100, func() { _, _ = p.Process(in) }); allocs != 0 {
				t.Errorf("%d shards: Process(%d-byte frame, %d features) allocates %.2f times, want 0",
					shards, len(in.Data), len(in.Features), allocs)
			}
		}
	}
}

func TestPipelineMatchesSingleDevice(t *testing.T) {
	q, g, _, _ := trainModel(t)
	p := newLoadedPipeline(t, 4)
	ins, out := makeBatch(t, 512, 64)
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}

	dev, err := core.NewDevice(core.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		want, err := dev.Process(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Verdict != want.Verdict || out[i].MLScore != want.MLScore || out[i].Bypassed != want.Bypassed {
			t.Fatalf("packet %d: pipeline %+v != device %+v", i, out[i], want)
		}
	}

	st := p.Stats()
	if st.Processed != 512 || st.MLInferences != 512 {
		t.Errorf("merged stats: %+v", st)
	}
}

func TestPipelineShardLocality(t *testing.T) {
	p := newLoadedPipeline(t, 4)
	// One flow: every packet must land on the same shard.
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	_, _, _, gen := trainModel(t)
	feats := gen.Record().Features
	ins := make([]core.PacketIn, 64)
	for i := range ins {
		ins[i] = core.PacketIn{Data: pkt, Features: feats}
	}
	out := make([]core.Decision, len(ins))
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, st := range p.ShardStats() {
		if st.Processed > 0 {
			busy++
			if st.Processed != 64 {
				t.Errorf("owning shard processed %d packets, want 64", st.Processed)
			}
		}
	}
	if busy != 1 {
		t.Errorf("one flow spread across %d shards", busy)
	}
}

// TestShardOfIsKeyModShards: shard placement is key % shards, reduced without
// a divide; every flow hash, the high-bit ones included, keeps the shard the
// remainder gives it.
func TestShardOfIsKeyModShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shards := range []int{1, 2, 3, 4, 5, 7, 8} {
		p, err := New(Config{Shards: shards, Device: core.DefaultConfig(6)})
		if err != nil {
			t.Fatal(err)
		}
		keys := []uint32{0, 1, uint32(shards), 1<<31 - 1, 1 << 31, 1<<32 - 1}
		for range 5000 {
			keys = append(keys, rng.Uint32())
		}
		for _, key := range keys {
			if got, want := p.shardOf(key), p.shards[key%uint32(shards)]; got != want {
				t.Fatalf("%d shards: key %#x on shard %d, want %d", shards, key, got.index, want.index)
			}
		}
		p.Close()
	}
}

// TestOneShardBatchNeedsNoWorker: the caller serves the last active shard of
// a batch itself, so a batch that lands on one shard — every batch of a
// 1-shard pipeline, a single flow on any pipeline — is a plain call and its
// cost does not hang on how quickly the scheduler wakes a parked worker. With
// the hand-off channels taken away such a batch must still complete (a send
// on a nil channel would block forever); an empty batch touches no shard.
func TestOneShardBatchNeedsNoWorker(t *testing.T) {
	for _, shards := range []int{1, 4} {
		p := newLoadedPipeline(t, shards)
		ref := newLoadedPipeline(t, shards)
		ins, out := makeBatch(t, 96, 1) // one flow
		want := make([]core.Decision, len(ins))
		if _, err := ref.ProcessBatch(ins, want); err != nil {
			t.Fatal(err)
		}

		reqs := p.reqs
		p.reqs = make([]chan batchReq, shards)
		done := make(chan error, 1)
		go func() {
			if _, err := p.ProcessBatch(nil, nil); err != nil {
				done <- err
				return
			}
			_, err := p.ProcessBatch(ins, out)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%d shards: a one-shard batch waited for a worker", shards)
		}
		p.reqs = reqs // Close closes them

		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%d shards: packet %d: served by the caller %+v, by the reference %+v", shards, i, out[i], want[i])
			}
		}
		if got := p.Stats(); got != ref.Stats() {
			t.Errorf("%d shards: stats %+v, reference %+v", shards, got, ref.Stats())
		}
	}
}

func TestPipelineDropsMalformed(t *testing.T) {
	p := newLoadedPipeline(t, 2)
	ins, out := makeBatch(t, 8, 4)
	ins[3] = core.PacketIn{Data: []byte{1, 2}} // truncated
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	if out[3].Verdict != core.Drop {
		t.Errorf("malformed packet verdict = %v, want drop", out[3].Verdict)
	}
	if p.Stats().ParseErrors != 1 {
		t.Errorf("ParseErrors = %d, want 1", p.Stats().ParseErrors)
	}
	// A wrong-width feature vector is a caller bug and must surface.
	ins[2] = core.PacketIn{Data: ins[0].Data, Features: make([]float32, 2)}
	if _, err := p.ProcessBatch(ins, out); !errors.Is(err, core.ErrBadFeatureWidth) {
		t.Errorf("bad feature width: %v, want ErrBadFeatureWidth", err)
	}
}

// TestProcessBatchStatsCompleteOnShardError pins the busyNs bugfix: a
// caller error on one shard (bad feature width) must not stop the stats
// scan — every shard still fully processed its partition, so ModelNs has to
// reflect the whole batch, not just the shards scanned before the error.
func TestProcessBatchStatsCompleteOnShardError(t *testing.T) {
	p := newLoadedPipeline(t, 2)
	ins, out := makeBatch(t, 256, 32)
	clean, err := p.ProcessBatch(ins, out)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ModelNs <= 0 {
		t.Fatalf("clean batch ModelNs = %v, want > 0", clean.ModelNs)
	}

	// Poison one packet owned by shard 0 — the first shard the stats scan
	// visits, so before the fix the fold stopped with ModelNs still zero.
	idx := -1
	for i := range ins {
		if p.shardOf(core.ShardHash(ins[i].Data)) == p.shards[0] {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no packet landed on shard 0; retune the batch")
	}
	ins[idx].Features = make([]float32, 2)
	bs, err := p.ProcessBatch(ins, out)
	if !errors.Is(err, core.ErrBadFeatureWidth) {
		t.Fatalf("poisoned batch error = %v, want ErrBadFeatureWidth", err)
	}
	if bs.ModelNs < clean.ModelNs*0.8 {
		t.Errorf("ModelNs under-reported on shard error: %v vs clean %v", bs.ModelNs, clean.ModelNs)
	}
}

func TestPipelineUpdateWeightsLive(t *testing.T) {
	q, g, g2, _ := trainModel(t)
	p := newLoadedPipeline(t, 3)
	ins, out := makeBatch(t, 128, 16)
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateWeights(g2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	// After the update every shard must score like a reference device
	// holding g2's weights.
	dev, err := core.NewDevice(core.DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g2); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		want, err := dev.Process(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if out[i].MLScore != want.MLScore {
			t.Fatalf("packet %d after update: score %d != %d", i, out[i].MLScore, want.MLScore)
		}
	}
}

// TestLoadModelAllOrNothing verifies a failed LoadModel leaves every shard
// on the model it was serving — never a mix.
func TestLoadModelAllOrNothing(t *testing.T) {
	p := newLoadedPipeline(t, 3)
	ins, out := makeBatch(t, 96, 12)
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	before := append([]core.Decision(nil), out...)

	wide, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadModel(wide, modelQ.InputQ, compiler.Options{}); !errors.Is(err, core.ErrBadFeatureWidth) {
		t.Fatalf("wide model: %v, want ErrBadFeatureWidth", err)
	}
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != before[i] {
			t.Fatalf("packet %d decision changed after failed install: %+v -> %+v", i, before[i], out[i])
		}
	}

	// A pipeline that never had a model stays modelless after the failure:
	// traffic bypasses, nothing is half-installed.
	fresh, err := New(Config{Shards: 2, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.LoadModel(wide, modelQ.InputQ, compiler.Options{}); !errors.Is(err, core.ErrBadFeatureWidth) {
		t.Fatalf("wide model on fresh pipeline: %v, want ErrBadFeatureWidth", err)
	}
	if _, err := fresh.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if !out[i].Bypassed {
			t.Fatalf("packet %d not bypassed on modelless pipeline after failed install", i)
		}
	}
}

// TestLoadModelRefusedMidway drives a refusal a shape error never reaches:
// the install clears the static gate and the shape check, clones the graph and
// is refused by the placer — a graph with no weights verifies on a grid with
// no memory units, and compiler.Compile has nowhere to place it. Nothing may
// have been published: the pipeline keeps the very model it was serving — not
// switched, not cleared — and decisions are bit-identical.
func TestLoadModelRefusedMidway(t *testing.T) {
	b := mr.NewBuilder("weightless")
	b.Output(b.Reduce(mr.RAdd, b.Input("x", 6)))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	noMUs := cgra.DefaultGrid()
	noMUs.Rows, noMUs.Cols = 1, 1 // one unit, a compute unit
	load := func(p *Pipeline) {
		t.Helper()
		err := p.LoadModel(g, modelQ.InputQ, compiler.Options{Grid: noMUs})
		if err == nil || !strings.Contains(err.Error(), "no usable units") {
			t.Fatalf("LoadModel on a grid with no MUs = %v, want the placer's refusal", err)
		}
	}

	p := newLoadedPipeline(t, 3)
	ins, out, _ := mixedTraffic(t, 96, 12, roundRobin)
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	before := append([]core.Decision(nil), out...)
	served := p.model.Load()

	load(p)
	if p.model.Load() != served {
		t.Error("the pipeline no longer holds the model it was serving")
	}
	if _, err := p.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != before[i] {
			t.Fatalf("packet %d decision changed after the refused install: %+v -> %+v", i, before[i], out[i])
		}
	}

	// A pipeline with no model stays modelless.
	fresh, err := New(Config{Shards: 3, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	load(fresh)
	if fresh.model.Load() != nil {
		t.Error("a modelless pipeline holds a model after a refused install")
	}
	if ii := fresh.model.Load().ScheduledII(); ii != 0 {
		t.Errorf("ScheduledII before a clean LoadModel = %d, want 0", ii)
	}
	// And the same graph installs on a grid it can be placed on.
	if err := fresh.LoadModel(g, modelQ.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if fresh.model.Load() == nil {
		t.Error("no model after a clean install")
	}
	if ii := fresh.model.Load().ScheduledII(); ii < 1 {
		t.Errorf("ScheduledII after LoadModel = %d, want >= 1", ii)
	}
}

// TestPipelineUpdateWeightsIsolatesTrainer pins the install and push contract
// at pipeline granularity: once LoadModel or UpdateWeights has returned, the
// caller mutating the graph it handed over changes no shard's outputs, nor
// what a further push builds on. (That the tape still verifies is the
// device test's assertion: a pipeline installs and pushes through the same
// core.Install and Model.WithWeights.)
func TestPipelineUpdateWeightsIsolatesTrainer(t *testing.T) {
	q, g, g2, _ := trainModel(t)
	for _, tc := range []struct {
		name string
		hand func(p *Pipeline, trainer *mr.Graph) error
	}{
		{"graph handed to LoadModel", func(p *Pipeline, trainer *mr.Graph) error {
			return p.LoadModel(trainer, q.InputQ, compiler.Options{})
		}},
		{"graph handed to UpdateWeights", func(p *Pipeline, trainer *mr.Graph) error {
			return p.UpdateWeights(trainer)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newLoadedPipeline(t, 3)
			trainer := g2.Clone() // private copy this test may clobber
			if err := tc.hand(p, trainer); err != nil {
				t.Fatal(err)
			}
			ins, out := makeBatch(t, 96, 12)
			if _, err := p.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			want := append([]core.Decision(nil), out...)

			for _, n := range trainer.Nodes {
				for i := range n.Const {
					n.Const[i] = 99
				}
				if n.LUT != nil {
					for i := range n.LUT.Table {
						n.LUT.Table[i] = -128
					}
					n.LUT.Mult.M0, n.LUT.Mult.Shift = 1<<30, 1
				}
				n.Mult.M0, n.Mult.Shift = 1<<30, 1
			}

			if _, err := p.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("packet %d decision changed after trainer mutated its graph: %+v -> %+v", i, want[i], out[i])
				}
			}
			// A further push is judged against the pipeline's own structure
			// and serves exactly the pushed weights.
			if err := p.UpdateWeights(g); err != nil {
				t.Fatalf("further UpdateWeights: %v", err)
			}
			ref := newLoadedPipeline(t, 3) // serves g
			refOut := make([]core.Decision, len(ins))
			if _, err := ref.ProcessBatch(ins, refOut); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != refOut[i] {
					t.Fatalf("packet %d after a further push: %+v, a fresh install of the same graph gives %+v", i, out[i], refOut[i])
				}
			}
		})
	}
}

func TestPipelineSentinelErrors(t *testing.T) {
	p, err := New(Config{Shards: 2, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, g, _, _ := trainModel(t)
	if err := p.UpdateWeights(g); !errors.Is(err, core.ErrNoModel) {
		t.Errorf("UpdateWeights before LoadModel: %v, want ErrNoModel", err)
	}
	if _, err := New(Config{Shards: 2, Device: core.Config{NumFeatures: 0}}); !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("bad device config: %v, want ErrBadConfig", err)
	}
	wide, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	var inQ = modelQ.InputQ
	if err := p.LoadModel(wide, inQ, compiler.Options{}); !errors.Is(err, core.ErrBadFeatureWidth) {
		t.Errorf("width-16 model: %v, want ErrBadFeatureWidth", err)
	}
}

// TestUpdateWeightsVerifiesOnInstalledGrid: a push is verified against the
// grid its model was installed on, not the device's configured grid. The
// graph's 16 448 weight bytes need two MUs: LoadModel places it on the
// default grid, the configured 1×4 grid has one, and pushing the installed
// graph back must still be accepted.
func TestUpdateWeightsVerifiesOnInstalledGrid(t *testing.T) {
	b := mr.NewBuilder("wide-store")
	x := b.Input("x", 6)
	w := b.Const("w", make([]int32, 16448))
	b.Output(b.Reduce(mr.RAdd, b.Map(mr.MAdd, x, b.Slice(w, 0, 6))))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(6)
	cfg.Grid = cgra.DefaultGrid()
	cfg.Grid.Rows, cfg.Grid.Cols = 1, 4
	p, err := New(Config{Shards: 2, Device: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.LoadModel(g, fixed.NewQuantizer(1), compiler.Options{Grid: cgra.DefaultGrid()}); err != nil {
		t.Fatal(err)
	}
	if err := p.UpdateWeights(g); err != nil {
		t.Fatalf("pushing the installed graph back: %v", err)
	}
	if got := p.model.Load().Epoch(); got != 2 {
		t.Errorf("epoch %d after install and push, want 2", got)
	}
}

// TestPipelineConcurrentTraffic drives one Pipeline from several goroutines
// (batch and single-packet planes) while the control plane pushes weight
// updates — must be race-clean under -race.
func TestPipelineConcurrentTraffic(t *testing.T) {
	_, g, g2, _ := trainModel(t)
	p := newLoadedPipeline(t, 4)

	const rounds = 20
	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	for w := 0; w < 3; w++ {
		ins, out := makeBatch(t, 256, 32)
		wg.Add(1)
		go func(ins []core.PacketIn, out []core.Decision) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := p.ProcessBatch(ins, out); err != nil {
					errCh <- err
					return
				}
			}
		}(ins, out)
	}
	singleFeats := modelGen.Record().Features
	wg.Add(1)
	go func() {
		defer wg.Done()
		pkt := pisa.BuildTCPPacket(7, 8, 9, 10, 0x10, 64)
		feats := singleFeats
		for r := 0; r < rounds*16; r++ {
			if _, err := p.Process(core.PacketIn{Data: pkt, Features: feats}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			which := g
			if r%2 == 0 {
				which = g2
			}
			if err := p.UpdateWeights(which); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	st := p.Stats()
	want := 3*rounds*256 + rounds*16
	if st.Processed != want {
		t.Errorf("processed %d packets, want %d", st.Processed, want)
	}
}

// TestPipelineBatchZeroAlloc asserts the steady-state batch path allocates
// nothing (the acceptance bar for the traffic plane's hot path), partitioned
// across shards or handed whole to one.
func TestPipelineBatchZeroAlloc(t *testing.T) {
	ins, out := makeBatch(t, 512, 64)
	for _, shards := range []int{1, 4} {
		p := newLoadedPipeline(t, shards)
		for i := 0; i < 3; i++ { // warm up: registers touched, buffers sized
			if _, err := p.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := p.ProcessBatch(ins, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%d shards: steady-state ProcessBatch allocates %.2f times per batch, want 0", shards, allocs)
		}
	}
}

// TestPipelineModelledScaling checks the throughput model: with balanced
// flows, 8 shards must drain a batch at least 3x faster than 1 shard.
func TestPipelineModelledScaling(t *testing.T) {
	ins, out := makeBatch(t, 2048, 256)
	drain := func(shards int) float64 {
		p := newLoadedPipeline(t, shards)
		bs, err := p.ProcessBatch(ins, out)
		if err != nil {
			t.Fatal(err)
		}
		if bs.ModelNs <= 0 {
			t.Fatalf("shards=%d: ModelNs = %v", shards, bs.ModelNs)
		}
		return bs.ModelNs
	}
	one := drain(1)
	eight := drain(8)
	if ratio := one / eight; ratio < 3 {
		t.Errorf("8-shard drain only %.2fx faster than 1 shard (1: %.0f ns, 8: %.0f ns)", ratio, one, eight)
	}
}

func TestPipelineClose(t *testing.T) {
	p := newLoadedPipeline(t, 2)
	ins, out := makeBatch(t, 8, 4)
	p.Close()
	p.Close() // idempotent
	if _, err := p.ProcessBatch(ins, out); err == nil {
		t.Error("ProcessBatch after Close should error")
	}
	if _, err := p.Process(ins[0]); err == nil {
		t.Error("Process after Close should error")
	}
}

func TestPipelineDefaultShards(t *testing.T) {
	p, err := New(Config{Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.NumShards() != DefaultShards {
		t.Errorf("zero-shard config -> %d shards, want %d", p.NumShards(), DefaultShards)
	}
}

// TestServiceModel: the per-shard service-time hook the continuous-time
// simulator runs on must mirror the deployed design's occupancy model.
func TestServiceModel(t *testing.T) {
	q, g, _, _ := trainModel(t)
	pl, err := New(Config{Shards: 4, Device: core.DefaultConfig(6)})
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	svc := pl.ServiceModel()
	if svc.Shards != 4 {
		t.Errorf("Shards = %d, want 4", svc.Shards)
	}
	if svc.MLServiceNs != 0 || svc.NominalPPS() != 0 {
		t.Errorf("undeployed pipeline reports service %v ns, nominal %v pps; want 0",
			svc.MLServiceNs, svc.NominalPPS())
	}

	if err := pl.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	svc = pl.ServiceModel()
	if got, want := svc.MLServiceNs, float64(pl.model.Load().ScheduledII()); got != want {
		t.Errorf("MLServiceNs = %v, want the scheduled II %v", got, want)
	}
	if got, want := svc.LatencyNs, pl.ModelLatencyNs(); got != want {
		t.Errorf("LatencyNs = %v, want %v", got, want)
	}
	if svc.BypassServiceNs != 1 {
		t.Errorf("BypassServiceNs = %v, want 1 cycle", svc.BypassServiceNs)
	}
	want := 4 * 1e9 / float64(pl.model.Load().ScheduledII())
	if got := svc.NominalPPS(); got != want {
		t.Errorf("NominalPPS = %v, want %v", got, want)
	}
}

// TestFlowHashShardBalance is the statistical guard on the murmur-finalised
// flow hash (the PR 1 fix for FNV's low-bit collapse): per-shard load must
// stay within a tolerance band of perfect balance for both sequential and
// random flow populations.
func TestFlowHashShardBalance(t *testing.T) {
	const (
		flows  = 8192
		shards = 8
		// Binomial σ ≈ sqrt(flows · p(1−p)) ≈ 30 at these sizes; 15% of the
		// expected 1024 is about 5σ, far beyond sampling noise but tight
		// enough to catch any structural skew (FNV put ~100% of sequential
		// flows on 2 of 8 shards).
		tolerance = 0.15
	)
	rng := rand.New(rand.NewSource(99))
	populations := map[string]func(f int) []byte{
		"sequential": func(f int) []byte {
			return pisa.BuildTCPPacket(0x0a000000+uint32(f), 0x0a800001,
				uint16(1024+f), 443, 0x10, 64)
		},
		"random": func(int) []byte {
			return pisa.BuildTCPPacket(rng.Uint32(), rng.Uint32(),
				uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), 0x10, 64)
		},
	}
	for name, build := range populations {
		t.Run(name, func(t *testing.T) {
			var counts [shards]int
			for f := 0; f < flows; f++ {
				counts[core.ShardHash(build(f))%shards]++
			}
			expected := float64(flows) / shards
			for s, c := range counts {
				if dev := (float64(c) - expected) / expected; dev < -tolerance || dev > tolerance {
					t.Errorf("shard %d holds %d of %d flows (%+.1f%% from balance, tolerance ±%.0f%%): %v",
						s, c, flows, dev*100, tolerance*100, counts)
				}
			}
		})
	}
}
