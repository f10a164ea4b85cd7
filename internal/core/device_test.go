package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"taurus/internal/compiler"
	"taurus/internal/dataset"
	"taurus/internal/fixed"
	"taurus/internal/graphcheck"
	"taurus/internal/lower"
	mr "taurus/internal/mapreduce"
	"taurus/internal/ml"
	"taurus/internal/obs"
	"taurus/internal/pisa"
	"taurus/internal/sched"
	"taurus/internal/tensor"
)

// buildAnomalyDevice trains the 6-12-6-3-1 DNN, lowers it and installs it.
func buildAnomalyDevice(t testing.TB) (*Device, *ml.QuantizedDNN, *dataset.AnomalyGenerator) {
	t.Helper()
	rng := rand.New(rand.NewSource(200))
	gen, err := dataset.NewAnomalyGenerator(dataset.DefaultAnomalyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	X, y := dataset.Split(gen.Records(800))
	n := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 20}, rng).Fit(X, y)
	q, err := ml.Quantize(n, X[:200])
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	return dev, q, gen
}

func TestDeviceConfigValidation(t *testing.T) {
	if _, err := NewDevice(Config{NumFeatures: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero features: %v, want ErrBadConfig", err)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{
		Forward:     "forward",
		Flag:        "flag",
		Drop:        "drop",
		Verdict(3):  "invalid(3)",
		Verdict(-1): "invalid(-1)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestSentinelErrors(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.InnerProduct(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g); !errors.Is(err, ErrNoModel) {
		t.Errorf("UpdateWeights before LoadModel: %v, want ErrNoModel", err)
	}
	wide, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(wide, dev.model.InputQuantizer(), compiler.Options{}); !errors.Is(err, ErrBadFeatureWidth) {
		t.Errorf("wide model: %v, want ErrBadFeatureWidth", err)
	}
}

func TestUpdateWeightsStructureSentinel(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	rng := rand.New(rand.NewSource(5))
	small := ml.NewDNN([]int{6, 4, 1}, ml.ReLU, ml.Sigmoid, rng)
	qs, err := ml.Quantize(small, []tensor.Vec{{1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lower.DNN(qs, "small")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(gs); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("structural change: %v, want ErrStructureMismatch", err)
	}
}

// TestUpdateWeightsOneGate: a bare device refuses exactly what the pipeline's
// push gate refuses — the structural check lives once, in the push gate
// (graphcheck.CheckPush, which Model.WithWeights runs) — so a same-shape graph
// that is not a weight-only variant of the installed one is an error under
// both sentinels and leaves the served weights alone.
func TestUpdateWeightsOneGate(t *testing.T) {
	b := mr.NewBuilder("gate")
	x := b.Input("x", 6)
	w := b.Const("w", []int32{1, 2, 3, 4, 5, 6, 7, 8})
	sum := b.Map(mr.MAdd, x, b.Slice(w, 0, 6))
	b.Reduce(mr.RMax, sum) // a second single-lane node the output list could name
	b.Output(b.Reduce(mr.RAdd, sum))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(6)
	cfg.Obs = obs.NewRegistry()
	dev, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, fixed.NewQuantizer(1), compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	served := dev.model
	for name, mutate := range map[string]func(v *mr.Graph){
		"map operator flipped": func(v *mr.Graph) {
			for _, n := range v.Nodes {
				if n.Kind == mr.KMap && n.Map == mr.MAdd {
					n.Map = mr.MSub
				}
			}
		},
		"slice start moved": func(v *mr.Graph) {
			for _, n := range v.Nodes {
				if n.Kind == mr.KSlice {
					n.Start = 2
				}
			}
		},
		// A device serves one output, so its list cannot be permuted; the
		// same nodes and wiring with another node declared is the case.
		"output list changed": func(v *mr.Graph) { v.Outputs[0]-- },
	} {
		v := g.Clone()
		mutate(v)
		err := dev.UpdateWeights(v)
		if !errors.Is(err, ErrStructureMismatch) || !errors.Is(err, graphcheck.ErrIncompatible) {
			t.Errorf("%s: UpdateWeights = %v, want ErrStructureMismatch and graphcheck.ErrIncompatible", name, err)
		}
		if dev.model != served {
			t.Errorf("%s: a refused push replaced the served model", name)
		}
	}
	if err := dev.UpdateWeights(g); err != nil {
		t.Errorf("a weight-only variant is refused: %v", err)
	}
}

// TestDeviceRefusesSaturatingGraph: the static gate is in Install and
// WithWeights, so a bare device — no pipeline in front of it — refuses a
// graph that can saturate Fix32 on LoadModel and on UpdateWeights, and keeps
// serving what it served.
func TestDeviceRefusesSaturatingGraph(t *testing.T) {
	b := mr.NewBuilder("sat")
	x := b.Input("x", 6)
	y := b.Map(mr.MMul, x, b.Const("big", []int32{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20}))
	b.Output(b.Reduce(mr.RAdd, b.Map(mr.MMul, y, y)))
	sat, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.LoadModel(sat, fixed.NewQuantizer(1), compiler.Options{}); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Errorf("LoadModel(saturating) on an empty device = %v, want ErrBadGraph", err)
	}
	if bare.model.Epoch() != 0 {
		t.Errorf("epoch %d after a refused first install, want 0", bare.model.Epoch())
	}

	dev, q, _ := buildAnomalyDevice(t)
	served := dev.model
	if err := dev.LoadModel(sat, q.InputQ, compiler.Options{}); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Errorf("LoadModel(saturating) = %v, want ErrBadGraph", err)
	}
	push := dev.prog.Graph().Clone()
	for _, n := range push.Nodes {
		if n.Kind == mr.KConst && n.Width == 6 {
			for i := range n.Const {
				n.Const[i] = math.MaxInt32
			}
		}
	}
	if err := dev.UpdateWeights(push); !errors.Is(err, graphcheck.ErrBadGraph) {
		t.Errorf("UpdateWeights(saturating) = %v, want ErrBadGraph", err)
	}
	if dev.model != served || dev.model.Epoch() != 1 {
		t.Errorf("a refused install or push replaced the served model (epoch %d, want 1)", dev.model.Epoch())
	}
}

func TestProcessBatchMatchesProcess(t *testing.T) {
	devA, q, gen := buildAnomalyDevice(t)
	devB, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lower.DNN(q, "anomaly-copy")
	if err != nil {
		t.Fatal(err)
	}
	if err := devB.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	ins := make([]PacketIn, 100)
	for i := range ins {
		rec := gen.Record()
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, uint16(3+i), 4, 0x10, 64),
			Features: rec.Features,
		}
	}
	out := make([]Decision, len(ins))
	if err := devB.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		want, err := devA.Process(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("packet %d: batch %+v != single %+v", i, out[i], want)
		}
	}
}

func TestProcessBatchDropsMalformed(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	ins := []PacketIn{
		{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64), Features: rec.Features},
		{Data: []byte{0xde, 0xad}},
		{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)},
	}
	out := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, out); err != nil {
		t.Fatal(err)
	}
	if out[1].Verdict != Drop {
		t.Errorf("malformed packet verdict = %v, want drop", out[1].Verdict)
	}
	if dev.Stats().ParseErrors != 1 {
		t.Errorf("ParseErrors = %d, want 1", dev.Stats().ParseErrors)
	}
	if err := dev.ProcessBatch(ins, out[:1]); !errors.Is(err, ErrBadConfig) {
		t.Errorf("short out slice: %v, want ErrBadConfig", err)
	}
	// A wrong-width feature vector is a caller bug, not traffic: abort.
	bad := []PacketIn{{Data: pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64), Features: make([]float32, 3)}}
	if err := dev.ProcessBatch(bad, out[:1]); !errors.Is(err, ErrBadFeatureWidth) {
		t.Errorf("bad feature width: %v, want ErrBadFeatureWidth", err)
	}
}

// TestWrongWidthFeaturesKeepTheLaws: a feature vector of the wrong width is a
// malformed INT header. Each such packet is dropped and counted as a parse
// error, so a batch of nothing else keeps both conservation laws; the batch
// describes only its first offender, so it allocates no more than a batch of
// that one offender does, and Process still returns the description.
func TestWrongWidthFeaturesKeepTheLaws(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	const n = 256
	ins := make([]PacketIn, n)
	for i := range ins {
		ins[i] = PacketIn{Data: pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0x10, 64), Features: make([]float32, 3)}
	}
	out := make([]Decision, n)
	err := dev.ProcessBatch(ins, out)
	if !errors.Is(err, ErrBadFeatureWidth) || err.Error() != dev.featureWidthError(3).Error() {
		t.Fatalf("batch of wrong-width packets: %v, want %v", err, dev.featureWidthError(3))
	}
	st := dev.Stats()
	if st.Processed != n || st.ParseErrors != n || st.MLInferences != 0 || st.Bypassed != 0 {
		t.Errorf("stats %+v, want %d processed, all of them parse errors", st, n)
	}
	if st.Processed != st.MLInferences+st.Bypassed+st.ParseErrors ||
		st.Forwarded+st.Flagged+st.Dropped != st.Processed-st.ParseErrors {
		t.Errorf("stats %+v break a conservation law", st)
	}
	for i, dec := range out {
		if dec != (Decision{Verdict: Drop}) {
			t.Fatalf("packet %d decided %+v, want a bare Drop", i, dec)
		}
	}
	// A batch of one offender builds that one error; a batch of n builds no
	// more. The least of twenty calls is the steady cost: under -race fmt's
	// sync.Pool drops entries at random and moves one error's count by one
	// or two.
	allocs := func(ins []PacketIn) uint64 {
		least := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 20 {
			runtime.ReadMemStats(&before)
			_ = dev.ProcessBatch(ins, out)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	if all, one := allocs(ins), allocs(ins[:1]); all > one {
		t.Errorf("a batch of %d wrong-width packets allocates %d times, a batch of one %d", n, all, one)
	}
	if _, err := dev.Process(ins[0]); err == nil || err.Error() != dev.featureWidthError(3).Error() {
		t.Errorf("Process of a wrong-width packet: %v, want %v", err, dev.featureWidthError(3))
	}
}

func TestProcessBatchZeroAlloc(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	ins := make([]PacketIn, 64)
	for i := range ins {
		rec := gen.Record()
		ins[i] = PacketIn{
			Data:     pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0x10, 64),
			Features: rec.Features,
		}
	}
	out := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, out); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := dev.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state ProcessBatch allocates %.2f times per batch, want 0", allocs)
	}
}

// TestShardHashMatchesFlowKey: ShardHash, which the packet path computes
// from a frame's bytes, is FlowKey — the definition of the flow hash — of the
// five-tuple in that frame, for every protocol class: TCP and UDP hash their
// ports, any other IPv4 protocol hashes as port 0, and a frame that is not
// IPv4 (or ends inside the IPv4 header) hashes to 0.
func TestShardHashMatchesFlowKey(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	property := func(src, dst uint32, sport, dport uint16, proto uint8, class uint8) bool {
		switch class % 3 {
		case 0:
			proto = 6
		case 1:
			proto = 17
		}
		pkt := pisa.BuildTCPPacket(src, dst, sport, dport, 0x10, 8)
		pkt[23] = proto
		want := dev.FlowKey(src, dst, 0, 0, proto)
		if proto == 6 || proto == 17 {
			want = dev.FlowKey(src, dst, sport, dport, proto)
		}
		if got := ShardHash(pkt); got != want {
			t.Errorf("proto %d: ShardHash = %#x, FlowKey = %#x", proto, got, want)
			return false
		}
		// Cut before the ports, the frame still hashes — as port 0.
		if got, want := ShardHash(pkt[:36]), dev.FlowKey(src, dst, 0, 0, proto); got != want {
			t.Errorf("proto %d, ports cut off: ShardHash = %#x, FlowKey = %#x", proto, got, want)
			return false
		}
		if ShardHash(pkt[:33]) != 0 {
			t.Error("frame cut inside the IPv4 header should hash to 0")
			return false
		}
		pkt[13] = 0x06 // ARP
		return ShardHash(pkt) == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestModelBusyAccounting(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0x10, 64)
	if _, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features}); err != nil {
		t.Fatal(err)
	}
	want := float64(dev.model.ScheduledII())
	if got := dev.Stats().ModelBusyNs; got != want {
		t.Errorf("ML packet busy = %v ns, want II = %v", got, want)
	}
	arp := make([]byte, 14)
	arp[12], arp[13] = 0x08, 0x06
	if _, err := dev.Process(PacketIn{Data: arp}); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().ModelBusyNs; got != want+1 {
		t.Errorf("bypass packet busy = %v ns, want %v", got, want+1)
	}
}

func TestDeviceClassifiesLikeReference(t *testing.T) {
	dev, q, gen := buildAnomalyDevice(t)
	agree, total := 0, 0
	var sport uint16 = 1000
	for i := 0; i < 300; i++ {
		rec := gen.Record()
		sport++
		pkt := pisa.BuildTCPPacket(0x0a000001+uint32(i), 0x0a800001, sport, 443, 0x10, 64)
		dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Bypassed {
			t.Fatal("TCP packet with features should take the ML path")
		}
		// The device verdict must equal thresholding the reference model.
		codes := q.InputQ.QuantizeSlice(rec.Features)
		want := q.ForwardCodes(codes)[0]
		wantAnom := int32(want) >= 64
		gotAnom := dec.Verdict != Forward
		if wantAnom == gotAnom {
			agree++
		}
		total++
	}
	if agree != total {
		t.Errorf("device verdicts agree with reference on %d/%d", agree, total)
	}
}

func TestDeviceLatencyAccounting(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0, 64)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
	if err != nil {
		t.Fatal(err)
	}
	if dec.LatencyNs <= BaseSwitchLatencyNs {
		t.Errorf("ML packet latency %v should exceed base %v", dec.LatencyNs, BaseSwitchLatencyNs)
	}
	if dev.ModelLatencyNs() <= 0 || dev.ModelII() != 1 {
		t.Errorf("model stats: lat=%v II=%d", dev.ModelLatencyNs(), dev.ModelII())
	}
	// Same flow, second packet: features already accumulated.
	dec2, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Bypassed {
		t.Error("second packet of known flow should take ML path")
	}
}

func TestDeviceBypassNonTCP(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	// ARP-ish frame: bypass with no added latency and a Forward verdict.
	pkt := make([]byte, 14)
	pkt[12], pkt[13] = 0x08, 0x06
	dec, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed || dec.Verdict != Forward {
		t.Errorf("non-IP packet: bypassed=%v verdict=%v", dec.Bypassed, dec.Verdict)
	}
	if dec.LatencyNs != BaseSwitchLatencyNs {
		t.Errorf("bypass latency = %v, want base only", dec.LatencyNs)
	}
}

func TestDeviceBypassUnknownFlow(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	pkt := pisa.BuildTCPPacket(9, 9, 9, 9, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed {
		t.Error("flow with no accumulated features should bypass")
	}
}

func TestDeviceNoModelBypasses(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	pkt := pisa.BuildTCPPacket(1, 2, 3, 4, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: make([]float32, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Bypassed {
		t.Error("device without a model should bypass")
	}
}

func TestDeviceStats(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	for i := 0; i < 20; i++ {
		rec := gen.Record()
		pkt := pisa.BuildTCPPacket(uint32(i), 2, 3, 4, 0, 0)
		if _, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features}); err != nil {
			t.Fatal(err)
		}
	}
	s := dev.Stats()
	if s.Processed != 20 || s.MLInferences != 20 {
		t.Errorf("stats = %+v", s)
	}
	if s.Forwarded+s.Flagged+s.Dropped != 20 {
		t.Errorf("verdict counts don't add up: %+v", s)
	}
}

// mixedBatch builds traffic that takes every exit of the packet path: ML
// packets carrying features, the same flows again with Features == nil, TCP
// flows the registers have never seen, bypass-class (non-IP) frames, and
// frames truncated inside each header.
func mixedBatch(gen *dataset.AnomalyGenerator, n int) []PacketIn {
	full := pisa.BuildTCPPacket(0x0a000063, 0x0a800001, 999, 443, 0x10, 64)
	arp := make([]byte, 14)
	arp[12], arp[13] = 0x08, 0x06
	ins := make([]PacketIn, n)
	for i := range ins {
		// Each group of six owns two flows; its third packet revisits the
		// first of them once the registers hold its features.
		flow := func(k int) []byte {
			return pisa.BuildTCPPacket(0x0a000001+uint32(i/6*2+k), 0x0a800001, 1000, 443, 0x10, 64)
		}
		switch i % 6 {
		case 0:
			ins[i] = PacketIn{Data: flow(0), Features: gen.Record().Features}
		case 1:
			ins[i] = PacketIn{Data: flow(1), Features: gen.Record().Features}
		case 2:
			ins[i] = PacketIn{Data: flow(0)}
		case 3:
			ins[i] = PacketIn{Data: pisa.BuildTCPPacket(0x0b000000+uint32(i), 0x0a800001, 7, 443, 0x10, 64)}
		case 4:
			ins[i] = PacketIn{Data: arp}
		case 5:
			ins[i] = PacketIn{Data: full[:[]int{2, 14, 30, 34, 50}[i/6%5]]}
		}
	}
	return ins
}

// TestRefusedTapeIsInstallError pins the install's tape gate (admit): the
// program CompileUnverified emits for a graph, with one instruction corrupted
// the way sched's TestMutationKill corrupts one, is refused with an error
// wrapping sched.ErrBadTape — there is no second engine to serve it — and so
// is a scheduler refusal. Each refusal is journalled as tapecheck.fail naming
// the error, and the model being built takes no tape. The same graph's
// faithful program clears the same gate: LoadModel installs and serves it,
// journalling tapecheck.pass, then model.publish.
func TestRefusedTapeIsInstallError(t *testing.T) {
	_, q, _ := buildAnomalyDevice(t)
	next, err := lower.DNN(q, "anomaly-next")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range next.Nodes {
		for i := range n.Const {
			n.Const[i] = -n.Const[i]
		}
	}
	cfg := DefaultConfig(6)
	cfg.Obs, cfg.Tracer = obs.NewRegistry(), obs.NewTracer(16)

	prog, err := sched.CompileUnverified(next, cfg.grid())
	if err != nil {
		t.Fatal(err)
	}
	// The output neuron is the tape's 1-row layer: one weight row, then its
	// bias.
	pc := slices.IndexFunc(prog.Code(), func(ins sched.Instr) bool {
		return ins.Op == sched.OpMatVec && ins.W == 1 && len(ins.Rows) == 2
	})
	if pc < 0 {
		t.Fatal("the DNN's tape has no output neuron to corrupt")
	}
	out := &prog.Code()[pc]
	out.Rows = out.Rows[:out.W] // the output neuron's bias dropped
	m := &Model{epoch: 1, tracer: cfg.tracer()}
	refused := m.admit(next.Name, prog, nil)
	if !errors.Is(refused, sched.ErrBadTape) {
		t.Fatalf("the tape gate on a corrupted tape = %v, want an error wrapping ErrBadTape", refused)
	}
	noMU := errors.New("sched: grid has no MUs")
	if err := m.admit(next.Name, nil, noMU); !errors.Is(err, noMU) {
		t.Fatalf("the tape gate on a scheduler refusal = %v, want the scheduler's error", err)
	}
	if m.tape != nil || m.image != nil || m.schedII != 0 {
		t.Error("a refused tape became the model's")
	}
	events := cfg.Tracer.Events()
	if len(events) != 2 || events[0].Kind != "tapecheck.fail" || !strings.Contains(events[0].Detail, sched.ErrBadTape.Error()) ||
		events[1].Kind != "tapecheck.fail" || !strings.Contains(events[1].Detail, noMU.Error()) {
		t.Errorf("journal after two refusals = %+v, want two tapecheck.fail naming their errors", events)
	}

	bare, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.LoadModel(next, q.InputQ, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	if bare.model == nil || bare.model.ScheduledII() == 0 || servedTapeCheck(bare.model) != nil {
		t.Error("the faithful tape did not install")
	}
	if ev := cfg.Tracer.Events(); len(ev) != 4 || ev[2].Kind != "tapecheck.pass" || ev[3].Kind != "model.publish" {
		t.Errorf("clean install journalled %+v after the refusals, want tapecheck.pass then model.publish", ev[2:])
	}
}

// TestHostileFramesZeroAlloc: frame bytes are attacker-controlled, so no
// frame — truncated anywhere, non-IP, or well-formed — may make the batch
// path allocate, and every truncated frame is dropped and counted.
func TestHostileFramesZeroAlloc(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	ins := mixedBatch(gen, 96)
	out := make([]Decision, len(ins))
	if err := dev.ProcessBatch(ins, out); err != nil { // warm up
		t.Fatal(err)
	}
	base := dev.Stats().ParseErrors
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if err := dev.ProcessBatch(ins, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ProcessBatch over hostile frames allocates %.2f times per batch, want 0", allocs)
	}
	truncated := 0
	for i := range ins {
		if i%6 == 5 {
			truncated++
			if out[i] != (Decision{Verdict: Drop}) {
				t.Errorf("truncated frame %d (%d bytes) decided %+v, want a bare Drop", i, len(ins[i].Data), out[i])
			}
		}
	}
	// AllocsPerRun calls the function once more than it measures.
	if got, want := dev.Stats().ParseErrors-base, truncated*(runs+1); got != want {
		t.Errorf("ParseErrors grew by %d over %d batches of %d truncated frames, want %d", got, runs+1, truncated, want)
	}
}

// TestProcessZeroAlloc: the one-packet entry point is the batch loop with a
// batch of one, and like it allocates nothing — on the ML, bypass and
// parse-error exits alike.
func TestProcessZeroAlloc(t *testing.T) {
	dev, _, gen := buildAnomalyDevice(t)
	ins := mixedBatch(gen, 12)
	for _, in := range ins {
		in := in
		_, wantErr := dev.Process(in) // warm up
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := dev.Process(in); (err != nil) != (wantErr != nil) {
				t.Fatalf("Process error changed between calls: %v then %v", wantErr, err)
			}
		})
		if allocs != 0 {
			t.Errorf("Process(%d-byte frame, %d features) allocates %.2f times, want 0", len(in.Data), len(in.Features), allocs)
		}
	}
}

func TestDeviceParseError(t *testing.T) {
	dev, _, _ := buildAnomalyDevice(t)
	dec, err := dev.Process(PacketIn{Data: []byte{1, 2}})
	if !errors.Is(err, pisa.ErrShortPacket) {
		t.Errorf("truncated packet: %v, want ErrShortPacket", err)
	}
	if dec != (Decision{Verdict: Drop}) {
		t.Errorf("truncated packet decided %+v, want a bare Drop", dec)
	}
	if dev.Stats().ParseErrors != 1 {
		t.Error("parse error not counted")
	}
}

func TestLoadModelValidation(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong input width.
	g, err := lower.InnerProduct(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.LoadModel(g, dev.model.InputQuantizer(), compiler.Options{}); err == nil {
		t.Error("width-16 model on 6-feature device should fail")
	}
}

func TestUpdateWeights(t *testing.T) {
	dev, q, gen := buildAnomalyDevice(t)

	// Retrain a structurally identical model with different weights.
	rng := rand.New(rand.NewSource(201))
	X, y := dataset.Split(gen.Records(400))
	n2 := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
	ml.NewTrainer(n2, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 10}, rng).Fit(X, y)
	q2, err := ml.Quantize(n2, X[:100])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := lower.DNN(q2, "anomaly-v2")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(g2); err != nil {
		t.Fatal(err)
	}
	// After the update the device computes with the new weights. (Input
	// quantisers calibrate to the same feature range, so codes agree.)
	rec := gen.Record()
	pkt := pisa.BuildTCPPacket(77, 2, 3, 4, 0, 0)
	dec, err := dev.Process(PacketIn{Data: pkt, Features: rec.Features})
	if err != nil {
		t.Fatal(err)
	}
	codes := q.InputQ.QuantizeSlice(rec.Features)
	want := q2.ForwardCodes(codes)[0]
	if dec.MLScore != int32(want) {
		t.Errorf("score after update = %d, want %d", dec.MLScore, want)
	}

	// Structural change must be rejected.
	small := ml.NewDNN([]int{6, 4, 1}, ml.ReLU, ml.Sigmoid, rng)
	qs, err := ml.Quantize(small, X[:50])
	if err != nil {
		t.Fatal(err)
	}
	gs, err := lower.DNN(qs, "small")
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.UpdateWeights(gs); err == nil {
		t.Error("structural change should be rejected")
	}
}

// clobber overwrites every weight payload of g: what a trainer that keeps
// going does to its own graph.
func clobber(g *mr.Graph) {
	for _, n := range g.Nodes {
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
}

// servedTapeCheck runs the install's tape verifier over the tape and image m
// serves. A push never runs it (WithWeights' gate is the push's only check);
// tests call it to show a model still verifies after whatever they did.
func servedTapeCheck(m *Model) error {
	prog := sched.Bind(m.tape, m.image, nil)
	return sched.Check(&prog)
}

// TestUpdateWeightsIsolatesTrainerGraph pins the install and §3.3.1 push
// contract: a graph handed to LoadModel or UpdateWeights is copied, not kept,
// so a trainer that keeps mutating it after the call returns changes neither
// what the device computes, nor whether the served tape and image still
// verify, nor what a further push builds on.
func TestUpdateWeightsIsolatesTrainerGraph(t *testing.T) {
	_, q, gen := buildAnomalyDevice(t)
	rng := rand.New(rand.NewSource(77))
	X, y := dataset.Split(gen.Records(400))
	retrained := func(name string) *mr.Graph {
		t.Helper()
		n2 := ml.NewDNN([]int{6, 12, 6, 3, 1}, ml.ReLU, ml.Sigmoid, rng)
		ml.NewTrainer(n2, ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, BatchSize: 32, Epochs: 5}, rng).Fit(X, y)
		q2, err := ml.Quantize(n2, X[:100])
		if err != nil {
			t.Fatal(err)
		}
		g2, err := lower.DNN(q2, name)
		if err != nil {
			t.Fatal(err)
		}
		return g2
	}
	recs := gen.Records(32)
	pkt := pisa.BuildTCPPacket(77, 2, 3, 4, 0, 0)

	for _, tc := range []struct {
		name string
		// hand gives the device a graph through the entry point under test
		// and returns it for the trainer to clobber.
		hand func(dev *Device) *mr.Graph
	}{
		{"graph handed to LoadModel", func(dev *Device) *mr.Graph {
			g := retrained("installed")
			if err := dev.LoadModel(g, q.InputQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"graph handed to UpdateWeights", func(dev *Device) *mr.Graph {
			if err := dev.LoadModel(retrained("installed"), q.InputQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
			g := retrained("trainer")
			if err := dev.UpdateWeights(g); err != nil {
				t.Fatal(err)
			}
			return g
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(6)
			cfg.Obs = obs.NewRegistry()
			dev, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scores := func(dev *Device) []int32 {
				t.Helper()
				out := make([]int32, len(recs))
				for i, r := range recs {
					dec, err := dev.Process(PacketIn{Data: pkt, Features: r.Features})
					if err != nil {
						t.Fatal(err)
					}
					out[i] = dec.MLScore
				}
				return out
			}
			trainer := tc.hand(dev)
			want := scores(dev)

			clobber(trainer)

			for i, got := range scores(dev) {
				if got != want[i] {
					t.Fatalf("record %d: score changed from %d to %d after the trainer mutated its graph", i, want[i], got)
				}
			}
			if err := servedTapeCheck(dev.model); err != nil {
				t.Errorf("the served tape after the trainer mutated its graph: %v", err)
			}
			// A further push lands on the device's own structure, not on the
			// clobbered graph, and serves exactly the pushed weights.
			next := retrained("next")
			if err := dev.UpdateWeights(next); err != nil {
				t.Fatalf("further UpdateWeights: %v", err)
			}
			ref, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.LoadModel(next, q.InputQ, compiler.Options{}); err != nil {
				t.Fatal(err)
			}
			got := scores(dev)
			for i, w := range scores(ref) {
				if got[i] != w {
					t.Fatalf("record %d: score %d after a further push, a fresh install of the same graph gives %d", i, got[i], w)
				}
			}
		})
	}
}

func TestUpdateWeightsNoModel(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := lower.InnerProduct(6)
	if err := dev.UpdateWeights(g); err == nil {
		t.Error("update without a model should fail")
	}
}

func TestFlowKeyStability(t *testing.T) {
	dev, err := NewDevice(DefaultConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	a := dev.FlowKey(1, 2, 3, 4, 6)
	b := dev.FlowKey(1, 2, 3, 4, 6)
	c := dev.FlowKey(1, 2, 3, 5, 6)
	if a != b {
		t.Error("same tuple should hash identically")
	}
	if a == c {
		t.Error("different tuples should (almost surely) differ")
	}
}
