package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
)

// Packet classes. A class fixes both how the frame is built and which rule
// the reference applies to it.
const (
	clsFeat   uint8 = iota // TCP, warm flow, carries its feature vector: accumulate + infer
	clsWarm                // TCP, warm flow, Features == nil: infer from the registers
	clsBypass              // UDP / ICMP / ARP: bypass-class, never touches the model
	clsUnseen              // TCP, never-seen flow, Features == nil: flowValid = 0, bypassed
	clsTrunc               // truncated frame: parse error, counted Drop
	numClasses
)

// workload is one benchmark workload. The four differ in exactly one of the
// three properties the code's cost depends on: model size, batch size,
// traffic mix.
type workload struct {
	name string
	why  string // one line for BENCHMARK.json

	sizes        []int // DNN layer widths, input first
	trainRecords int
	epochs       int

	batch int // packets per ProcessBatch call
	// share of each class in every setBatch-packet block, in per mille;
	// whatever the others leave is clsFeat.
	mix [numClasses]int

	// ProcessBatch calls per timed trial: 3-5 ms here (one 16 ms batch on
	// wide-bulk), short enough that a trial is either disturbed by a
	// neighbour's burst or not.
	trialBatches int
	// Packets per span of a per-layer round, ~1 ms here: a 4096-packet span
	// of the wide model lasts 16 ms and is almost never left undisturbed.
	// Calls inside a round are min(batch, roundPackets) packets long.
	roundPackets int
}

const (
	setBatch  = 4096 // packets per block of the packet set; every block has the exact class mix
	setBlocks = 8
	setSize   = setBatch * setBlocks
	warmFlows = 512
	// Pool sizes of the non-ML frames; packets of these classes draw from
	// the pools with replacement.
	bypassPool = 256
	unseenPool = 128
	truncPool  = 64
)

var (
	anomalyDNN = []int{6, 12, 6, 3, 1}
	wideDNN    = []int{8, 64, 32, 1}
)

var workloads = []workload{
	{
		name:  "dnn-bulk",
		why:   "anomaly DNN 6-12-6-3-1, 4096-packet batches, every packet ML with features: front half and tape sweep each ~half the packet, dispatch amortised away",
		sizes: anomalyDNN, trainRecords: 2000, epochs: 8,
		batch: 4096, trialBatches: 1, roundPackets: 1024,
	},
	{
		name:  "wide-bulk",
		why:   "DNN 8-64-32-1 (II 6), same traffic: the tape sweep is over 85% of the packet and an install costs milliseconds, so tape/sched/verifier work shows and front-half work does not",
		sizes: wideDNN, trainRecords: 1024, epochs: 4,
		batch: 4096, trialBatches: 1, roundPackets: 256,
	},
	{
		name:  "dnn-small",
		why:   "dnn-bulk's model and packets cut into 32-packet batches: per-call fixed cost (lock, channel hand-off, barrier, tally flush) is ~1/3 of a batch, so dispatcher work shows here only",
		sizes: anomalyDNN, trainRecords: 2000, epochs: 8,
		batch: 32, trialBatches: 128, roundPackets: 1024,
	},
	{
		name:  "mixed-edge",
		why:   "dnn-bulk's model; 55% bypass-class, 15% never-seen TCP flows, 5% truncated, 25% ML on warm flows without features: fast, early-exit and error paths of the same front half",
		sizes: anomalyDNN, trainRecords: 2000, epochs: 8,
		batch: 4096, trialBatches: 3, roundPackets: 1024,
		mix: [numClasses]int{clsWarm: 250, clsBypass: 550, clsUnseen: 150, clsTrunc: 50},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mlShare is the fraction of the workload's packets that run the tape.
func (w *workload) mlShare() float64 {
	return 1 - float64(w.mix[clsBypass]+w.mix[clsUnseen]+w.mix[clsTrunc])/1000
}

// Seed streams: every random choice of a run derives from -seed through one
// of these, so changing how one stream is consumed leaves the others alone.
const (
	streamModel = iota + 1
	streamFlows
	streamPackets
	streamLabels
	streamQueue
)

func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7919 }

// packetSet is a workload's generated traffic: setSize packets in seeded
// order plus the warm-up batch that puts every warm flow's features into the
// registers.
type packetSet struct {
	ins   []PacketIn
	class []uint8
	flow  []int32 // warm-flow index of clsFeat / clsWarm packets, -1 otherwise

	// warm holds one clsFeat packet per warm flow. Processing it puts the
	// register file into the state every reference check starts from.
	warm []PacketIn

	// extras for the per-layer rounds, all roundPackets long (truncFrames is
	// the pool): the workload's ML flows with and without features, and an
	// all-bypass batch.
	mlFeat, mlNil, allBypass []PacketIn
	truncFrames              [][]byte
}

// flowProbe reports, for each candidate TCP flow in order, whether its
// register slot was still free when it was reached — the only thing the
// generator needs to know about the program's flow hash.
type flowProbe func(frames [][]byte, feat []float32) ([]bool, error)

// generate builds the workload's packet set from seed. records supplies
// feature vectors (from the model's own generator); probe filters candidate
// flows down to ones that do not share a register slot, so the reference can
// model the register file per flow without knowing the hash.
func (w *workload) generate(seed int64, records func(n int) []Record, probe flowProbe) (*packetSet, error) {
	frng := rand.New(rand.NewSource(subSeed(seed, streamFlows)))
	prng := rand.New(rand.NewSource(subSeed(seed, streamPackets)))

	// Candidate flows: distinct five-tuples; the first warmFlows free ones
	// become warm flows, the next unseenPool free ones the never-seen pool.
	const candidates = 2 * (warmFlows + unseenPool)
	seen := map[[3]uint32]bool{}
	cand := make([][]byte, 0, candidates)
	for len(cand) < candidates {
		src := 0x0a000000 | frng.Uint32()&0x00ffffff
		dst := 0xc0a80000 | frng.Uint32()&0x0000ffff
		sport := uint16(1024 + frng.Intn(60000))
		dport := []uint16{80, 443, 22, 53, 8080}[frng.Intn(5)]
		key := [3]uint32{src, dst, uint32(sport)<<16 | uint32(dport)}
		if seen[key] {
			continue
		}
		seen[key] = true
		cand = append(cand, tcpFrame(src, dst, sport, dport, frng.Intn(64)))
	}
	free, err := probe(cand, records(1)[0].Features)
	if err != nil {
		return nil, err
	}
	var flows [][]byte
	for i, ok := range free {
		if ok {
			flows = append(flows, cand[i])
		}
	}
	if len(flows) < warmFlows+unseenPool {
		return nil, fmt.Errorf("only %d of %d candidate flows have a register slot of their own", len(flows), candidates)
	}
	warmFrames, unseenFrames := flows[:warmFlows], flows[warmFlows:warmFlows+unseenPool]

	ps := &packetSet{
		ins:   make([]PacketIn, 0, setSize),
		class: make([]uint8, 0, setSize),
		flow:  make([]int32, 0, setSize),
	}
	for f, rec := range records(warmFlows) {
		ps.warm = append(ps.warm, PacketIn{Data: warmFrames[f], Features: rec.Features})
	}

	bypassFrames := make([][]byte, bypassPool)
	for i := range bypassFrames {
		bypassFrames[i] = bypassFrame(frng)
	}
	ps.truncFrames = make([][]byte, truncPool)
	for i := range ps.truncFrames {
		full := warmFrames[frng.Intn(warmFlows)]
		ps.truncFrames[i] = full[:1+frng.Intn(tcpFrameMin-1)]
	}

	// Every block carries the exact class mix, shuffled. Rounding leaves a
	// few packets over; they go to the workload's largest class.
	share := w.mix
	share[clsFeat] = 1000
	largest := clsFeat
	for c := clsFeat + 1; c < numClasses; c++ {
		share[clsFeat] -= share[c]
	}
	for c := uint8(0); c < numClasses; c++ {
		if share[c] > share[largest] {
			largest = c
		}
	}
	classes := make([]uint8, 0, setBatch)
	for c := uint8(0); c < numClasses; c++ {
		for i := 0; i < share[c]*setBatch/1000; i++ {
			classes = append(classes, c)
		}
	}
	for len(classes) < setBatch {
		classes = append(classes, largest)
	}
	nFeat := 0
	for _, c := range classes {
		if c == clsFeat {
			nFeat++
		}
	}
	feats := records(nFeat * setBlocks)
	for b := 0; b < setBlocks; b++ {
		prng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		for _, c := range classes {
			in, flow := PacketIn{}, int32(-1)
			switch c {
			case clsFeat:
				flow = int32(prng.Intn(warmFlows))
				in = PacketIn{Data: warmFrames[flow], Features: feats[0].Features}
				feats = feats[1:]
			case clsWarm:
				flow = int32(prng.Intn(warmFlows))
				in = PacketIn{Data: warmFrames[flow]}
			case clsBypass:
				in = PacketIn{Data: bypassFrames[prng.Intn(bypassPool)]}
			case clsUnseen:
				in = PacketIn{Data: unseenFrames[prng.Intn(unseenPool)]}
			case clsTrunc:
				in = PacketIn{Data: ps.truncFrames[prng.Intn(truncPool)]}
			}
			ps.ins = append(ps.ins, in)
			ps.class = append(ps.class, c)
			ps.flow = append(ps.flow, flow)
		}
	}

	for i, rec := range records(w.roundPackets) {
		frame := warmFrames[prng.Intn(warmFlows)]
		ps.mlFeat = append(ps.mlFeat, PacketIn{Data: frame, Features: rec.Features})
		ps.mlNil = append(ps.mlNil, PacketIn{Data: frame})
		ps.allBypass = append(ps.allBypass, PacketIn{Data: bypassFrames[i%bypassPool]})
	}
	return ps, nil
}

// hash digests everything the program is handed — frames, feature bits,
// order — plus the class of every packet.
func (ps *packetSet) hash() string {
	h := sha256.New()
	var buf [4]byte
	write := func(ins []PacketIn) {
		for _, in := range ins {
			binary.LittleEndian.PutUint32(buf[:], uint32(len(in.Data)))
			h.Write(buf[:])
			h.Write(in.Data)
			binary.LittleEndian.PutUint32(buf[:], uint32(len(in.Features)))
			h.Write(buf[:])
			for _, f := range in.Features {
				binary.LittleEndian.PutUint32(buf[:], math.Float32bits(f))
				h.Write(buf[:])
			}
		}
	}
	write(ps.warm)
	write(ps.ins)
	h.Write(ps.class)
	return hex.EncodeToString(h.Sum(nil))
}

// Frames are built here from the wire formats, not with the program's packet
// builder: the generator is part of the benchmark, and the program receives
// only the bytes.

const (
	ethLen      = 14
	ipv4Len     = 20
	tcpLen      = 20
	udpLen      = 8
	tcpFrameMin = ethLen + ipv4Len + tcpLen
)

func ipv4Frame(proto byte, src, dst uint32, l4 int) []byte {
	pkt := make([]byte, ethLen+ipv4Len+l4)
	binary.BigEndian.PutUint16(pkt[12:], 0x0800)
	ip := pkt[ethLen:]
	ip[0] = 0x45
	binary.BigEndian.PutUint16(ip[2:], uint16(ipv4Len+l4))
	ip[8] = 64
	ip[9] = proto
	binary.BigEndian.PutUint32(ip[12:], src)
	binary.BigEndian.PutUint32(ip[16:], dst)
	return pkt
}

func tcpFrame(src, dst uint32, sport, dport uint16, payload int) []byte {
	pkt := ipv4Frame(6, src, dst, tcpLen+payload)
	tcp := pkt[ethLen+ipv4Len:]
	binary.BigEndian.PutUint16(tcp[0:], sport)
	binary.BigEndian.PutUint16(tcp[2:], dport)
	tcp[12] = 5 << 4
	tcp[13] = 0x10 // ACK
	return pkt
}

// bypassFrame draws one bypass-class frame: UDP (3 in 5), ICMP or ARP.
func bypassFrame(rng *rand.Rand) []byte {
	src := 0x0a000000 | rng.Uint32()&0x00ffffff
	dst := 0xc0a80000 | rng.Uint32()&0x0000ffff
	switch k := rng.Intn(5); {
	case k < 3:
		pkt := ipv4Frame(17, src, dst, udpLen+rng.Intn(64))
		udp := pkt[ethLen+ipv4Len:]
		binary.BigEndian.PutUint16(udp[0:], uint16(1024+rng.Intn(60000)))
		binary.BigEndian.PutUint16(udp[2:], 53)
		return pkt
	case k == 3:
		return ipv4Frame(1, src, dst, 8+rng.Intn(56))
	default:
		pkt := make([]byte, ethLen+28)
		binary.BigEndian.PutUint16(pkt[12:], 0x0806)
		return pkt
	}
}
