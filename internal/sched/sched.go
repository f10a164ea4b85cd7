// Package sched compiles a validated MapReduce graph for software execution
// at hardware-like cost: a VLIW-style list schedule over the CGRA's issue
// resources, and a flat instruction tape (Program: an immutable Tape bound to
// a weight Image and a per-shard Arena) that replaces Graph.Eval's per-node
// switch dispatch with fused straight-line loops.
//
// The schedule is the tree's one answer to "what are depth and II": Plan
// packs every compute node into per-cycle issue bundles under the grid's
// CU/MU capacity and reports the initiation interval the packed schedule
// actually sustains. Device, pipeline.ServiceModel and the netqueue simulator
// consume this II; the only other number is the placed II/latency
// internal/compiler reports for the paper's tables.
//
// # The tape gate
//
// Compile is plan → emit → Check: a program is handed out only once a static
// translation validator — tapecheck, the name its reports, errors and trace
// events carry — has proved, without running a packet, that the tape
// computes exactly what its source mapreduce.Graph computes and touches
// exactly the storage it is allowed to touch. graphcheck gates graphs before
// they cross onto the data plane; Check gates the compiled artifact, so a
// fusion-peephole bug that survives the fuzz corpus becomes a named finding
// at compile time, not a wrong verdict in production. core.Install runs the
// same Check as a step of its own on what CompileUnverified emits, to journal
// the verdict; CompileUnverified is otherwise for tests that corrupt a tape.
//
// Verify (verify*.go) performs four analyses of the instructions and one of
// the schedule they were linearised from:
//
//  1. Semantic equivalence: every instruction's effect is re-derived
//     symbolically, per output lane, as a hash-consed expression over the
//     graph's inputs and weight slots, from its opcode's row of one table
//     (ops: mnemonic, operand class) — fused forms
//     included (a squared distance is sum(sat32(sat32(a−b)²)), a matvec is,
//     lane by lane, sat32(sat32(sum(sat32(w·a)))+bias) of each of its rows,
//     wrapped in the activation and the rescale or table its epilogue names,
//     stored in — or read from — a packed window's slot pair 0 when one
//     layer hands the next its lanes packed, concat sinks write producer
//     results straight into the concatenation's window). The expression at
//     each declared output cell must match, structurally and bit-exactly,
//     the expression the graph defines for that output lane. A mismatch is
//     reported at the instruction that produced the first diverging
//     subexpression.
//
//  2. Weight-addressing audit: the tape's layout must give every
//     weight-owning graph node a slot of its own in the weight image; every
//     constant-backed operand — a matvec's rows and biases among them, which
//     must be constant-backed — must lie inside exactly one KConst's slot,
//     every multiplier or table index — a matvec epilogue's included — must
//     name a payload the image holds — so an image built from a pushed graph
//     puts exactly the weights the push means to set where the tape reads them.
//
//  3. Row-sum audit: the weight half of a matvec's packing guard is read
//     from the image, not computed by the kernel, so it is re-derived here:
//     every matvec row owns one sum index, dense in tape order, and the
//     image's value there is min(sum|w|, 1<<31) of the lanes the row reads.
//     An understated sum would license packed arithmetic that overflows.
//
//  4. Arena bounds: every operand and destination window of the
//     structure-of-arrays arena stays in bounds across all batch slots, no
//     cell is read before it is written or written by two instructions, and
//     every lane reads the same producer in every batch slot (so a corrupted
//     stride cannot read a neighbouring packet's data). Packed windows are
//     stored and read by matvecs alone, each read whole as the layer before
//     laid it out, and every input a matvec packs itself fits the scratch.
//
//  5. Plan: the schedule's issue bundles are re-verified against the
//     cgra.GridSpec CU/MU capacities and the II the scheduler claimed.
//
// The verifier reads the tape, the image and the schedule as data and calls
// none of the kernels that run a tape (TestVerifierCallsNoKernel), so sharing
// their package does not make it check the kernels against themselves.
// There is no interval analysis here. Equivalence proves every declared output
// lane is, sat32 for sat32, the graph's own expression, so whether a lane can
// saturate Fix32 is a question about the graph: graphcheck answers it, once, on
// every install and push path — a tape that merely inherits it is faithful.
//
// Verify is pure and allocation-bounded: its scratch — the interner, every
// node's lanes, the arena cells — lives in a pooled workspace, so on the
// ~1400-node DNN a warm call makes about thirty allocations, the report's
// among them (pinned by TestVerifyLargestDNNBudget; timed by
// BenchmarkTapeVerify). `taurus-compile -check` prints the report next to
// graphcheck's, and fails exactly when the gate would.
package sched

import (
	"fmt"
	"math/bits"
	"strings"

	"taurus/internal/cgra"
	mr "taurus/internal/mapreduce"
)

// Schedule is a resource-constrained list schedule of one graph on one grid:
// every compute node is assigned an issue cycle such that its arguments have
// finished and no cycle oversubscribes the grid's issue capacity (one vector
// op per CU per cycle; one banked table read per MU per cycle).
type Schedule struct {
	Spec cgra.GridSpec

	graph *mr.Graph

	// Bundles[t] lists the nodes that begin issuing at cycle t — one VLIW
	// instruction word per fabric cycle. Free nodes (inputs, consts, wires:
	// concat/slice/scale) occupy no bundle slot.
	Bundles [][]mr.NodeID

	// Start and Done give each node's issue cycle and completion cycle
	// (value available to consumers). Free nodes complete at their ready
	// cycle.
	Start, Done []int

	// Depth is the schedule makespan in cycles: the completion cycle of the
	// last node.
	Depth int

	// II is the measured initiation interval: the steady-state cycles
	// between successive packets entering the schedule, limited by the
	// busiest single unit (a node's back-to-back lane chunks), total CU
	// issue pressure, and MU bank bandwidth (weights and tables are
	// streamed from MUs every packet).
	II int

	// CUIssues and MUReads are the per-packet resource totals behind II:
	// CU issue slots consumed and MU lane reads (consts + LUT lookups).
	CUIssues int
	MUReads  int

	// MaxBundle is the peak number of simultaneously-issuing CU nodes in
	// any cycle — the widest VLIW bundle the schedule needs.
	MaxBundle int
}

// log2Ceil returns ceil(log2(n)) for n >= 1.
func log2Ceil(n int) int { return bits.Len(uint(n - 1)) }

// nodeCost returns a node's issue occupancy and pipeline latency on its
// unit. issues is the number of consecutive cycles the node holds one unit
// (lane chunks issue back-to-back); lat is the cycle count until the value
// reaches consumers. Free nodes (wires, storage, and KScale, which fuses
// into its consumer's pipeline for free) return (0, 0).
func nodeCost(g *mr.Graph, n *mr.Node, spec cgra.GridSpec) (issues, lat int, onMU bool) {
	switch n.Kind {
	case mr.KMap, mr.KUnary, mr.KRequant:
		iters := (n.Width + spec.Lanes - 1) / spec.Lanes
		return iters, 1 + (iters - 1), false
	case mr.KReduce:
		w := g.Node(n.Args[0]).Width
		iters := (w + spec.Lanes - 1) / spec.Lanes
		if w > spec.Lanes {
			w = spec.Lanes
		}
		return iters, log2Ceil(w) + (iters - 1), false
	case mr.KLUT:
		reads := (n.Width + cgra.MUBanks - 1) / cgra.MUBanks
		return reads, cgra.MUAccessCycles + (reads - 1), true
	default: // KInput, KConst, KConcat, KSlice, KScale
		return 0, 0, false
	}
}

// Plan list-schedules g's compute nodes onto spec's issue resources. Nodes
// are visited in topological order (the graph's node order) and greedily
// placed in the earliest cycle where their arguments have completed and
// every cycle of their issue window has a free unit.
func Plan(g *mr.Graph, spec cgra.GridSpec) (*Schedule, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cus, mus := spec.CUCount(), spec.MUCount()
	if cus == 0 {
		return nil, fmt.Errorf("sched: grid %dx%d has no compute units", spec.Rows, spec.Cols)
	}

	s := &Schedule{
		Spec:  spec,
		graph: g,
		Start: make([]int, len(g.Nodes)),
		Done:  make([]int, len(g.Nodes)),
	}
	var cuUsed, muUsed []int // per-cycle issue counters
	use := func(used []int, t, issues, capacity int) ([]int, int) {
		// Find the earliest start >= t whose whole window [start,
		// start+issues) has a free slot each cycle, then claim it.
	retry:
		for {
			for c := t; c < t+issues; c++ {
				for c >= len(used) {
					used = append(used, 0)
				}
				if used[c] >= capacity {
					t = c + 1
					continue retry
				}
			}
			break
		}
		for c := t; c < t+issues; c++ {
			used[c]++
		}
		return used, t
	}

	maxNodeII := 1
	for _, n := range g.Nodes {
		ready := 0
		for _, a := range n.Args {
			if s.Done[a] > ready {
				ready = s.Done[a]
			}
		}
		issues, lat, onMU := nodeCost(g, n, spec)
		if n.Kind == mr.KConst {
			s.MUReads += n.Width // weights stream from MU banks per packet
		}
		if issues == 0 {
			s.Start[n.ID], s.Done[n.ID] = ready, ready
			continue
		}
		var t int
		if onMU {
			if mus == 0 {
				return nil, fmt.Errorf("sched: node %d needs an MU, grid %dx%d (ratio %d:1) has none",
					n.ID, spec.Rows, spec.Cols, spec.CUMURatio)
			}
			muUsed, t = use(muUsed, ready, issues, mus)
			s.MUReads += n.Width
		} else {
			cuUsed, t = use(cuUsed, ready, issues, cus)
			s.CUIssues += issues
		}
		s.Start[n.ID], s.Done[n.ID] = t, t+lat
		if issues > maxNodeII {
			maxNodeII = issues
		}
		for t >= len(s.Bundles) {
			s.Bundles = append(s.Bundles, nil)
		}
		s.Bundles[t] = append(s.Bundles[t], n.ID)
		if s.Done[n.ID] > s.Depth {
			s.Depth = s.Done[n.ID]
		}
	}
	for _, c := range cuUsed {
		if c > s.MaxBundle {
			s.MaxBundle = c
		}
	}

	// Steady-state initiation interval: the busiest unit bounds how soon
	// the next packet's copy of its op can issue; aggregate CU issue and MU
	// bank bandwidth bound the rest (the ResMII of modulo scheduling).
	s.II = maxNodeII
	if r := (s.CUIssues + cus - 1) / cus; r > s.II {
		s.II = r
	}
	if s.MUReads > 0 {
		if mus == 0 {
			return nil, fmt.Errorf("sched: graph reads MU storage, grid %dx%d (ratio %d:1) has no MUs",
				spec.Rows, spec.Cols, spec.CUMURatio)
		}
		if r := (s.MUReads + mus*cgra.MUBanks - 1) / (mus * cgra.MUBanks); r > s.II {
			s.II = r
		}
	}
	return s, nil
}

// Occupancy is the fill fraction of the schedule's CU bundles: issued slots
// over Depth cycles of the widest bundle observed. 1.0 means a perfectly
// rectangular schedule; low values mean the critical path leaves most
// bundles near-empty.
func (s *Schedule) Occupancy() float64 {
	if s.Depth == 0 || s.MaxBundle == 0 {
		return 0
	}
	return float64(s.CUIssues) / float64(s.Depth*s.MaxBundle)
}

// String renders the bundle schedule, one line per issuing cycle:
//
//	t2: n5(map/mul) n7(map/mul)
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: depth %d, II %d, %d CU issues (peak bundle %d, occupancy %.0f%%)\n",
		s.Depth, s.II, s.CUIssues, s.MaxBundle, 100*s.Occupancy())
	for t, bundle := range s.Bundles {
		if len(bundle) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  t%d:", t)
		for _, id := range bundle {
			fmt.Fprintf(&b, " n%d(%s)", id, bundleOpName(s, id))
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// Graph returns the graph this schedule was planned for.
func (s *Schedule) Graph() *mr.Graph { return s.graph }

// bundleOpName is the display label of a scheduled node.
func bundleOpName(s *Schedule, id mr.NodeID) string {
	n := s.graph.Node(id)
	switch n.Kind {
	case mr.KMap:
		return "map/" + n.Map.String()
	case mr.KUnary:
		return n.Unary.String()
	case mr.KReduce:
		return "reduce/" + n.Reduce.String()
	default:
		return n.Kind.String()
	}
}
