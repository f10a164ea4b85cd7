package sched

import (
	"taurus/internal/cgra"
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

// This file is the static-inspection surface of a compiled Program: enough
// of the tape's internals to let a separate package (internal/sched/
// tapecheck) re-derive what the tape computes without re-running it, plus
// the verifier hook Compile gates on. Nothing here is used by the hot path.

// verifyHook must clear every Compile result before it is returned; while
// it is nil Compile refuses. Registered via SetVerifier.
var verifyHook func(*Program) error

// SetVerifier installs the tape verifier Compile gates on, returning the
// previously installed one (nil if none) so tests can swap a failing verifier
// in and restore it. Importing internal/sched/tapecheck registers the real
// verifier; with nil installed Compile returns an error for every graph.
//
// Registration is expected at init time (or around a single test); the hook
// is read without synchronisation on every compile.
func SetVerifier(f func(*Program) error) (prev func(*Program) error) {
	prev = verifyHook
	verifyHook = f
	return prev
}

// Code returns the live instruction tape. The slice aliases the tape's own
// storage: static analyses read it in place, and verifier tests mutate
// entries to inject the miscompilations tapecheck must catch. Runtime
// callers must treat it as read-only.
func (p *Program) Code() []Instr { return p.tape.code }

// ArenaSize returns the length of the batch-major value arena, in lanes
// (int32 cells). Every non-constant Operand window must resolve inside it.
func (p *Program) ArenaSize() int { return p.tape.arena }

// InputOperand returns the arena window of the i-th declared graph input.
func (p *Program) InputOperand(i int) Operand { return p.tape.ins[i] }

// OutputOperand returns the window of the i-th declared graph output
// (arena-backed, or constant-backed when the output is a KConst).
func (p *Program) OutputOperand(i int) Operand { return p.tape.outs[i] }

// Layout returns the tape's live node → image slot table (see Tape.layout),
// for the same readers and under the same terms as Code.
func (t *Tape) Layout() []int { return t.layout }

// Lanes, Mults, LUTs and Sums return the image's storage for static
// inspection; an image is immutable once built, so callers only read them
// (verifier tests excepted, which forge a sum the way they forge an Instr).
func (img *Image) Lanes() []int32            { return img.lanes }
func (img *Image) Mults() []fixed.Multiplier { return img.mults }
func (img *Image) LUTs() []mr.LUT            { return img.luts }
func (img *Image) Sums() []int64             { return img.sums }

// NodeCost exposes the scheduler's per-node cost model: how many issue slots
// the node claims, its result latency, and whether it issues on a memory
// unit rather than a compute unit. tapecheck re-runs it to prove a schedule's
// bundles stay within the capacities the scheduler claimed.
func NodeCost(g *mr.Graph, n *mr.Node, spec cgra.GridSpec) (issues, lat int, onMU bool) {
	return nodeCost(g, n, spec)
}

// Mnemonic names the instruction for findings and reports: its opcode, and
// for an OpMatVec the epilogue it carries, as in "matvec+relu+requant".
func (ins *Instr) Mnemonic() string {
	s := ins.Op.String()
	if ins.Op != OpMatVec {
		return s
	}
	for _, op := range [...]Opcode{ins.Act, ins.Quant} {
		if op != OpNone {
			s += "+" + op.String()
		}
	}
	return s
}

// String names the opcode, mnemonic-style, for findings and reports.
func (op Opcode) String() string {
	switch op {
	case OpNone:
		return "none"
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpRelu:
		return "relu"
	case OpLeaky:
		return "leaky"
	case OpNeg:
		return "neg"
	case OpAbs:
		return "abs"
	case OpSum:
		return "sum"
	case OpRedMin:
		return "redmin"
	case OpRedMax:
		return "redmax"
	case OpArgMin:
		return "argmin"
	case OpArgMax:
		return "argmax"
	case OpRequant:
		return "requant"
	case OpScale:
		return "scale"
	case OpLUT:
		return "lut"
	case OpCopy:
		return "copy"
	case OpDot:
		return "dot"
	case OpDotAdd:
		return "dotadd"
	case OpSqDist:
		return "sqdist"
	case OpMatVec:
		return "matvec"
	default:
		return "op?"
	}
}
