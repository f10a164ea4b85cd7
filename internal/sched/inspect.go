package sched

// Code returns the live instruction tape. The slice aliases the tape's own
// storage: benchmarks and fuzzers read it in place, and verifier tests mutate
// entries to inject the miscompilations Check must catch. Runtime callers
// must treat it as read-only.
func (p *Program) Code() []Instr { return p.tape.code }

// Layout returns the tape's live node → image slot table (see Tape.layout),
// for the same readers and under the same terms as Code.
func (t *Tape) Layout() []int { return t.layout }

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
