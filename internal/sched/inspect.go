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
