// Package tapecheck is a static translation validator for compiled
// instruction tapes: it proves, without running a packet, that a
// sched.Program computes exactly what its source mapreduce.Graph computes
// and touches exactly the storage it is allowed to touch. graphcheck gates
// graphs before they cross onto the data plane; tapecheck gates the
// *compiled artifact* — a fusion-peephole bug that survives the fuzz corpus
// becomes a named finding at compile time, not a wrong verdict in
// production.
//
// One pass over the tape performs four analyses of the instructions and one of
// the schedule they were linearised from:
//
//  1. Semantic equivalence: every instruction's effect is re-derived
//     symbolically, per output lane, as a hash-consed expression over the
//     graph's inputs and weight slots — fused forms included (a dot is
//     sum(sat32(a·b)), a dot+bias is sat32(sat32(dot)+c), a squared
//     distance is sum(sat32(sat32(a−b)²)), a matvec is the dot+bias of each
//     of its rows, lane by lane, wrapped in the activation and the rescale
//     its epilogue names, concat sinks write producer results
//     straight into the concatenation's window). The expression at
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
//     stride cannot read a neighbouring packet's data).
//
//  5. Plan: the schedule's issue bundles are re-verified against the
//     cgra.GridSpec CU/MU capacities and the II the scheduler claimed.
//
// There is no interval analysis here. Equivalence proves every declared output
// lane is, sat32 for sat32, the graph's own expression, so whether a lane can
// saturate Fix32 is a question about the graph: graphcheck answers it, once, on
// every install and push path — a tape that merely inherits it is faithful.
//
// Verify is pure and allocation-bounded: its scratch — the interner, every
// node's lanes, the arena cells — lives in a pooled workspace, so on the
// ~1400-node DNN a warm call makes about thirty allocations, the report's
// among them (pinned by TestVerifyLargestDNNBudget; timed by
// BenchmarkTapeVerify). Importing this package registers it as sched's
// compile gate: sched.Compile refuses to return a program with
// error-severity findings (sched.CompileUnverified opts out), so a device
// install of a tape the validator rejects fails with that error and the
// previously installed model keeps serving. `taurus-compile -check` prints
// the report next to graphcheck's, and fails exactly when the gate would.
package tapecheck

import (
	"errors"
	"fmt"
	"strings"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
	"taurus/internal/sched"
)

// ErrBadTape is wrapped by every error Report.Err returns, so install paths
// can classify a tapecheck rejection with errors.Is.
var ErrBadTape = errors.New("tapecheck: program rejected")

// Severity is graphcheck's severity scale; the two reports rank findings
// identically.
type Severity = graphcheck.Severity

// Severity levels, re-exported so callers need not import graphcheck.
const (
	SevInfo    = graphcheck.SevInfo
	SevWarning = graphcheck.SevWarning
	SevError   = graphcheck.SevError
)

// Analysis names the check a finding came from.
type Analysis string

const (
	// CheckEquiv findings come from the symbolic-equivalence analysis.
	CheckEquiv Analysis = "equiv"
	// CheckAlias findings come from the weight-addressing audit.
	CheckAlias Analysis = "alias"
	// CheckSums findings come from the matvec row-sum audit.
	CheckSums Analysis = "sums"
	// CheckBounds findings come from the arena bounds/liveness analysis.
	CheckBounds Analysis = "bounds"
	// CheckPlan findings come from the schedule re-verification.
	CheckPlan Analysis = "plan"
)

// Finding is one diagnostic, anchored to a tape instruction (PC >= 0) or to
// the program as a whole (PC < 0, e.g. schedule-level findings, which name
// the graph node instead).
type Finding struct {
	// PC is the offending instruction's index in Program.Code, or -1.
	PC int
	// Op is the instruction's mnemonic, a matvec's with its epilogue
	// ("matvec+relu+requant"); "" for program-level findings.
	Op string
	// Node is the graph node the finding is attributable to, or -1.
	Node mr.NodeID
	// Severity ranks the finding; one SevError rejects the program.
	Severity Severity
	// Check names the analysis that produced the finding.
	Check Analysis
	// Msg is the human-readable diagnostic.
	Msg string
}

// String formats the finding.
func (f Finding) String() string {
	switch {
	case f.PC >= 0:
		return fmt.Sprintf("%s [%s] pc %d (%s): %s", f.Severity, f.Check, f.PC, f.Op, f.Msg)
	case f.Node >= 0:
		return fmt.Sprintf("%s [%s] node %d: %s", f.Severity, f.Check, f.Node, f.Msg)
	default:
		return fmt.Sprintf("%s [%s]: %s", f.Severity, f.Check, f.Msg)
	}
}

// Report is the result of verifying one compiled program.
type Report struct {
	// Graph is the source graph's name.
	Graph string
	// Instrs, Arena and Batch describe the tape: instruction count, arena
	// size in lanes, and compiled batch capacity.
	Instrs int
	Arena  int
	Batch  int
	// Lanes, Mults, LUTs and Sums are the weight image's dimensions: constant
	// lanes, requant/scale multipliers, lookup tables and matvec row sums.
	Lanes, Mults, LUTs, Sums int
	// Tape holds every instruction's mnemonic in tape order.
	Tape []string
	// Findings holds every diagnostic in tape order.
	Findings []Finding
}

// OK reports whether the program passed (no error-severity findings).
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return false
		}
	}
	return true
}

// Err returns nil when the program passed, or an error (wrapping ErrBadTape)
// describing the first error-severity finding.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return fmt.Errorf("%w: graph %q: %s", ErrBadTape, r.Graph, f)
		}
	}
	return nil
}

// String renders the full report, the output of `taurus-compile -check`.
func (r *Report) String() string {
	var b strings.Builder
	status := "OK"
	if !r.OK() {
		status = "REJECTED"
	}
	fmt.Fprintf(&b, "tapecheck: %q — %s (%d instrs, arena %d lanes, batch %d; image %d lanes, %d multipliers, %d tables, %d row sums)\n",
		r.Graph, status, r.Instrs, r.Arena, r.Batch, r.Lanes, r.Mults, r.LUTs, r.Sums)
	b.WriteString("  tape:     ")
	for i := 0; i < len(r.Tape); {
		run := 1
		for i+run < len(r.Tape) && r.Tape[i+run] == r.Tape[i] {
			run++
		}
		if run > 1 {
			fmt.Fprintf(&b, " %d×%s", run, r.Tape[i])
		} else {
			fmt.Fprintf(&b, " %s", r.Tape[i])
		}
		i += run
	}
	b.WriteString("\n")
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "  findings:  none (equiv, alias, sums, bounds, plan all clean)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  findings:\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "    %s\n", f)
	}
	return b.String()
}

// Check is the gate form of Verify: nil when the tape is a faithful
// translation, the first error finding (wrapping ErrBadTape) otherwise.
// sched.Compile calls this on every compiled tape once tapecheck is linked in.
func Check(p *sched.Program) error { return Verify(p).Err() }

func init() {
	// Register as sched's compile-time gate: any binary that links tapecheck
	// (core does) refuses to hand out unverified tapes.
	sched.SetVerifier(Check)
}

// Verify runs every analysis on p.
func Verify(p *sched.Program) *Report {
	if p == nil || p.Tape() == nil || p.Image() == nil {
		return &Report{Graph: "<nil>", Findings: []Finding{{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds, Msg: "program is nil or binds no tape and image",
		}}}
	}
	g := p.Graph()
	img := p.Image()
	r := &Report{
		Instrs: len(p.Code()), Arena: p.ArenaSize(), Batch: p.MaxBatch(),
		Lanes: len(img.Lanes()), Mults: len(img.Mults()), LUTs: len(img.LUTs()), Sums: len(img.Sums()),
	}
	r.Tape = make([]string, len(p.Code()))
	for pc := range p.Code() {
		r.Tape[pc] = p.Code()[pc].Mnemonic()
	}
	if g == nil {
		r.Graph = "<nil>"
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds, Msg: "program has no source graph",
		})
		return r
	}
	r.Graph = g.Name
	if err := g.Validate(); err != nil {
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: SevError, Check: CheckBounds,
			Msg: "source graph no longer validates: " + err.Error(),
		})
		return r
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	c := &checker{
		p: p, g: g, r: r, ws: ws,
		code:   p.Code(),
		batch:  p.MaxBatch(),
		arena:  p.ArenaSize(),
		img:    img,
		layout: p.Tape().Layout(),
	}
	if len(c.layout) != len(g.Nodes) {
		c.finding(-1, -1, SevError, CheckAlias,
			"weight layout covers %d nodes, graph has %d", len(c.layout), len(g.Nodes))
		return r
	}
	c.alias()  // weight slots first: equiv resolves const leaves through them
	c.sums()   // the guard's weight half, re-derived from the image's lanes
	c.bounds() // widths, windows, liveness, slot uniformity
	c.plan()   // schedule capacity/precedence re-verification
	c.equiv()
	return r
}

// checker carries the shared state of one verification pass.
type checker struct {
	p     *sched.Program
	g     *mr.Graph
	r     *Report
	code  []sched.Instr
	batch int
	arena int

	// The weights the program reads: the image it is bound to, the tape's
	// node → image slot layout, and — built by alias() — the const nodes whose
	// slot the layout places soundly, in lane order.
	img    *sched.Image
	layout []int
	consts []constSlot

	// writer[cell] is the pc that defines each arena cell (slot-expanded),
	// -2 for input-seeded cells, -1 for never-written. Built by bounds().
	writer []int32

	// ws is the pooled scratch of this pass (writer's storage among it).
	ws *workspace
}

// finding appends one diagnostic for instruction pc (or -1).
func (c *checker) finding(pc int, node mr.NodeID, sev Severity, check Analysis, format string, args ...any) {
	op := ""
	if pc >= 0 && pc < len(c.code) {
		op = c.code[pc].Mnemonic()
	}
	c.r.Findings = append(c.r.Findings, Finding{
		PC: pc, Op: op, Node: node, Severity: sev, Check: check,
		Msg: fmt.Sprintf(format, args...),
	})
}
