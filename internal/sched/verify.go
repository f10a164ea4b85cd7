package sched

import (
	"errors"
	"fmt"
	"strings"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// This file and the verify_*.go files beside it are the tape gate's
// translation validator; the package doc says what it proves.

// ErrBadTape is wrapped by every error Report.Err returns, so install paths
// can classify a tape the gate refuses with errors.Is.
var ErrBadTape = errors.New("tapecheck: program rejected")

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
	// Severity ranks the finding on graphcheck's scale; one SevError
	// rejects the program.
	Severity graphcheck.Severity
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
	// size in lanes, and compiled batch capacity; packed is the packed lanes
	// besides the arena (the windows layers hand over and the pack scratch,
	// two packets a lane), which String prints.
	Instrs int
	Arena  int
	Batch  int
	packed int
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
		if f.Severity == graphcheck.SevError {
			return false
		}
	}
	return true
}

// Err returns nil when the program passed, or an error (wrapping ErrBadTape)
// describing the first error-severity finding.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == graphcheck.SevError {
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
	fmt.Fprintf(&b, "tapecheck: %q — %s (%d instrs, arena %d lanes + %d packed, batch %d; image %d lanes, %d multipliers, %d tables, %d row sums)\n",
		r.Graph, status, r.Instrs, r.Arena, r.packed, r.Batch, r.Lanes, r.Mults, r.LUTs, r.Sums)
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
// translation, the first error finding (wrapping ErrBadTape) otherwise. It is
// Compile's last step, and the tape gate core.Install runs on the program
// CompileUnverified emitted.
func Check(p *Program) error { return Verify(p).Err() }

// Verify runs every analysis on p.
func Verify(p *Program) *Report {
	if p == nil || p.tape == nil || p.img == nil {
		return &Report{Graph: "<nil>", Findings: []Finding{{
			PC: -1, Node: -1, Severity: graphcheck.SevError, Check: CheckBounds, Msg: "program is nil or binds no tape and image",
		}}}
	}
	t, img, g := p.tape, p.img, p.tape.g
	r := &Report{
		Instrs: len(t.code), Arena: t.arena, Batch: t.batch, packed: t.packed + t.scratch,
		Lanes: len(img.lanes), Mults: len(img.mults), LUTs: len(img.luts), Sums: len(img.sums),
	}
	r.Tape = make([]string, len(t.code))
	for pc := range t.code {
		r.Tape[pc] = t.code[pc].Mnemonic()
	}
	if g == nil {
		r.Graph = "<nil>"
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: graphcheck.SevError, Check: CheckBounds, Msg: "program has no source graph",
		})
		return r
	}
	r.Graph = g.Name
	if err := g.Validate(); err != nil {
		r.Findings = append(r.Findings, Finding{
			PC: -1, Node: -1, Severity: graphcheck.SevError, Check: CheckBounds,
			Msg: "source graph no longer validates: " + err.Error(),
		})
		return r
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	c := &checker{
		t: t, g: g, r: r, ws: ws,
		code:    t.code,
		batch:   t.batch,
		arena:   t.arena,
		packed:  t.packed,
		scratch: t.scratch,
		img:     img,
		layout:  t.layout,
	}
	if len(c.layout) != len(g.Nodes) {
		c.finding(-1, -1, graphcheck.SevError, CheckAlias,
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
	t     *Tape
	g     *mr.Graph
	r     *Report
	code  []Instr
	batch int
	arena int

	// packed is the extent of the packed windows, scratch that of the pack
	// scratch after them, in packed lanes.
	packed, scratch int

	// The weights the program reads: the image it is bound to, the tape's
	// node → image slot layout, and — built by alias() — the const nodes whose
	// slot the layout places soundly, in lane order.
	img    *Image
	layout []int
	consts []constSlot

	// writer[cell] is the pc that defines each arena cell (slot-expanded),
	// then each packed cell (pair-expanded, from index arena on), -2 for
	// input-seeded cells, -1 for never-written. Built by bounds().
	writer []int32

	// ws is the pooled scratch of this pass (writer's storage among it).
	ws *workspace
}

// finding appends one diagnostic for instruction pc (or -1).
func (c *checker) finding(pc int, node mr.NodeID, sev graphcheck.Severity, check Analysis, format string, args ...any) {
	op := ""
	if pc >= 0 && pc < len(c.code) {
		op = c.code[pc].Mnemonic()
	}
	c.r.Findings = append(c.r.Findings, Finding{
		PC: pc, Op: op, Node: node, Severity: sev, Check: check,
		Msg: fmt.Sprintf(format, args...),
	})
}
