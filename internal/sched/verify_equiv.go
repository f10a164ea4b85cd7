package sched

import (
	"fmt"
	"math/bits"
	"sync"

	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// equiv is the semantic-equivalence analysis. Both sides of the translation
// are lowered into one hash-consed expression universe: a forward walk over
// the graph derives, per node and per lane, the expression the semantics
// define; a symbolic execution of the tape (slot 0 — bounds() proves the
// other slots address the same producers) derives the expression each arena
// cell holds, each instruction by its opcode's entry in ops — an operator's
// expression over its operands' lanes, a squared distance as sum(mul(d,d))
// over d = sub(aᵢ,bᵢ), a matvec as the sum(mul(wᵢ,aᵢ)) of each weight row,
// plus its bias, lane by lane, inside the unary and the requant/scale/table
// of its epilogue, stored in — or read from — the lanes of slot pair 0 when
// packed, which are slot 0's. The graph walk names its operators' kinds from
// tables of its own, not from emit's. Hash-consing makes equivalence a single
// integer compare per output lane, and because the expressions are interned
// structurally the check is exact: no instruction-order or copy-elimination
// freedom is lost, while only bit-exact-commutative operators (saturating
// add, mul, min, max) are canonicalised by kid order. Weight leaves are keyed
// by layout slot (the graph node whose slot of the image an offset lies in,
// via alias()), not by value, so a program stays equivalent across weight
// pushes.
type exprID = int32

// An expression's kind is the opcode whose rule builds it, its kids that
// rule's operands — a reduction's in lane order, so a first-wins tie break is
// positional — and a rescale's x the index of its multiplier or table in the
// image. The leaves take the last three Opcode values, which name no opcode.
const (
	eUndef Opcode = 1<<8 - 1 - iota
	eInput        // x = input node, y = lane
	eConst        // x = const node, y = lane within its storage
)

// exprNode is one interned expression. pc is the tape instruction that first
// created it, or -1 when the graph walk created it first — used to attribute
// a divergence to the instruction that computed the wrong subexpression.
type exprNode struct {
	kind   Opcode
	x, y   int32
	kidOff int32
	kidLen int32
	pc     int32
}

// interner hash-conses expressions into an open-addressing table keyed by
// (kind, x, y, kids). A general map with byte-slice keys spends the whole
// verification budget hashing 64-kid sum keys; mixing the fields directly
// keeps the ~1400-node DNN pass well under the 2 ms budget. Its slices are a
// pooled workspace's: ids are assigned in insertion order whatever the table
// looks like, so a reused table changes no id and no report.
type interner struct {
	nodes []exprNode
	kids  []exprID
	tab   []int32 // open-addressed: node id + 1, 0 = empty
	mask  uint32
	shift uint8 // 64 - log2(len(tab)): a two-kid key's slot is its hash's top bits
	pc    int32
}

// reset empties the interner for about `hint` interned expressions, reusing
// its storage where it is big enough: the table at load factor <= 1/2 so
// verifying a large tape never pays rehash growth.
func (it *interner) reset(hint int) {
	// Leaves bypass the table, so table residency runs well below hint; one
	// power of two above it keeps the load factor comfortable without paying
	// to zero a table that would sit mostly empty.
	size := 1 << 12
	for size < hint {
		size <<= 1
	}
	if cap(it.tab) < size {
		it.tab = make([]int32, size)
	}
	it.tab = it.tab[:size]
	clear(it.tab)
	it.mask, it.shift = uint32(size-1), uint8(64-bits.TrailingZeros(uint(size)))
	if cap(it.nodes) < hint+16 {
		it.nodes = make([]exprNode, 0, hint+16)
	}
	if cap(it.kids) < 2*hint+16 {
		it.kids = make([]exprID, 0, 2*hint+16)
	}
	it.nodes, it.kids, it.pc = it.nodes[:0], it.kids[:0], -1
}

// fresh appends a leaf guaranteed to be new — input/const leaves are interned
// exactly once by the graph walk (the tape side resolves them through the
// graph's lane arrays), and undef leaves are unique by design — so leaves
// skip the hash table entirely.
func (it *interner) fresh(kind Opcode, x, y int32) exprID {
	id := exprID(len(it.nodes))
	it.nodes = append(it.nodes, exprNode{kind: kind, x: x, y: y, kidOff: int32(len(it.kids)), pc: it.pc})
	return id
}

func mix(h, v uint32) uint32 { return (h ^ v) * 16777619 }

// fin avalanches the FNV-style running hash before masking: interned ids are
// small sequential integers, and without final mixing they cluster into probe
// chains that dominate the verification budget.
func fin(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x7feb352d
	h ^= h >> 15
	h *= 0x846ca68b
	h ^= h >> 16
	return h
}

// slot is where probing for a key starts. Two-kid keys — every map lane and
// every fused dot term, the bulk of the universe — pack both kids into one
// word, fold in the rest, and take the top bits of one multiply (Fibonacci
// hashing); any other key runs FNV-1a over its fields. binary, intern and
// grow all come through here, so a key always probes from the same slot.
func (it *interner) slot(kind Opcode, x, y int32, kids []exprID) uint32 {
	if len(kids) == 2 {
		return it.slot2(kind, x, y, kids[0], kids[1])
	}
	h := mix(uint32(2166136261), uint32(kind))
	h = mix(h, uint32(x))
	h = mix(h, uint32(y))
	for _, k := range kids {
		h = mix(h, uint32(k))
	}
	return fin(h) & it.mask
}

func (it *interner) slot2(kind Opcode, x, y int32, a, b exprID) uint32 {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	key ^= uint64(kind)<<58 ^ uint64(uint32(x))<<16 ^ uint64(uint32(y))<<40
	return uint32(key * 0x9e3779b97f4a7c15 >> it.shift)
}

func (it *interner) equal(id exprID, kind Opcode, x, y int32, kids []exprID) bool {
	n := &it.nodes[id]
	if n.kind != kind || n.x != x || n.y != y || int(n.kidLen) != len(kids) {
		return false
	}
	have := it.kids[n.kidOff : n.kidOff+n.kidLen]
	for i := range have {
		if have[i] != kids[i] {
			return false
		}
	}
	return true
}

func (it *interner) intern(kind Opcode, x, y int32, kids []exprID) exprID {
	slot := it.slot(kind, x, y, kids)
	for {
		e := it.tab[slot]
		if e == 0 {
			break
		}
		if it.equal(e-1, kind, x, y, kids) {
			return e - 1
		}
		slot = (slot + 1) & it.mask
	}
	id := exprID(len(it.nodes))
	off := int32(len(it.kids))
	it.kids = append(it.kids, kids...)
	it.nodes = append(it.nodes, exprNode{kind: kind, x: x, y: y, kidOff: off, kidLen: int32(len(kids)), pc: it.pc})
	it.tab[slot] = id + 1
	if uint32(len(it.nodes))*4 >= uint32(len(it.tab))*3 {
		it.grow()
	}
	return id
}

// grow doubles the table and rehashes every interned node.
func (it *interner) grow() {
	it.tab = make([]int32, len(it.tab)*2)
	it.mask, it.shift = uint32(len(it.tab)-1), it.shift-1
	for id := range it.nodes {
		n := &it.nodes[id]
		slot := it.slot(n.kind, n.x, n.y, it.kids[n.kidOff:n.kidOff+n.kidLen])
		for it.tab[slot] != 0 {
			slot = (slot + 1) & it.mask
		}
		it.tab[slot] = int32(id) + 1
	}
}

func (it *interner) kidsOf(id exprID) []exprID {
	n := &it.nodes[id]
	return it.kids[n.kidOff : n.kidOff+n.kidLen]
}

// binary interns a two-kid expression, sorting the kids when the operator is
// bit-exact commutative so `mul(a,b)` and `mul(b,a)` cons to the same id.
// Two-kid nodes are the bulk of the universe (every map lane, every fused dot
// term), so the probe loop is specialised: same slot as the general path, no
// kid-slice detour.
func (it *interner) binary(kind Opcode, a, b exprID) exprID {
	if kind == OpAdd || kind == OpMul || kind == OpMin || kind == OpMax {
		if b < a {
			a, b = b, a
		}
	}
	slot := it.slot2(kind, 0, 0, a, b)
	for {
		e := it.tab[slot]
		if e == 0 {
			break
		}
		n := &it.nodes[e-1]
		if n.kind == kind && n.x == 0 && n.y == 0 && n.kidLen == 2 &&
			it.kids[n.kidOff] == a && it.kids[n.kidOff+1] == b {
			return e - 1
		}
		slot = (slot + 1) & it.mask
	}
	id := exprID(len(it.nodes))
	off := int32(len(it.kids))
	it.kids = append(it.kids, a, b)
	it.nodes = append(it.nodes, exprNode{kind: kind, kidOff: off, kidLen: 2, pc: it.pc})
	it.tab[slot] = id + 1
	if uint32(len(it.nodes))*4 >= uint32(len(it.tab))*3 {
		it.grow()
	}
	return id
}

// undefAt mints an expression unequal to everything else, for reads of cells
// no instruction defined. bounds() already reported the read; the unique
// leaf just keeps equiv from cascading false matches.
func (it *interner) undefAt(pc int, salt int) exprID {
	return it.fresh(eUndef, int32(pc), int32(salt))
}

// diverge descends a mismatching pair to the first structurally differing
// subexpression, the most precise thing to show in the finding.
func (it *interner) diverge(want, got exprID) (exprID, exprID) {
	for {
		if want == got {
			return want, got
		}
		w, g := &it.nodes[want], &it.nodes[got]
		if w.kind != g.kind || w.x != g.x || w.y != g.y || w.kidLen != g.kidLen {
			return want, got
		}
		wk, gk := it.kidsOf(want), it.kidsOf(got)
		next := -1
		for i := range wk {
			if wk[i] != gk[i] {
				next = i
				break
			}
		}
		if next < 0 {
			return want, got // same key, distinct ids: cannot happen, stop safely
		}
		want, got = wk[next], gk[next]
	}
}

// render formats an expression to bounded depth for findings.
func (it *interner) render(id exprID, depth int) string {
	n := &it.nodes[id]
	switch n.kind {
	case eUndef:
		return fmt.Sprintf("undef@pc%d", n.x)
	case eInput:
		return fmt.Sprintf("in%d[%d]", n.x, n.y)
	case eConst:
		return fmt.Sprintf("w%d[%d]", n.x, n.y)
	}
	name := n.kind.String()
	if ops[n.kind].class == classRescale {
		name = fmt.Sprintf("%s#%d", name, n.x)
	}
	if depth <= 0 {
		return name + "(…)"
	}
	kids := it.kidsOf(id)
	switch {
	case len(kids) == 0:
		return name + "()"
	case len(kids) <= 3:
		s := name + "("
		for i, k := range kids {
			if i > 0 {
				s += ", "
			}
			s += it.render(k, depth-1)
		}
		return s + ")"
	default:
		return fmt.Sprintf("%s(%s, …×%d)", name, it.render(kids[0], depth-1), len(kids))
	}
}

// payloadSlot is the multiplier or table index of ins's rescale as an
// expression key, or a pc-unique sentinel when the index names no payload
// (alias() reported).
func (c *checker) payloadSlot(ins *Instr, pc int) int32 {
	if _, _, ok := c.payloadOf(ins); ok {
		return int32(ins.Slot)
	}
	return int32(-1000 - pc)
}

// workspace is one Verify's scratch: the interner's storage, every graph
// node's lanes carved out of one backing array, the tape side's arena cells
// and the bounds analysis' writer map. Workspaces are pooled, so nothing a
// Report holds may point into one — findings carry rendered strings only.
type workspace struct {
	it      interner
	buf     []exprID   // the graph-side lanes of every node, back to back
	lanes   [][]exprID // per node: its carve of buf
	cells   []exprID
	scratch []exprID
	writer  []int32
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// grown returns (*buf)[:n], reallocating *buf when it is too small. The
// contents are stale: callers overwrite every element.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// carve gives every node of g a window of Width lanes in one backing array,
// in node order. Nothing is cleared: the graph walk writes every lane of a
// window before any node reads it.
func (ws *workspace) carve(g *mr.Graph) [][]exprID {
	need := 0
	for _, n := range g.Nodes {
		need += n.Width
	}
	buf, lanes := grown(&ws.buf, need), grown(&ws.lanes, len(g.Nodes))
	for i, n := range g.Nodes {
		lanes[i], buf = buf[:n.Width:n.Width], buf[n.Width:]
	}
	return lanes
}

func (c *checker) equiv() {
	// Size hint: the universe is dominated by one expression per graph lane
	// (tape-side fused forms re-cons onto the same ids), plus a handful of
	// accumulators per instruction.
	ws := c.ws
	hint := len(c.code) + 64
	for _, n := range c.g.Nodes {
		hint += n.Width
	}
	it := &ws.it
	it.reset(hint)

	// Graph side: per-lane expressions for every node. Validate guarantees
	// arguments are built before use, so one forward pass suffices.
	glanes := ws.carve(c.g)
	scratch := ws.scratch[:0]
	defer func() { ws.scratch = scratch }()
	for i := range c.g.Nodes {
		n := c.g.Nodes[i]
		lanes := glanes[i]
		arg := func(j int) []exprID {
			if j < len(n.Args) {
				return glanes[n.Args[j]]
			}
			return nil
		}
		pick := func(ls []exprID, l int) exprID {
			switch {
			case len(ls) == 1:
				return ls[0] // width-1 broadcast, as mapreduce defines it
			case l < len(ls):
				return ls[l]
			default:
				return it.undefAt(-1, int(n.ID)*1024+l)
			}
		}
		switch n.Kind {
		case mr.KInput:
			for l := range lanes {
				lanes[l] = it.fresh(eInput, int32(n.ID), int32(l))
			}
		case mr.KConst:
			for l := range lanes {
				lanes[l] = it.fresh(eConst, int32(n.ID), int32(l))
			}
		case mr.KMap:
			kind := [...]Opcode{mr.MAdd: OpAdd, mr.MSub: OpSub, mr.MMul: OpMul, mr.MMin: OpMin, mr.MMax: OpMax}[n.Map]
			a, b := arg(0), arg(1)
			for l := range lanes {
				lanes[l] = it.binary(kind, pick(a, l), pick(b, l))
			}
		case mr.KUnary:
			kind := [...]Opcode{mr.UReLU: OpRelu, mr.ULeakyReLU: OpLeaky, mr.UNeg: OpNeg, mr.UAbs: OpAbs}[n.Unary]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, 0, 0, []exprID{pick(a, l)})
			}
		case mr.KReduce:
			kind := [...]Opcode{mr.RAdd: OpSum, mr.RMin: OpRedMin, mr.RMax: OpRedMax, mr.RArgMin: OpArgMin, mr.RArgMax: OpArgMax}[n.Reduce]
			lanes[0] = it.intern(kind, 0, 0, arg(0))
		case mr.KConcat:
			scratch = scratch[:0]
			for j := range n.Args {
				scratch = append(scratch, arg(j)...)
			}
			copy(lanes, scratch)
			for l := len(scratch); l < len(lanes); l++ {
				lanes[l] = it.undefAt(-1, int(n.ID)*1024+l)
			}
		case mr.KSlice:
			a := arg(0)
			for l := range lanes {
				lanes[l] = pick(a, n.Start+l)
			}
			if len(a) == 1 && n.Width == 1 && n.Start > 0 {
				lanes[0] = it.undefAt(-1, int(n.ID)*1024)
			}
		case mr.KRequant, mr.KScale, mr.KLUT:
			kind := [...]Opcode{mr.KRequant: OpRequant, mr.KScale: OpScale, mr.KLUT: OpLUT}[n.Kind]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, int32(c.layout[i]), 0, []exprID{pick(a, l)})
			}
		}
	}

	// Tape side: symbolic execution over slot 0 of the arena, and over slot
	// pair 0 of the packed lanes, whose low halves are slot 0's (cells from
	// index arena on, as in c.writer).
	cells := grown(&ws.cells, c.arena+c.packed)
	for i := range cells {
		cells[i] = -1
	}
	for i := range c.g.Inputs {
		o := c.t.ins[i]
		if o.Const || o.Packed || o.Off < 0 || o.Off+o.W > c.arena {
			continue
		}
		in := glanes[c.g.Inputs[i]]
		for l := 0; l < o.W && l < len(in); l++ {
			cells[o.Off+l] = in[l]
		}
	}

	// wlanes resolves a constant-backed operand to the graph-side lanes of
	// the const node whose slot it lies in, from the operand's first lane on
	// (nil when it lies in none, in which case every read is undef — alias()
	// already reported it). Hoisting the resolution per operand keeps the
	// search out of per-lane loops.
	wlanes := func(o Operand) []exprID {
		if id, at := c.constNode(o); id >= 0 {
			return glanes[id][o.Off-at:]
		}
		return nil
	}

	// cell is where lane l of slot 0 of an arena-backed window lies among the
	// cells, -1 outside the window's own space (bounds() reported).
	cell := func(packed bool, off, l int) int {
		lo, hi := 0, c.arena
		if packed {
			lo, hi = c.arena, c.arena+c.packed
		}
		if idx := lo + off + l; off >= 0 && idx < hi {
			return idx
		}
		return -1
	}

	for pc := range c.code {
		ins := &c.code[pc]
		it.pc = int32(pc)
		aW, bW := wlanes(ins.A), wlanes(ins.B)
		read := func(o Operand, w []exprID, l int) exprID {
			if o.Const {
				if l < len(w) {
					return w[l]
				}
				return it.undefAt(pc, l)
			}
			if idx := cell(o.Packed, o.Off, l); idx >= 0 && cells[idx] >= 0 {
				return cells[idx]
			}
			return it.undefAt(pc, o.Off+l)
		}
		bLane := func(l int) exprID {
			if ins.B.W == 1 {
				return read(ins.B, bW, 0)
			}
			return read(ins.B, bW, l)
		}
		write := func(l int, e exprID) {
			if idx := cell(ins.Packed, ins.Dst, l); idx >= 0 {
				cells[idx] = e
			}
		}

		op := ops[ins.Op]
		switch op.class {
		case classBinary:
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, it.binary(ins.Op, read(ins.A, aW, l), bLane(l)))
			}
		case classUnary, classRescale, classCopy:
			var slot int32
			if op.class == classRescale {
				slot = c.payloadSlot(ins, pc)
			}
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				e := read(ins.A, aW, l)
				if op.class != classCopy {
					e = it.intern(ins.Op, slot, 0, []exprID{e})
				}
				write(l, e)
			}
		case classReduce:
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				scratch = append(scratch, read(ins.A, aW, l))
			}
			write(0, it.intern(ins.Op, 0, 0, scratch))
		case classDist:
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				d := it.binary(OpSub, read(ins.A, aW, l), bLane(l))
				scratch = append(scratch, it.binary(OpMul, d, d))
			}
			write(0, it.intern(OpSum, 0, 0, scratch))
		case classMatVec:
			// Row by row, the graph's mul, sum and bias add, then what the
			// activation and the rescale or table the epilogue stands for
			// would have made of that lane. An epilogue opcode of any other
			// class (bounds() reported it) leaves the lane undefined.
			biased, ok := matVecBiased(ins)
			if !ok {
				break // bounds() reported; the lanes stay undefined
			}
			act, rescale := ops[ins.Act], ops[ins.Quant]
			unknown := (ins.Act != OpNone && act.class != classUnary) || (ins.Quant != OpNone && rescale.class != classRescale)
			slot := c.payloadSlot(ins, pc)
			for r := 0; r < ins.W; r++ {
				row := ins.Rows[r]
				rowW := wlanes(row)
				scratch = scratch[:0]
				for l := 0; l < ins.A.W; l++ {
					scratch = append(scratch, it.binary(OpMul, read(row, rowW, l), read(ins.A, aW, l)))
				}
				e := it.intern(OpSum, 0, 0, scratch)
				if biased {
					bias := ins.Rows[ins.W+r]
					e = it.binary(OpAdd, e, read(bias, wlanes(bias), 0))
				}
				if ins.Act != OpNone {
					e = it.intern(ins.Act, 0, 0, []exprID{e})
				}
				if ins.Quant != OpNone {
					e = it.intern(ins.Quant, slot, 0, []exprID{e})
				}
				if unknown {
					e = it.undefAt(pc, ins.Dst+r)
				}
				write(r, e)
			}
		}
	}
	it.pc = -1

	// Compare every declared output, lane by lane; report the first
	// diverging lane per output, attributed to the instruction that built
	// the first differing subexpression.
	for i, id := range c.g.Outputs {
		want := glanes[id]
		o := c.t.outs[i]
		for l := 0; l < len(want) && l < o.W; l++ {
			var got exprID = -1
			if o.Const {
				// Resolve through the graph-side lane table, exactly like a
				// tape-side const read: leaves are minted with fresh() and
				// never live in the intern table, so re-interning here would
				// create a distinct leaf and a false mismatch.
				if w := wlanes(o); l < len(w) {
					got = w[l]
				}
			} else if idx := cell(o.Packed, o.Off, l); idx >= 0 {
				got = cells[idx]
			}
			if got < 0 {
				continue // never computed: bounds() already reported
			}
			if got == want[l] {
				continue
			}
			dw, dg := it.diverge(want[l], got)
			pc := int(it.nodes[dg].pc)
			if pc < 0 && !o.Const {
				if idx := cell(o.Packed, o.Off, l); idx >= 0 && idx < len(c.writer) && c.writer[idx] >= 0 {
					pc = int(c.writer[idx]) // diverging expr predates the tape: blame the cell's writer
				}
			}
			c.finding(pc, id, graphcheck.SevError, CheckEquiv,
				"output %d lane %d computes %s, graph defines %s (diverges at %s vs %s)",
				i, l, it.render(got, 3), it.render(want[l], 3),
				it.render(dg, 2), it.render(dw, 2))
			break
		}
	}
}
