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
// cell holds, with fused instructions expanded into their documented
// RunBatch meaning — a dot is sum(mul(aᵢ,bᵢ)), a dot+bias wraps that sum in
// one more saturating add, a squared distance is sum(mul(d,d)) over
// d = sub(aᵢ,bᵢ), a matvec is one dot(+bias) per weight row, lane by lane,
// inside the unary and the requant/scale of its epilogue.
// Hash-consing makes equivalence a single integer compare per output lane,
// and because the expressions are interned structurally the check is exact: no instruction-order or copy-elimination freedom is lost,
// while only bit-exact-commutative operators (saturating add, mul, min, max)
// are canonicalised by kid order. Weight leaves are keyed by layout slot (the
// graph node whose slot of the image an offset lies in, via alias()), not by
// value, so a program stays equivalent across weight pushes.
type exprID = int32

const (
	eUndef uint8 = iota
	eInput       // x = input node, y = lane
	eConst       // x = const node, y = lane within its storage
	eAdd         // commutative
	eSub
	eMul // commutative
	eMin // commutative
	eMax // commutative
	eRelu
	eLeaky
	eNeg
	eAbs
	eSum  // kids in lane order
	eRMin // kids in lane order (first-wins tie break is positional)
	eRMax
	eArgMin
	eArgMax
	eRequant // x = payload slot (the multiplier's index in the image)
	eScale
	eLUT // x = payload slot (the table's index in the image)
)

var exprName = [...]string{
	eUndef: "undef", eInput: "in", eConst: "w",
	eAdd: "add", eSub: "sub", eMul: "mul", eMin: "min", eMax: "max",
	eRelu: "relu", eLeaky: "leaky", eNeg: "neg", eAbs: "abs",
	eSum: "sum", eRMin: "redmin", eRMax: "redmax", eArgMin: "argmin", eArgMax: "argmax",
	eRequant: "requant", eScale: "scale", eLUT: "lut",
}

// exprNode is one interned expression. pc is the tape instruction that first
// created it, or -1 when the graph walk created it first — used to attribute
// a divergence to the instruction that computed the wrong subexpression.
type exprNode struct {
	kind   uint8
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
func (it *interner) fresh(kind uint8, x, y int32) exprID {
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
func (it *interner) slot(kind uint8, x, y int32, kids []exprID) uint32 {
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

func (it *interner) slot2(kind uint8, x, y int32, a, b exprID) uint32 {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	key ^= uint64(kind)<<58 ^ uint64(uint32(x))<<16 ^ uint64(uint32(y))<<40
	return uint32(key * 0x9e3779b97f4a7c15 >> it.shift)
}

func (it *interner) equal(id exprID, kind uint8, x, y int32, kids []exprID) bool {
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

func (it *interner) intern(kind uint8, x, y int32, kids []exprID) exprID {
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
func (it *interner) binary(kind uint8, a, b exprID) exprID {
	if kind == eAdd || kind == eMul || kind == eMin || kind == eMax {
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
	name := "expr?"
	if int(n.kind) < len(exprName) {
		name = exprName[n.kind]
	}
	if n.kind == eRequant || n.kind == eScale || n.kind == eLUT {
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

// unaryExpr and rescaleExpr are the expression kinds of the opcodes an
// activation or a rescale — an instruction's own, or a matvec epilogue's — may
// be, eUndef for any other.
func unaryExpr(op Opcode) uint8 {
	if op < OpRelu || op > OpAbs {
		return eUndef
	}
	return [...]uint8{eRelu, eLeaky, eNeg, eAbs}[op-OpRelu]
}

func rescaleExpr(op Opcode) uint8 {
	switch op {
	case OpRequant:
		return eRequant
	case OpScale:
		return eScale
	}
	return eUndef
}

// payloadSlot is a multiplier or table index as an expression key, or a
// pc-unique sentinel when the index names no payload (alias() reported).
func payloadSlot(slot int, ok bool, pc int) int32 {
	if ok {
		return int32(slot)
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
			kind := [...]uint8{mr.MAdd: eAdd, mr.MSub: eSub, mr.MMul: eMul, mr.MMin: eMin, mr.MMax: eMax}[n.Map]
			a, b := arg(0), arg(1)
			for l := range lanes {
				lanes[l] = it.binary(kind, pick(a, l), pick(b, l))
			}
		case mr.KUnary:
			kind := [...]uint8{mr.UReLU: eRelu, mr.ULeakyReLU: eLeaky, mr.UNeg: eNeg, mr.UAbs: eAbs}[n.Unary]
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, 0, 0, []exprID{pick(a, l)})
			}
		case mr.KReduce:
			kind := [...]uint8{mr.RAdd: eSum, mr.RMin: eRMin, mr.RMax: eRMax, mr.RArgMin: eArgMin, mr.RArgMax: eArgMax}[n.Reduce]
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
		case mr.KRequant, mr.KScale:
			kind := eRequant
			if n.Kind == mr.KScale {
				kind = eScale
			}
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(kind, int32(c.layout[i]), 0, []exprID{pick(a, l)})
			}
		case mr.KLUT:
			a := arg(0)
			for l := range lanes {
				lanes[l] = it.intern(eLUT, int32(c.layout[i]), 0, []exprID{pick(a, l)})
			}
		}
	}

	// Tape side: symbolic execution over slot 0 of the arena.
	cells := grown(&ws.cells, c.arena)
	for i := range cells {
		cells[i] = -1
	}
	for i := range c.g.Inputs {
		o := c.t.ins[i]
		if o.Const || o.Off < 0 || o.Off+o.W > c.arena {
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

	for pc := range c.code {
		ins := &c.code[pc]
		it.pc = int32(pc)
		aW, bW, cW := wlanes(ins.A), wlanes(ins.B), wlanes(ins.C)
		read := func(o Operand, w []exprID, l int) exprID {
			if o.Const {
				if l < len(w) {
					return w[l]
				}
				return it.undefAt(pc, l)
			}
			if idx := o.Off + l; idx >= 0 && idx < c.arena && cells[idx] >= 0 {
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
			if idx := ins.Dst + l; idx >= 0 && idx < c.arena {
				cells[idx] = e
			}
		}

		switch ins.Op {
		case OpAdd, OpSub, OpMul, OpMin, OpMax:
			kind := [...]uint8{eAdd, eSub, eMul, eMin, eMax}[ins.Op-OpAdd]
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, it.binary(kind, read(ins.A, aW, l), bLane(l)))
			}
		case OpRelu, OpLeaky, OpNeg, OpAbs:
			kind := unaryExpr(ins.Op)
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, it.intern(kind, 0, 0, []exprID{read(ins.A, aW, l)}))
			}
		case OpSum, OpRedMin, OpRedMax, OpArgMin, OpArgMax:
			kind := [...]uint8{eSum, eRMin, eRMax, eArgMin, eArgMax}[ins.Op-OpSum]
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				scratch = append(scratch, read(ins.A, aW, l))
			}
			write(0, it.intern(kind, 0, 0, scratch))
		case OpRequant, OpScale:
			kind := rescaleExpr(ins.Op)
			slot := payloadSlot(ins.Slot, c.hasMult(ins), pc)
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, it.intern(kind, slot, 0, []exprID{read(ins.A, aW, l)}))
			}
		case OpLUT:
			slot := payloadSlot(ins.Slot, c.hasLUT(ins), pc)
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, it.intern(eLUT, slot, 0, []exprID{read(ins.A, aW, l)}))
			}
		case OpCopy:
			w := min(ins.W, ins.A.W)
			for l := 0; l < w; l++ {
				write(l, read(ins.A, aW, l))
			}
		case OpDot, OpDotAdd:
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				scratch = append(scratch, it.binary(eMul, read(ins.A, aW, l), bLane(l)))
			}
			e := it.intern(eSum, 0, 0, scratch)
			if ins.Op == OpDotAdd {
				e = it.binary(eAdd, e, read(ins.C, cW, 0))
			}
			write(0, e)
		case OpMatVec:
			// Row by row, the dot+bias an OpDotAdd would have been, then what
			// the OpRelu and the OpRequant the epilogue stands for would have
			// made of that lane. An epilogue opcode that is neither (bounds()
			// reported it) leaves the lane undefined.
			biased, ok := matVecBiased(ins)
			if !ok {
				break // bounds() reported; the lanes stay undefined
			}
			act, rescale := unaryExpr(ins.Act), rescaleExpr(ins.Quant)
			unknown := (ins.Act != OpNone && act == eUndef) || (ins.Quant != OpNone && rescale == eUndef)
			slot := payloadSlot(ins.Slot, c.hasMult(ins), pc)
			for r := 0; r < ins.W; r++ {
				row := ins.Rows[r]
				rowW := wlanes(row)
				scratch = scratch[:0]
				for l := 0; l < ins.A.W; l++ {
					scratch = append(scratch, it.binary(eMul, read(row, rowW, l), read(ins.A, aW, l)))
				}
				e := it.intern(eSum, 0, 0, scratch)
				if biased {
					bias := ins.Rows[ins.W+r]
					e = it.binary(eAdd, e, read(bias, wlanes(bias), 0))
				}
				if ins.Act != OpNone {
					e = it.intern(act, 0, 0, []exprID{e})
				}
				if ins.Quant != OpNone {
					e = it.intern(rescale, slot, 0, []exprID{e})
				}
				if unknown {
					e = it.undefAt(pc, ins.Dst+r)
				}
				write(r, e)
			}
		case OpSqDist:
			scratch = scratch[:0]
			for l := 0; l < ins.A.W; l++ {
				d := it.binary(eSub, read(ins.A, aW, l), bLane(l))
				scratch = append(scratch, it.binary(eMul, d, d))
			}
			write(0, it.intern(eSum, 0, 0, scratch))
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
			} else if idx := o.Off + l; idx >= 0 && idx < c.arena {
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
				if idx := o.Off + l; idx >= 0 && idx < len(c.writer) && c.writer[idx] >= 0 {
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
