package pisa

import (
	"fmt"
	"sort"
)

// MatchKind selects the matching semantics of one key field (§2.1.1's MAT
// abstraction).
type MatchKind int

const (
	// Exact requires equality.
	Exact MatchKind = iota
	// Ternary matches (value & mask) == (entry & mask); ties broken by
	// priority (TCAM semantics).
	Ternary
	// LPM is longest-prefix match on a 32-bit value.
	LPM
)

// Key is one match field of a table.
type Key struct {
	Field FieldID
	Kind  MatchKind
}

// PrimOp is one VLIW action primitive.
type PrimOp int

const (
	// OpSet writes Src into Dst.
	OpSet PrimOp = iota
	// OpAdd adds Src to Dst.
	OpAdd
	// OpSub subtracts Src from Dst.
	OpSub
	// OpAnd bitwise-ands Src into Dst.
	OpAnd
	// OpShiftRight shifts Dst right by Src (arithmetic).
	OpShiftRight
	// OpMin / OpMax clamp Dst against Src.
	OpMin
	OpMax
)

// ActionOp is one primitive in a VLIW action word: Dst op= Src, where Src is
// either a PHV field or an immediate.
type ActionOp struct {
	Op     PrimOp
	Dst    FieldID
	Src    FieldID
	Imm    int32
	UseImm bool
}

// MaxVLIWOps mirrors Tofino's per-stage action budget (§2.1.1: "Barefoot's
// Tofino chip only executes 12 operations per stage").
const MaxVLIWOps = 12

// VLIWAction is a bounded bundle of primitives executed in one stage.
type VLIWAction struct {
	Name string
	Ops  []ActionOp
}

// Apply executes the action word on a PHV.
//
// hotpath: zero-alloc
func (a *VLIWAction) Apply(phv *PHV) {
	for i := range a.Ops {
		op := &a.Ops[i]
		src := op.Imm
		if !op.UseImm {
			src = phv.Get(op.Src)
		}
		cur := phv.Get(op.Dst)
		switch op.Op {
		case OpSet:
			cur = src
		case OpAdd:
			cur += src
		case OpSub:
			cur -= src
		case OpAnd:
			cur &= src
		case OpShiftRight:
			cur >>= uint(src & 31)
		case OpMin:
			if src < cur {
				cur = src
			}
		case OpMax:
			if src > cur {
				cur = src
			}
		}
		phv.Set(op.Dst, cur)
	}
}

// Entry is one table rule.
type Entry struct {
	// Values per key field; for Ternary, Masks apply; for LPM, PrefixLen
	// gives the prefix of the (single) LPM key.
	Values    []int32
	Masks     []int32
	PrefixLen int
	Priority  int
	Action    *VLIWAction
}

// Table is a match-action table.
type Table struct {
	Name       string
	Keys       []Key
	MaxEntries int
	Default    *VLIWAction

	entries []*Entry
	// lpm records, once, that some key is longest-prefix: Lookup then has to
	// scan every entry for the longest match instead of stopping at the
	// first (highest-priority) hit.
	lpm bool
}

// NewTable builds an empty table.
func NewTable(name string, keys []Key, maxEntries int) *Table {
	t := &Table{Name: name, Keys: keys, MaxEntries: maxEntries}
	for _, k := range keys {
		t.lpm = t.lpm || k.Kind == LPM
	}
	return t
}

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Insert installs a rule; it fails when the table is full or the entry is
// malformed. Entries are kept sorted by descending priority.
func (t *Table) Insert(e *Entry) error {
	if t.MaxEntries > 0 && len(t.entries) >= t.MaxEntries {
		return fmt.Errorf("pisa: table %q full (%d entries)", t.Name, t.MaxEntries)
	}
	if len(e.Values) != len(t.Keys) {
		return fmt.Errorf("pisa: table %q entry has %d values for %d keys", t.Name, len(e.Values), len(t.Keys))
	}
	for i, k := range t.Keys {
		if k.Kind == Ternary && (e.Masks == nil || len(e.Masks) != len(t.Keys)) {
			return fmt.Errorf("pisa: table %q ternary key %d needs masks", t.Name, i)
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
	return nil
}

// Clear removes all entries.
func (t *Table) Clear() { t.entries = nil }

// Lookup matches the PHV, applies the winning (or default) action, and
// reports whether an installed entry hit.
//
// hotpath: zero-alloc
func (t *Table) Lookup(phv *PHV) bool {
	var best *Entry
	bestPrefix := -1
	for _, e := range t.entries {
		if !t.matches(e, phv) {
			continue
		}
		if t.lpm {
			if e.PrefixLen > bestPrefix {
				best, bestPrefix = e, e.PrefixLen
			}
			continue
		}
		best = e
		break // sorted by priority
	}
	if best == nil {
		if t.Default != nil {
			t.Default.Apply(phv)
		}
		return false
	}
	if best.Action != nil {
		best.Action.Apply(phv)
	}
	return true
}

func (t *Table) matches(e *Entry, phv *PHV) bool {
	for i, k := range t.Keys {
		v := phv.Get(k.Field)
		switch k.Kind {
		case Exact:
			if v != e.Values[i] {
				return false
			}
		case Ternary:
			if v&e.Masks[i] != e.Values[i]&e.Masks[i] {
				return false
			}
		case LPM:
			if e.PrefixLen < 0 || e.PrefixLen > 32 {
				return false
			}
			var mask int32
			if e.PrefixLen > 0 {
				mask = int32(int64(-1) << uint(32-e.PrefixLen))
			}
			if v&mask != e.Values[i]&mask {
				return false
			}
		}
	}
	return true
}

// RegisterArray is a stateful data-plane memory (§3.1: "stateful elements
// (i.e., registers) of the switch-processing pipeline to aggregate features
// across packets and across flows").
type RegisterArray struct {
	Name string
	vals []int32
}

// NewRegisterArray allocates size registers.
func NewRegisterArray(name string, size int) *RegisterArray {
	return &RegisterArray{Name: name, vals: make([]int32, size)}
}

// Size returns the array length.
func (r *RegisterArray) Size() int { return len(r.vals) }

// Slot reduces a hash to its register index (indexes wrap like hardware hash
// indices). The reduction stays in uint32: int(idx) overflows to a negative
// value for idx >= 2^31 on 32-bit platforms, and a negative modulus panics.
// A caller that touches several same-sized arrays for one key reduces it
// once and uses ReadSlot/WriteSlot.
func (r *RegisterArray) Slot(idx uint32) uint32 { return idx % uint32(len(r.vals)) }

// ReadSlot returns the register at slot, which must come from Slot on an
// array of this size.
func (r *RegisterArray) ReadSlot(slot uint32) int32 { return r.vals[slot] }

// WriteSlot stores a value at slot.
func (r *RegisterArray) WriteSlot(slot uint32, v int32) { r.vals[slot] = v }

// Read returns the value at idx, wrapped into the array.
func (r *RegisterArray) Read(idx uint32) int32 { return r.vals[r.Slot(idx)] }

// Write stores a value at idx, wrapped into the array.
func (r *RegisterArray) Write(idx uint32, v int32) { r.vals[r.Slot(idx)] = v }

// Add atomically accumulates into idx and returns the new value — the
// read-modify-write register action used for feature accumulation.
func (r *RegisterArray) Add(idx uint32, delta int32) int32 {
	i := r.Slot(idx)
	r.vals[i] += delta
	return r.vals[i]
}

// Reset zeroes the array.
func (r *RegisterArray) Reset() {
	for i := range r.vals {
		r.vals[i] = 0
	}
}
