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
)

// Key is one match field of a table.
type Key struct {
	Field FieldID
	Kind  MatchKind
}

// ActionOp is one primitive in a VLIW action word: it stores the immediate
// Imm into the PHV field Dst.
type ActionOp struct {
	Dst FieldID
	Imm int32
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
	for _, op := range a.Ops {
		phv.Set(op.Dst, op.Imm)
	}
}

// Entry is one table rule.
type Entry struct {
	// Values per key field; for Ternary, Masks apply.
	Values   []int32
	Masks    []int32
	Priority int
	Action   *VLIWAction
}

// Table is a match-action table. Insert compiles each entry into a masked
// row, the way a TCAM holds it: every key, whatever its kind, becomes one
// (mask, want) pair, and the rows are kept in match order. Lookup is then one
// loop with no per-kind dispatch: the first row where every key satisfies
// phv[field] & mask == want wins.
type Table struct {
	Name       string
	Keys       []Key
	MaxEntries int
	Default    *VLIWAction

	rows []row
}

// row is one installed entry, compiled. It holds copies of the entry's
// values and masks, so editing the Entry after Insert changes nothing.
type row struct {
	keys   []maskedKey
	action *VLIWAction
	// priority orders the rows: highest first, ties in insertion order.
	priority int
}

// maskedKey is one key of a row: it matches when phv[field] & mask == want.
// The mask is all ones for Exact and the entry's mask for Ternary; want is
// the entry's value under the mask.
type maskedKey struct {
	field      FieldID
	mask, want int32
}

// NewTable builds an empty table.
func NewTable(name string, keys []Key, maxEntries int) *Table {
	return &Table{Name: name, Keys: keys, MaxEntries: maxEntries}
}

// Insert compiles a rule into the table. It fails when the table is full or
// the entry is one the table cannot honour: a value count other than the key
// count, a ternary key without masks, or an action longer than MaxVLIWOps.
// Rows are kept in match order: by descending priority, ties in insertion
// order.
func (t *Table) Insert(e *Entry) error {
	if t.MaxEntries > 0 && len(t.rows) >= t.MaxEntries {
		return fmt.Errorf("pisa: table %q full (%d entries)", t.Name, t.MaxEntries)
	}
	if len(e.Values) != len(t.Keys) {
		return fmt.Errorf("pisa: table %q entry has %d values for %d keys", t.Name, len(e.Values), len(t.Keys))
	}
	if e.Action != nil && len(e.Action.Ops) > MaxVLIWOps {
		return fmt.Errorf("pisa: table %q entry action %q has %d ops, over the %d-op VLIW budget",
			t.Name, e.Action.Name, len(e.Action.Ops), MaxVLIWOps)
	}
	r := row{keys: make([]maskedKey, len(t.Keys)), action: e.Action, priority: e.Priority}
	for i, k := range t.Keys {
		mask := int32(-1)
		if k.Kind == Ternary {
			if len(e.Masks) != len(t.Keys) {
				return fmt.Errorf("pisa: table %q ternary key %d needs masks", t.Name, i)
			}
			mask = e.Masks[i]
		}
		r.keys[i] = maskedKey{field: k.Field, mask: mask, want: e.Values[i] & mask}
	}
	t.rows = append(t.rows, r)
	sort.SliceStable(t.rows, func(i, j int) bool { return t.rows[i].priority > t.rows[j].priority })
	return nil
}

// Lookup matches the PHV, applies the winning (or default) action, and
// reports whether an installed entry hit.
//
// hotpath: zero-alloc
func (t *Table) Lookup(phv *PHV) bool {
rows:
	for i := range t.rows {
		r := &t.rows[i]
		for _, k := range r.keys {
			if phv.Get(k.field)&k.mask != k.want {
				continue rows
			}
		}
		if r.action != nil {
			r.action.Apply(phv)
		}
		return true
	}
	if t.Default != nil {
		t.Default.Apply(phv)
	}
	return false
}

// RegisterArray is a stateful data-plane memory (§3.1: "stateful elements
// (i.e., registers) of the switch-processing pipeline to aggregate features
// across packets and across flows").
type RegisterArray struct {
	vals []int32
	mod  FastMod // reduces an index modulo len(vals)
}

// NewRegisterArray allocates size registers.
func NewRegisterArray(size int) *RegisterArray {
	return &RegisterArray{vals: make([]int32, size), mod: NewFastMod(uint32(size))}
}

// Slot reduces a hash to its register index, idx modulo the array length
// (indexes wrap like hardware hash indices), by multiplication: no divide per
// packet. The reduction stays in uint32, so an idx >= 2^31 cannot go negative
// on a 32-bit platform. A caller that touches several same-sized arrays for
// one key reduces it once and uses ReadSlot/WriteSlot.
func (r *RegisterArray) Slot(idx uint32) uint32 { return r.mod.Mod(idx) }

// ReadSlot returns the register at slot, which must come from Slot on an
// array of this size.
func (r *RegisterArray) ReadSlot(slot uint32) int32 { return r.vals[slot] }

// WriteSlot stores a value at slot.
func (r *RegisterArray) WriteSlot(slot uint32, v int32) { r.vals[slot] = v }
