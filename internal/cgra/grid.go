// Package cgra models Taurus's MapReduce block (§4): a spatial SIMD fabric
// of Compute Units (CUs — lanes x stages of fixed-point FUs with pipeline
// registers) and Memory Units (MUs — banked SRAM holding weights and
// activation tables) on a static, pipelined interconnect at 1 GHz.
//
// It holds the grid specification (GridSpec), the Placement of a MapReduce
// graph's nodes onto units that internal/compiler produces and
// Placement.Validate checks against the graph, and the timing model of a
// placed graph (Timing): pipeline latency in cycles and the initiation
// interval (II) that determines the fraction of line rate sustained (§4
// "Target-Independent Optimizations": unrolling trades area for a known
// fraction of line rate). It computes no packet values: the graph's
// reference semantics are internal/mapreduce's, and the device runs the
// compiled tape of internal/sched.
package cgra

import (
	"fmt"

	"taurus/internal/fixed"
)

// Timing constants calibrated to §5.1.3: "The minimum latency for a 16-lane
// CU to perform a MapReduce is five cycles: one cycle for map and four
// cycles for reduce... Taurus takes roughly five cycles for each data
// movement". With units placed a couple of hops from the PHV interface,
// HopBase+distance reproduces the inner-product (23 ns) and ReLU (22 ns)
// rows of Table 6.
const (
	// PHVInCycles is the cost of presenting the dense feature PHV to the
	// fabric (Figure 7's input interface).
	PHVInCycles = 4
	// PHVOutCycles is the cost of merging results back into the PHV.
	PHVOutCycles = 4
	// HopBase is the fixed router/serialisation cost of any inter-unit
	// transfer.
	HopBase = 3
	// CyclesPerHop is the per-Manhattan-hop cost on the static interconnect.
	CyclesPerHop = 1
	// MUAccessCycles is a banked SRAM read (§4: "single-cycle accesses"
	// plus bank arbitration).
	MUAccessCycles = 2
	// MUBanks is the number of independent SRAM banks per MU (§5.1.1); an
	// MU serves up to MUBanks lookups per cycle.
	MUBanks = 16
)

// Coord is a grid position. The PHV interface sits just outside column 0
// (Figure 7); larger columns are deeper into the fabric.
type Coord struct {
	Row, Col int
}

// Manhattan returns the hop distance between two coordinates.
func (c Coord) Manhattan(o Coord) int {
	dr, dc := c.Row-o.Row, c.Col-o.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr + dc
}

// GridSpec describes a MapReduce block configuration (§5.1.1's
// design-space axes).
type GridSpec struct {
	Rows, Cols    int
	Lanes, Stages int
	// CUMURatio is the number of CUs per MU in the checkerboard (3 in the
	// final ASIC).
	CUMURatio int
	Precision fixed.Precision
}

// DefaultGrid returns the final ASIC configuration (§5.1.1): 12x10 units,
// 3:1 CU:MU, 16-lane 4-stage CUs, 8-bit datapath.
func DefaultGrid() GridSpec {
	return GridSpec{Rows: 12, Cols: 10, Lanes: 16, Stages: 4, CUMURatio: 3, Precision: fixed.Fix8}
}

// Validate checks the specification.
func (s GridSpec) Validate() error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("cgra: bad grid %dx%d", s.Rows, s.Cols)
	}
	if s.Lanes <= 0 || s.Stages <= 0 {
		return fmt.Errorf("cgra: bad CU %d lanes x %d stages", s.Lanes, s.Stages)
	}
	if s.CUMURatio <= 0 {
		return fmt.Errorf("cgra: bad CU:MU ratio %d", s.CUMURatio)
	}
	if !s.Precision.Valid() {
		return fmt.Errorf("cgra: bad precision %d", s.Precision)
	}
	return nil
}

// IsMU reports whether the unit at c is a memory unit: every
// (CUMURatio+1)-th unit in row-major order, interleaving MUs with CUs in a
// checkerboard-like pattern (Figure 7).
func (s GridSpec) IsMU(c Coord) bool {
	idx := c.Row*s.Cols + c.Col
	return idx%(s.CUMURatio+1) == s.CUMURatio
}

// unit is the row-major index of an on-grid position.
func (s GridSpec) unit(c Coord) int { return c.Row*s.Cols + c.Col }

// CUCount returns the number of compute units in the grid.
func (s GridSpec) CUCount() int {
	n := 0
	for r := 0; r < s.Rows; r++ {
		for c := 0; c < s.Cols; c++ {
			if !s.IsMU(Coord{r, c}) {
				n++
			}
		}
	}
	return n
}

// MUCount returns the number of memory units in the grid.
func (s GridSpec) MUCount() int { return s.Rows*s.Cols - s.CUCount() }

// InputPort returns the PHV entry position (left edge, middle row).
func (s GridSpec) InputPort() Coord { return Coord{Row: s.Rows / 2, Col: -1} }

// OutputPort returns the PHV exit position (right edge, middle row).
func (s GridSpec) OutputPort() Coord { return Coord{Row: s.Rows / 2, Col: s.Cols} }

// LinkCycles returns the transfer cost between two positions.
func LinkCycles(a, b Coord) int { return HopBase + CyclesPerHop*a.Manhattan(b) }
