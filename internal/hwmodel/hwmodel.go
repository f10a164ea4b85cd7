// Package hwmodel is the analytic area/power model standing in for the
// paper's ASIC synthesis flow (FreePDK15 + CACTI 7.0, §5.1.1). All anchor
// constants are the paper's published numbers; chip-level results (Table 5,
// Figures 9 and 10, §5.1.4) are derived from these anchors plus unit counts
// computed by the real compiler.
package hwmodel

import (
	"fmt"

	"taurus/internal/fixed"
)

// Paper anchor constants (§5.1.1, Table 4, Table 5 and footnote 5).
const (
	// ClockGHz is the fabric clock: §4 "guarantee a 1 GHz clock frequency".
	ClockGHz = 1.0

	// FUAreaFix8UM2 is the per-FU area at the target design point
	// (16 lanes, 4 stages), Table 4.
	FUAreaFix8UM2 = 670.0
	// FUPowerFix8UW is the per-FU power at the target design point, Table 4.
	FUPowerFix8UW = 456.0

	// CUAreaMM2 is the full 16x4 fix8 CU including routing (§5.1.1:
	// "0.044 mm² (680 µm² per FU, on average)").
	CUAreaMM2 = 0.044
	// MUAreaMM2 is a memory unit (16 banks x 1024 entries) including
	// routing (§5.1.1).
	MUAreaMM2 = 0.029

	// MUBanks and MUEntries give each MU's capacity: 16 banks x 1024
	// 8-bit entries (§5.1.1).
	MUBanks   = 16
	MUEntries = 1024

	// GridRows x GridCols units with CUMURatio CUs per MU: the final ASIC
	// provisions "a 12 x 10 grid with a 3:1 ratio of CUs to MUs, taking
	// 4.8 mm²".
	GridRows  = 12
	GridCols  = 10
	CUMURatio = 3

	// ChipAreaMM2 and ChipPowerW describe the host switch ASIC: a 500 mm²
	// chip with 4 reconfigurable pipelines drawing ~270 W (Table 5 caption).
	ChipAreaMM2 = 500.0
	ChipPowerW  = 270.0
	Pipelines   = 4

	// MATsPerPipeline and MATAreaFraction: "a switch with four
	// reconfigurable pipelines having 32 MATs each, 50% of the chip area is
	// taken up by the MATs" (§5.1.1).
	MATsPerPipeline = 32
	MATAreaFraction = 0.5
)

// MATAreaMM2 returns the area of a single MAT stage under the 50%-of-chip
// accounting (≈1.95 mm²).
func MATAreaMM2() float64 {
	return ChipAreaMM2 * MATAreaFraction / float64(Pipelines*MATsPerPipeline)
}

// precisionAreaScale returns the Table 4 area ratio relative to fix8.
func precisionAreaScale(p fixed.Precision) float64 {
	switch p {
	case fixed.Fix8:
		return 1
	case fixed.Fix16:
		return 1338.0 / 670.0
	case fixed.Fix32:
		return 2949.0 / 670.0
	default:
		panic(fmt.Sprintf("hwmodel: unsupported precision %v", p))
	}
}

// precisionPowerScale returns the Table 4 power ratio relative to fix8.
func precisionPowerScale(p fixed.Precision) float64 {
	switch p {
	case fixed.Fix8:
		return 1
	case fixed.Fix16:
		return 887.0 / 456.0
	case fixed.Fix32:
		return 2341.0 / 456.0
	default:
		panic(fmt.Sprintf("hwmodel: unsupported precision %v", p))
	}
}

// FUArea returns per-FU datapath area (µm²) by precision (Table 4).
func FUArea(p fixed.Precision) float64 { return FUAreaFix8UM2 * precisionAreaScale(p) }

// FUPower returns per-FU power (µW, 10% switching) by precision (Table 4).
func FUPower(p fixed.Precision) float64 { return FUPowerFix8UW * precisionPowerScale(p) }

// AreaPerFU models Figure 9a: amortised per-FU area (µm², including control
// and routing) for a CU with the given lane and stage counts. Control logic
// is shared across lanes (SIMD's fundamental win over VLIW, §2.1.1), so
// per-FU overhead shrinks as lanes grow; deeper pipelines amortise
// sequencing logic slightly. Calibrated so the 16-lane/4-stage fix8 point
// averages ≈680 µm² (§5.1.1).
func AreaPerFU(lanes, stages int, p fixed.Precision) float64 {
	if lanes <= 0 || stages <= 0 {
		panic(fmt.Sprintf("hwmodel: bad CU config %dx%d", lanes, stages))
	}
	const (
		fuBase    = 450.0  // datapath share at fix8
		ctrlLane  = 2880.0 // control/crossbar amortised per lane
		ctrlStage = 200.0  // sequencing amortised per stage
	)
	raw := fuBase + ctrlLane/float64(lanes) + ctrlStage/float64(stages)
	return raw * precisionAreaScale(p)
}

// PowerPerFU models Figure 9b (µW at 10% switching); same amortisation
// structure as AreaPerFU, calibrated to the Table 4 anchor.
func PowerPerFU(lanes, stages int, p fixed.Precision) float64 {
	if lanes <= 0 || stages <= 0 {
		panic(fmt.Sprintf("hwmodel: bad CU config %dx%d", lanes, stages))
	}
	const (
		fuBase    = 294.0
		ctrlLane  = 2000.0
		ctrlStage = 150.0
	)
	raw := fuBase + ctrlLane/float64(lanes) + ctrlStage/float64(stages)
	return raw * precisionPowerScale(p)
}

// CUArea returns total CU area in mm² for a lane/stage configuration.
func CUArea(lanes, stages int, p fixed.Precision) float64 {
	return AreaPerFU(lanes, stages, p) * float64(lanes*stages) * 1e-6
}

// CUPower returns total CU power in mW.
func CUPower(lanes, stages int, p fixed.Precision) float64 {
	return PowerPerFU(lanes, stages, p) * float64(lanes*stages) * 1e-3
}

// MUPowerMW is the power of one active memory unit in mW (SRAM banks at
// ~10% activity; CACTI-style estimate — the paper does not publish an MU
// power anchor).
const MUPowerMW = 3.0

// GridCUs returns the number of CUs in the final grid (90 of 120 units).
func GridCUs() int {
	total := GridRows * GridCols
	return total * CUMURatio / (CUMURatio + 1)
}

// GridMUs returns the number of MUs in the final grid (30 of 120 units).
func GridMUs() int { return GridRows*GridCols - GridCUs() }

// Usage is a resource bill for a compiled design (or the full grid).
type Usage struct {
	CUs, MUs      int
	Lanes, Stages int
	Precision     fixed.Precision
}

// AreaMM2 returns the silicon area of the used units.
func (u Usage) AreaMM2() float64 {
	cu := CUArea(u.Lanes, u.Stages, u.Precision)
	return float64(u.CUs)*cu + float64(u.MUs)*MUAreaMM2
}

// PowerMW returns the power of the used units (unused units are
// clock-gated, §5.1.2 "unused CUs disabled").
func (u Usage) PowerMW() float64 {
	return float64(u.CUs)*CUPower(u.Lanes, u.Stages, u.Precision) + float64(u.MUs)*MUPowerMW
}

// AreaOverheadPct returns the chip-relative area overhead in percent when
// one such block is added to each of the chip's pipelines (Table 5's "+%"
// columns).
func (u Usage) AreaOverheadPct() float64 {
	return 100 * float64(Pipelines) * u.AreaMM2() / ChipAreaMM2
}

// PowerOverheadPct returns the chip-relative power overhead in percent.
func (u Usage) PowerOverheadPct() float64 {
	return 100 * float64(Pipelines) * u.PowerMW() / 1000 / ChipPowerW
}

// FullGrid returns the resource bill of the complete 12x10 MapReduce block
// at the final design point.
func FullGrid() Usage {
	return Usage{CUs: GridCUs(), MUs: GridMUs(), Lanes: 16, Stages: 4, Precision: fixed.Fix8}
}

// IsoAreaMATs converts a block area into the equivalent number of MAT
// stages ("an iso-area design would lose 3 MATs per pipeline", §5.1.1).
func IsoAreaMATs(areaMM2 float64) float64 { return areaMM2 / MATAreaMM2() }

// ThroughputPPS converts an initiation interval into the block's sustained
// packet rate at the fabric clock: one packet enters every ii cycles. Feed
// it the list schedule's measured II (sched.Schedule.II, surfaced as
// core.Model.ScheduledII), which accounts for issue-capacity contention.
func ThroughputPPS(ii int) float64 {
	if ii <= 0 {
		return 0
	}
	return ClockGHz * 1e9 / float64(ii)
}

// MAT-only ML implementation costs (§5.1.4): MAT stages consumed by prior
// work mapping models onto match-action tables.
const (
	// N2NetMATsPerLayer: a binary-NN layer needs at least 12 MATs.
	N2NetMATsPerLayer = 12
	// IIsySVMMATs and IIsyKMeansMATs: the IIsy framework's table usage.
	IIsySVMMATs    = 8
	IIsyKMeansMATs = 2
)
