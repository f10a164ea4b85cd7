// The interval transfer kernel: the per-lane [lo, hi] semantics of every
// datapath operation, kept apart from the walk that drives it.
//
// Every transfer returns the *raw* feasible interval of the mathematical
// result; it is the walk's job to apply the datapath's clamping discipline
// (clampFix32 for the silently saturating map/unary/reduce ops, the int8 clamp
// for a requant, the index clamp for a LUT) and to decide which clamps are
// findings. That split is deliberate: the raw interval is the overflow
// witness a finding reports.
package graphcheck

import (
	"taurus/internal/fixed"
	mr "taurus/internal/mapreduce"
)

// clampFix32 clamps iv to the Fix32 range and reports whether any feasible
// value lay outside it — i.e. whether the saturating datapath could clip.
func clampFix32(iv Interval) (Interval, bool) {
	clipped := iv.Lo < fix32.Lo || iv.Hi > fix32.Hi
	if iv.Lo < fix32.Lo {
		iv.Lo = fix32.Lo
	}
	if iv.Hi > fix32.Hi {
		iv.Hi = fix32.Hi
	}
	return iv, clipped
}

// mapTransfer returns the raw interval of `a op b` for one lane pair. The
// result is unclamped: map ops run through Fix32.Saturate at runtime, so a
// result outside the Fix32 range witnesses silent saturation.
func mapTransfer(op mr.MapOp, a, b Interval) Interval {
	switch op {
	case mr.MAdd:
		return Interval{a.Lo + b.Lo, a.Hi + b.Hi}
	case mr.MSub:
		return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
	case mr.MMul:
		// Endpoint products bound a monotone-by-parts bilinear map.
		p := [4]int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
		iv := point(p[0])
		for _, x := range p[1:] {
			iv = iv.union(point(x))
		}
		return iv
	case mr.MMin:
		return Interval{min64(a.Lo, b.Lo), min64(a.Hi, b.Hi)}
	case mr.MMax:
		return Interval{max64(a.Lo, b.Lo), max64(a.Hi, b.Hi)}
	}
	return fix32
}

// unaryTransfer returns the raw interval of `op a` for one lane. Endpoint
// evaluation is exact: every unary op is monotone (Abs by cases).
func unaryTransfer(op mr.UnaryOp, a Interval) Interval {
	switch op {
	case mr.UReLU:
		return Interval{max64(0, a.Lo), max64(0, a.Hi)}
	case mr.ULeakyReLU:
		return Interval{leaky(a.Lo), leaky(a.Hi)}
	case mr.UNeg:
		return Interval{-a.Hi, -a.Lo}
	case mr.UAbs:
		switch {
		case a.Lo >= 0:
			return a
		case a.Hi <= 0:
			return Interval{-a.Hi, -a.Lo}
		default:
			return Interval{0, max64(a.Hi, -a.Lo)}
		}
	}
	return fix32
}

// reduceTransfer returns the raw interval of `op lanes`. RAdd is the int64
// lane sum before its single final saturation, unclamped (summands are runtime
// int32 lanes, so the 64-bit sum is exact); the min/max folds cannot leave the
// lanes' hull; the argmin/argmax result is an index.
func reduceTransfer(op mr.ReduceOp, lanes []Interval) Interval {
	switch op {
	case mr.RAdd:
		var iv Interval
		for _, av := range lanes {
			iv.Lo += av.Lo
			iv.Hi += av.Hi
		}
		return iv
	case mr.RMin:
		iv := lanes[0]
		for _, av := range lanes[1:] {
			iv = Interval{min64(iv.Lo, av.Lo), min64(iv.Hi, av.Hi)}
		}
		return iv
	case mr.RMax:
		iv := lanes[0]
		for _, av := range lanes[1:] {
			iv = Interval{max64(iv.Lo, av.Lo), max64(iv.Hi, av.Hi)}
		}
		return iv
	case mr.RArgMin, mr.RArgMax:
		return Interval{0, int64(len(lanes) - 1)}
	}
	return fix32
}

// multTransfer returns the raw interval of m.Apply over acc — the rounded
// shift-multiply both KRequant and KScale run. Monotone nondecreasing in acc
// (M0 is non-negative), so endpoint evaluation is exact. The caller's acc
// must describe runtime int32 values so the 64-bit product cannot overflow.
func multTransfer(m fixed.Multiplier, acc Interval) Interval {
	return Interval{applyMult(m, acc.Lo), applyMult(m, acc.Hi)}
}

// requant8Transfer runs a KRequant's semantics: multTransfer then the int8
// clamp of ApplySat8. It returns the clamped output interval (a fully
// clipped lane pins to the boundary it clips against), the raw pre-clamp
// interval as the diagnostic witness, and whether *every* feasible value
// clips — a degenerate, miscalibrated multiplier.
func requant8Transfer(m fixed.Multiplier, acc Interval) (out, raw Interval, fullyClipped bool) {
	raw = multTransfer(m, acc)
	out = raw
	fullyClipped = out.Lo > int8Hi || out.Hi < int8Lo
	if out.Lo < int8Lo {
		out.Lo = int8Lo
	}
	if out.Hi > int8Hi {
		out.Hi = int8Hi
	}
	if out.Lo > out.Hi { // fully clipped: pinned to one boundary
		if raw.Hi < int8Lo {
			out = point(int8Lo)
		} else {
			out = point(int8Hi)
		}
	}
	return out, raw, fullyClipped
}

// scaleTransfer runs a KScale's semantics: multTransfer with int32
// truncation. Unlike the saturating datapath a feasible value outside
// the Fix32 range does not clip, it wraps — always corruption. On wrap the
// output widens to the full Fix32 range (the wrapped value can land
// anywhere); raw is the pre-truncation witness.
func scaleTransfer(m fixed.Multiplier, acc Interval) (out, raw Interval, wraps bool) {
	raw = multTransfer(m, acc)
	out = raw
	if out.Lo < fix32.Lo || out.Hi > fix32.Hi {
		return fix32, raw, true
	}
	return out, raw, false
}

// lutIndex runs a KLUT's index computation: the table multiplier followed by
// the index clamp into [-LUTSize/2, LUTSize/2-1]. A fully clamped index pins
// to the boundary it clips against; allOutside reports that *no* feasible
// index lands inside the table domain (the raw interval is the witness).
func lutIndex(l *mr.LUT, acc Interval) (idx, raw Interval, allOutside bool) {
	const idxLo, idxHi = -mr.LUTSize / 2, mr.LUTSize/2 - 1
	raw = multTransfer(l.Mult, acc)
	idx = raw
	allOutside = idx.Lo > idxHi || idx.Hi < idxLo
	if idx.Lo < idxLo {
		idx.Lo = idxLo
	}
	if idx.Hi > idxHi {
		idx.Hi = idxHi
	}
	if idx.Lo > idx.Hi { // fully clamped to one end
		if raw.Hi < idxLo {
			idx = point(idxLo)
		} else {
			idx = point(idxHi)
		}
	}
	return idx, raw, allOutside
}

// tableRange returns the min/max table value over the feasible index window.
// Callers doing many lookups against the same table should memoise the
// full-domain case (the verifier does; see lutRange).
func tableRange(l *mr.LUT, idx Interval) Interval {
	iv := point(int64(l.Table[idx.Lo+mr.LUTSize/2]))
	for i := idx.Lo + 1; i <= idx.Hi; i++ {
		iv = iv.union(point(int64(l.Table[i+mr.LUTSize/2])))
	}
	return iv
}
