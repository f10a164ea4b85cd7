// The interval transfer kernel: the [lo, hi] semantics of every datapath
// operation, kept apart from the walk that drives it — a lane at a time, or
// for the map and unary ops a node's lanes at once, the op dispatched once
// per node.
//
// Every transfer returns the *raw* feasible interval of the mathematical
// result; it is the walk's job to apply the datapath's clamping discipline
// (clampFix32 for the silently saturating map/unary/reduce ops, the int8 clamp
// for a requant, the index clamp for a LUT) and to decide which clamps are
// findings. That split is deliberate: the raw interval is the overflow
// witness a finding reports.
package graphcheck

import (
	"math"

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

// emptyHull is the hull of no lanes: the identity of Interval.union, so a
// lane loop can fold its node's Ranges entry as it goes.
var emptyHull = Interval{math.MaxInt64, math.MinInt64}

// mapLanes writes the raw interval of `a[i] op b[i]` to out[i] — b broadcast
// when it has one lane — and returns the hull of what it wrote. The results
// are unclamped: map ops run through Fix32.Saturate at runtime, so a result
// outside the Fix32 range witnesses silent saturation. The op is dispatched
// once per node, not per lane.
func mapLanes(op mr.MapOp, out, a, b []Interval) Interval {
	out = out[:len(a)]
	bs := 1 // b's lane stride: 0 broadcasts its one lane
	if len(b) == 1 {
		bs = 0
	}
	hull := emptyHull
	switch op {
	case mr.MAdd:
		for i, x := range a {
			y := b[i*bs]
			out[i] = Interval{x.Lo + y.Lo, x.Hi + y.Hi}
			hull = hull.union(out[i])
		}
	case mr.MSub:
		for i, x := range a {
			y := b[i*bs]
			out[i] = Interval{x.Lo - y.Hi, x.Hi - y.Lo}
			hull = hull.union(out[i])
		}
	case mr.MMul: // a same-width constant operand is mulConst's
		for i, x := range a {
			out[i] = mulHull(x, b[i*bs])
			hull = hull.union(out[i])
		}
	case mr.MMin:
		for i, x := range a {
			y := b[i*bs]
			out[i] = Interval{min(x.Lo, y.Lo), min(x.Hi, y.Hi)}
			hull = hull.union(out[i])
		}
	case mr.MMax:
		for i, x := range a {
			y := b[i*bs]
			out[i] = Interval{max(x.Lo, y.Lo), max(x.Hi, y.Hi)}
			hull = hull.union(out[i])
		}
	default:
		return fillLanes(out, fix32)
	}
	return hull
}

// mulConst writes the raw interval of x[i]·c[i] to out[i] — x broadcast when
// it has one lane — for a constant operand read in place, and returns the
// hull of what it wrote: mapLanes' MMul with the constant's point lanes, one
// product per bound.
func mulConst(out, x []Interval, c []int32) Interval {
	out = out[:len(c)]
	hull := emptyHull
	if len(x) == 1 {
		for i, w := range c {
			out[i] = mulPoint(x[0], int64(w))
			hull = hull.union(out[i])
		}
		return hull
	}
	x = x[:len(c)]
	for i, w := range c {
		out[i] = mulPoint(x[i], int64(w))
		hull = hull.union(out[i])
	}
	return hull
}

// mulPoint returns x·c for a point c: one product per bound, their order
// the sign of c's (picked without a branch — weight signs are random).
func mulPoint(x Interval, c int64) Interval {
	p, q := x.Lo*c, x.Hi*c
	return Interval{min(p, q), max(p, q)}
}

// mulHull returns the hull of the four endpoint products, which bound a
// monotone-by-parts bilinear map.
func mulHull(a, b Interval) Interval {
	p0, p1, p2, p3 := a.Lo*b.Lo, a.Lo*b.Hi, a.Hi*b.Lo, a.Hi*b.Hi
	return Interval{min(p0, p1, p2, p3), max(p0, p1, p2, p3)}
}

// unaryLanes writes the raw interval of `op a[i]` to out[i] and returns the
// hull of what it wrote. Endpoint evaluation is exact: every unary op is
// monotone (Abs by cases).
func unaryLanes(op mr.UnaryOp, out, a []Interval) Interval {
	out = out[:len(a)]
	hull := emptyHull
	switch op {
	case mr.UReLU:
		for i, x := range a {
			out[i] = Interval{max(0, x.Lo), max(0, x.Hi)}
			hull = hull.union(out[i])
		}
	case mr.ULeakyReLU:
		for i, x := range a {
			out[i] = Interval{leaky(x.Lo), leaky(x.Hi)}
			hull = hull.union(out[i])
		}
	case mr.UNeg:
		for i, x := range a {
			out[i] = Interval{-x.Hi, -x.Lo}
			hull = hull.union(out[i])
		}
	case mr.UAbs:
		for i, x := range a {
			switch {
			case x.Lo >= 0:
				out[i] = x
			case x.Hi <= 0:
				out[i] = Interval{-x.Hi, -x.Lo}
			default:
				out[i] = Interval{0, max(x.Hi, -x.Lo)}
			}
			hull = hull.union(out[i])
		}
	default:
		return fillLanes(out, fix32)
	}
	return hull
}

// constLanes writes c's values to out as points — out is empty for a
// constant the walk reads in place — and returns their hull.
func constLanes(out []Interval, c []int32) Interval {
	lo, hi := c[0], c[0]
	for _, w := range c[1:] {
		lo, hi = min(lo, w), max(hi, w)
	}
	if len(out) > 0 {
		for i, w := range c {
			out[i] = point(int64(w))
		}
	}
	return Interval{int64(lo), int64(hi)}
}

// fillLanes sets every lane to iv and returns iv, their hull.
func fillLanes(out []Interval, iv Interval) Interval {
	for i := range out {
		out[i] = iv
	}
	return iv
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
			iv = Interval{min(iv.Lo, av.Lo), min(iv.Hi, av.Hi)}
		}
		return iv
	case mr.RMax:
		iv := lanes[0]
		for _, av := range lanes[1:] {
			iv = Interval{max(iv.Lo, av.Lo), max(iv.Hi, av.Hi)}
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
