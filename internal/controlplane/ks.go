package controlplane

import "sort"

// ksStat returns the two-sample Kolmogorov–Smirnov distance sup|F_a − F_b|
// between the empirical CDFs of a and b — AdaptiveRetrain's calm criterion
// (fitOnFresh). The inputs are not modified. Returns 0 when either sample is
// empty.
func ksStat(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	return ksSorted(as, bs)
}

// ksSorted is the KS distance over already-sorted samples. Tied values are
// consumed from both samples before the CDF gap is measured, so heavily
// discrete scores (category indices) do not manufacture spurious distance.
func ksSorted(a, b []float64) float64 {
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			v := a[i]
			for i < len(a) && a[i] == v {
				i++
			}
			for j < len(b) && b[j] == v {
				j++
			}
		}
		if diff := abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}
