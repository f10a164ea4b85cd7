package ml

// BinaryConfusion tallies a binary classifier's outcomes. The "positive"
// class is the anomaly class throughout the repository (§5.2.2 uses F1 over
// identified anomalies, missed anomalies, and false alarms).
type BinaryConfusion struct {
	TP, FP, TN, FN int
}

// Observe records one prediction against the truth.
func (c *BinaryConfusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Precision returns TP/(TP+FP), or 0 when no positives were predicted.
func (c BinaryConfusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), or 0 when no positives exist.
func (c BinaryConfusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall as a percentage
// (the paper reports F1 "scores" like 71.1, i.e. x100).
func (c BinaryConfusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 100 * 2 * p * r / (p + r)
}

// MultiConfusion tallies a k-class classifier's outcomes — the metric the
// IoT traffic classifiers need, where BinaryConfusion's anomalous/benign
// split cannot score a 5-category prediction. The matrix grows on demand, so
// callers need not know k up front.
type MultiConfusion struct {
	// Counts[truth][pred] is the number of observations of class `truth`
	// predicted as class `pred`.
	Counts [][]int
}

// grow ensures the matrix covers classes [0, k).
func (c *MultiConfusion) grow(k int) {
	for len(c.Counts) < k {
		c.Counts = append(c.Counts, nil)
	}
	for i := range c.Counts {
		for len(c.Counts[i]) < k {
			c.Counts[i] = append(c.Counts[i], 0)
		}
	}
}

// Observe records one prediction against the truth. Negative class indices
// are ignored (they encode "no prediction" in some callers).
func (c *MultiConfusion) Observe(pred, truth int) {
	if pred < 0 || truth < 0 {
		return
	}
	max := pred
	if truth > max {
		max = truth
	}
	c.grow(max + 1)
	c.Counts[truth][pred]++
}

// classTallies returns (TP, FP, FN) for one class.
func (c *MultiConfusion) classTallies(k int) (tp, fp, fn int) {
	tp = c.Counts[k][k]
	for j := range c.Counts {
		if j == k {
			continue
		}
		fp += c.Counts[j][k] // predicted k, truth j
		fn += c.Counts[k][j] // truth k, predicted j
	}
	return tp, fp, fn
}

// MacroF1 returns the unweighted mean of per-class F1 scores, as a
// percentage, over every class with at least one observation or prediction.
// Macro averaging weighs rare classes equally with common ones — the right
// headline number for the imbalanced IoT category mix.
func (c *MultiConfusion) MacroF1() float64 {
	var sum float64
	n := 0
	for k := range c.Counts {
		tp, fp, fn := c.classTallies(k)
		if tp+fp+fn == 0 {
			continue // class never appeared on either axis
		}
		sum += 100 * 2 * float64(tp) / float64(2*tp+fp+fn)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MulticlassAccuracy returns the percentage of indices where pred == truth.
// The slices must have equal length; an empty input yields 0.
func MulticlassAccuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return 100 * float64(correct) / float64(len(pred))
}
