package ml

import (
	"math"
	"reflect"
	"testing"
)

func TestConfusionCounts(t *testing.T) {
	var c BinaryConfusion
	c.Observe(true, true)   // TP
	c.Observe(true, false)  // FP
	c.Observe(false, false) // TN
	c.Observe(false, true)  // FN
	if c.TP != 1 || c.FP != 1 || c.TN != 1 || c.FN != 1 {
		t.Errorf("confusion = %+v", c)
	}
	if got := c.Precision(); got != 0.5 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); got != 0.5 {
		t.Errorf("Recall = %v", got)
	}
	if got := c.F1(); got != 50 {
		t.Errorf("F1 = %v", got)
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c BinaryConfusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("empty confusion should report zeros")
	}
	c.Observe(false, false)
	if c.F1() != 0 {
		t.Errorf("no-positive F1 = %v", c.F1())
	}
}

func TestPerfectF1(t *testing.T) {
	var c BinaryConfusion
	for i := 0; i < 10; i++ {
		c.Observe(true, true)
		c.Observe(false, false)
	}
	if math.Abs(c.F1()-100) > 1e-9 {
		t.Errorf("perfect F1 = %v", c.F1())
	}
}

func TestMultiConfusion(t *testing.T) {
	var c MultiConfusion
	// Class 0: 2 correct, 1 predicted as 1. Class 1: 1 correct, 1 as 2.
	// Class 2: 2 correct.
	obs := [][2]int{ // {pred, truth}
		{0, 0}, {0, 0}, {1, 0},
		{1, 1}, {2, 1},
		{2, 2}, {2, 2},
	}
	for _, o := range obs {
		c.Observe(o[0], o[1])
	}
	// Counts[truth][pred].
	if want := [][]int{{2, 1, 0}, {0, 1, 1}, {0, 0, 2}}; !reflect.DeepEqual(c.Counts, want) {
		t.Fatalf("Counts = %v, want %v", c.Counts, want)
	}
	// Class 0: TP 2, FP 0, FN 1 -> F1 = 2*2/(2*2+0+1) = 80%. Class 1: TP 1,
	// FP 1, FN 1 -> 50%. Class 2: TP 2, FP 1, FN 0 -> 80%. Mean: 70%.
	if got := c.MacroF1(); math.Abs(got-70) > 1e-9 {
		t.Errorf("MacroF1 = %v, want 70", got)
	}
}

func TestMultiConfusionDegenerate(t *testing.T) {
	var c MultiConfusion
	if c.MacroF1() != 0 || observations(&c) != 0 || len(c.Counts) != 0 {
		t.Error("empty multi confusion should report zeros")
	}
	c.Observe(-1, 0) // ignored
	c.Observe(0, -1) // ignored
	if observations(&c) != 0 {
		t.Error("negative classes must be ignored")
	}
	// A class absent from both axes must not drag the macro average down.
	c.Observe(0, 0)
	c.Observe(4, 4)
	if got := c.MacroF1(); math.Abs(got-100) > 1e-9 {
		t.Errorf("MacroF1 with absent middle classes = %v, want 100", got)
	}
}

func TestMulticlassAccuracy(t *testing.T) {
	if got := MulticlassAccuracy([]int{1, 2, 3}, []int{1, 2, 0}); math.Abs(got-200.0/3) > 1e-9 {
		t.Errorf("accuracy = %v", got)
	}
	if MulticlassAccuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if MulticlassAccuracy([]int{1}, []int{1, 2}) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}

// observations counts the outcomes c has tallied.
func observations(c *MultiConfusion) int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}
