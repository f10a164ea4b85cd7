package tapecheck

import (
	"math"

	"taurus/internal/sched"
)

// sums is the row-sum audit. The packed matvec kernel multiplies two batch
// slots at once wherever S*M <= MaxInt32, and reads S — the sum of a row's
// absolute weights — from the image rather than from the weights: a value
// only an image build can change is summed once per build, not once per
// sweep. That makes the sums part of what a tape trusts, so they are
// re-derived here from the lanes the rows address. Two things must hold.
// Every matvec row owns an index of its own, dense in tape order and filling
// the image's sums exactly: an image build writes row r of a matvec at Sum+r,
// so an index two rows share would hold whichever was written last — in this
// image and in every one a push builds. And the value there equals
// min(sum|w|, 1<<31) of this image's lanes: an understated sum licenses
// packed arithmetic whose partial sums leave int32.
func (c *checker) sums() {
	lanes, sums := c.img.Lanes(), c.img.Sums()
	next := 0
	for pc := range c.code {
		ins := &c.code[pc]
		if ins.Op != sched.OpMatVec {
			continue
		}
		if ins.Sum != next {
			c.finding(pc, -1, SevError, CheckSums,
				"row sums are indexed from %d, want %d: they would share an index with, or leave a gap beside, another matvec's", ins.Sum, next)
		}
		next += max(ins.W, 0)
		if ins.Sum < 0 || ins.Sum+ins.W > len(sums) {
			continue // bounds() reports
		}
		for r := 0; r < ins.W && r < len(ins.Rows); r++ {
			row := ins.Rows[r]
			if !row.Const || row.Off < 0 || row.W < 0 || row.Off+row.W > len(lanes) {
				break // alias() reports
			}
			var want int64
			for _, w := range lanes[row.Off : row.Off+row.W] {
				want += int64(magnitude(int64(w)))
			}
			want = min(want, math.MaxInt32+1)
			if got := sums[ins.Sum+r]; got != want {
				c.finding(pc, -1, SevError, CheckSums,
					"row %d: the image's sum|w| is %d, its lanes [%d,%d) sum to %d", r, got, row.Off, row.Off+row.W, want)
				break
			}
		}
	}
	if next != len(sums) {
		c.finding(-1, -1, SevError, CheckSums,
			"image holds %d row sums, the tape's matvecs have %d rows", len(sums), next)
	}
}

// magnitude is |v| as an unsigned value (MinInt64 included).
func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}
