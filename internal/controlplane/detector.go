package controlplane

import (
	"taurus/internal/core"
	"taurus/internal/obs"
)

// detector is the drift-detection state machine of one Fleet member: it
// samples data-plane decisions into observation windows, maintains the
// reference profile, evaluates the configured statistic when a window
// completes, and latches a drift verdict until the next re-arm. It holds no
// lock of its own — the owning fleetMember serialises access.
type detector struct {
	cfg *Config

	winN       int
	winFlagged int
	winScore   float64
	sampleTick int
	refWindows int
	refFlag    float64
	refScore   float64
	psi        psiDetector
	outOfBand  int // consecutive windows past a threshold
	drifted    bool

	// Cumulative counters — registry instruments (taurus.ctl.*), so they
	// survive re-arms and surface on a scrape; bind installs them.
	sampled *obs.Counter
	windows *obs.Counter
	drifts  *obs.Counter

	// Diagnostics of the current reference profile and the last completed
	// window. The reference diagnostics (and the statistics measured against
	// it) are zeroed on re-arm, so Stats never reports a pre-push profile as
	// current while the new reference is still being built.
	refFlagRate   float64
	refMeanScore  float64
	lastFlagRate  float64
	lastMeanScore float64
	lastPSI       float64
}

// bind registers the detector's cumulative counters; Fleet.Register binds
// before the first observe.
func (d *detector) bind(reg *obs.Registry, labels []obs.Label) {
	d.sampled = reg.Counter("taurus.ctl.sampled", labels...)
	d.windows = reg.Counter("taurus.ctl.windows", labels...)
	d.drifts = reg.Counter("taurus.ctl.drifts", labels...)
}

// observe feeds one batch of data-plane decisions, sampling one in
// SampleEvery non-bypassed decisions. Reports whether a window completed by
// this call newly crossed a drift threshold.
func (d *detector) observe(decs []core.Decision) bool {
	newDrift := false
	for i := range decs {
		if decs[i].Bypassed {
			continue
		}
		d.sampleTick++
		if d.sampleTick%d.cfg.SampleEvery != 0 {
			continue
		}
		d.sampled.Inc()
		d.winN++
		if decs[i].Verdict != core.Forward {
			d.winFlagged++
		}
		score := float64(decs[i].MLScore)
		d.winScore += score
		if d.cfg.Statistic == DriftPSI {
			d.psi.observe(score)
		}
		if d.winN >= d.cfg.Window {
			if d.closeWindow() {
				newDrift = true
			}
		}
	}
	return newDrift
}

// closeWindow folds the completed window into the reference (while it is
// still being established) or checks it for drift. Reports whether drift was
// newly detected.
func (d *detector) closeWindow() bool {
	flagRate := float64(d.winFlagged) / float64(d.winN)
	meanScore := d.winScore / float64(d.winN)
	d.winN, d.winFlagged, d.winScore = 0, 0, 0
	d.windows.Inc()
	d.lastFlagRate, d.lastMeanScore = flagRate, meanScore

	if d.refWindows < d.cfg.RefWindows {
		n := float64(d.refWindows)
		d.refFlag = (d.refFlag*n + flagRate) / (n + 1)
		d.refScore = (d.refScore*n + meanScore) / (n + 1)
		d.refWindows++
		d.refFlagRate, d.refMeanScore = d.refFlag, d.refScore
		if d.refWindows == d.cfg.RefWindows && d.cfg.Statistic == DriftPSI {
			d.psi.armReference()
		}
		return false
	}

	var outOfBand bool
	if d.cfg.Statistic == DriftPSI {
		d.lastPSI = d.psi.closeWindow()
		outOfBand = d.lastPSI > d.cfg.PSIThreshold || abs(flagRate-d.refFlag) > d.cfg.FlagDelta
	} else {
		outOfBand = abs(flagRate-d.refFlag) > d.cfg.FlagDelta || abs(meanScore-d.refScore) > d.cfg.ScoreDelta
	}

	if d.drifted {
		return false
	}
	if outOfBand {
		d.outOfBand++
	} else {
		d.outOfBand = 0
	}
	if d.outOfBand >= d.cfg.DriftPatience {
		d.drifted = true
		d.drifts.Inc()
		return true
	}
	return false
}

// rearm discards the window, the reference profile and the drift latch after
// a successful retrain+push: the post-push distribution becomes the new
// normal. Cumulative counters survive; the reference diagnostics are zeroed
// so a stale profile is never read as current.
func (d *detector) rearm() {
	d.winN, d.winFlagged, d.winScore = 0, 0, 0
	d.refWindows, d.refFlag, d.refScore = 0, 0, 0
	d.psi.reset()
	d.outOfBand = 0
	d.drifted = false
	d.refFlagRate, d.refMeanScore = 0, 0
	d.lastPSI = 0
}

// clearLatch re-arms only the drift latch — the recovery path after a failed
// retrain. The reference survives, so the still-shifted distribution can
// re-trigger on the next out-of-band windows.
func (d *detector) clearLatch() {
	d.drifted = false
	d.outOfBand = 0
}

// stats renders the detector's counters in the exported Stats shape (the
// retrain counters are the owner's).
func (d *detector) stats() Stats {
	return Stats{
		Sampled:       int(d.sampled.Value()),
		Windows:       int(d.windows.Value()),
		Drifts:        int(d.drifts.Value()),
		RefFlagRate:   d.refFlagRate,
		RefMeanScore:  d.refMeanScore,
		LastFlagRate:  d.lastFlagRate,
		LastMeanScore: d.lastMeanScore,
		LastPSI:       d.lastPSI,
	}
}
