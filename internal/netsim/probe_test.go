package netsim

import "testing"

// TestProbeTable8 prints the four Table 8 rows; run with -v to calibrate.
func TestProbeTable8(t *testing.T) {
	if testing.Short() {
		t.Skip("probe")
	}
	q := trainedModel(t)
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		res, err := Run(q, p, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("p=%.0e sampled=%-6d xdpB=%-7.1f remB=%-7.1f XDP=%-6.1f DB=%-6.1f ML=%-6.1f Inst=%-6.1f All=%-7.1f baseDet=%-6.3f%% taurusDet=%-5.1f%% baseF1=%-6.3f taurusF1=%.1f rules=%d",
			p, res.SampledPackets, res.XDPBatch, res.RemBatch,
			res.XDPMs, res.DBMs, res.MLMs, res.InstallMs, res.TotalMs,
			res.BaselineDetectedPct, res.TaurusDetectedPct, res.BaselineF1, res.TaurusF1, res.RulesInstalled)
	}
}
