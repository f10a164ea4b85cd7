package sched

import (
	"taurus/internal/cgra"
	"taurus/internal/graphcheck"
	mr "taurus/internal/mapreduce"
)

// plan re-verifies the list schedule the tape was linearised from: the
// scheduler's own claims — issue cycles, bundle membership, the initiation
// interval the service model bills against — are re-derived from the cost
// model and checked, so a Plan bug (or a hand-edited schedule) cannot smuggle
// an oversubscribed or optimistic schedule onto the device. The checks
// mirror Plan exactly: precedence (a node issues only after its
// arguments complete), per-cycle CU/MU capacity via nodeCost, and the
// three resource bounds under the claimed II.
func (c *checker) plan() {
	s := c.t.sched
	if s == nil {
		c.finding(-1, -1, graphcheck.SevError, CheckPlan, "program has no schedule")
		return
	}
	g := c.g
	if s.Graph() != g {
		c.finding(-1, -1, graphcheck.SevError, CheckPlan, "schedule was planned for a different graph")
		return
	}
	if len(s.Start) != len(g.Nodes) || len(s.Done) != len(g.Nodes) {
		c.finding(-1, -1, graphcheck.SevError, CheckPlan,
			"schedule covers %d/%d nodes, graph has %d", len(s.Start), len(s.Done), len(g.Nodes))
		return
	}
	spec := s.Spec
	cus, mus := spec.CUCount(), spec.MUCount()

	// Bundle membership: each issuing node sits in exactly one bundle, at
	// its start cycle.
	bundleAt := make([]int, len(g.Nodes))
	for i := range bundleAt {
		bundleAt[i] = -1
	}
	for t, bundle := range s.Bundles {
		for _, id := range bundle {
			if id < 0 || int(id) >= len(g.Nodes) {
				c.finding(-1, id, graphcheck.SevError, CheckPlan, "bundle %d names unknown node", t)
				continue
			}
			if bundleAt[id] != -1 {
				c.finding(-1, id, graphcheck.SevError, CheckPlan,
					"node appears in bundles %d and %d", bundleAt[id], t)
				continue
			}
			bundleAt[id] = t
		}
	}

	var cuUsed, muUsed []int
	claim := func(used []int, t, issues int) []int {
		for cy := t; cy < t+issues; cy++ {
			for cy >= len(used) {
				used = append(used, 0)
			}
			used[cy]++
		}
		return used
	}

	maxNodeII, cuIssues, muReads, maxDone := 1, 0, 0, 0
	for i := range g.Nodes {
		n := g.Nodes[i]
		ready := 0
		for _, a := range n.Args {
			if s.Done[a] > ready {
				ready = s.Done[a]
			}
		}
		issues, lat, onMU := nodeCost(g, n, spec)
		if n.Kind == mr.KConst {
			muReads += n.Width
		}
		if s.Done[n.ID] > maxDone {
			maxDone = s.Done[n.ID]
		}
		if issues == 0 {
			if s.Done[n.ID] < ready {
				c.finding(-1, n.ID, graphcheck.SevError, CheckPlan,
					"completes at cycle %d before its arguments at %d", s.Done[n.ID], ready)
			}
			continue
		}
		t := s.Start[n.ID]
		if t < ready {
			c.finding(-1, n.ID, graphcheck.SevError, CheckPlan,
				"issues at cycle %d before its arguments complete at %d", t, ready)
		}
		if s.Done[n.ID] != t+lat {
			c.finding(-1, n.ID, graphcheck.SevError, CheckPlan,
				"completion cycle %d inconsistent with issue %d + latency %d", s.Done[n.ID], t, lat)
		}
		if bundleAt[n.ID] != t {
			c.finding(-1, n.ID, graphcheck.SevError, CheckPlan,
				"issues at cycle %d but sits in bundle %d", t, bundleAt[n.ID])
		}
		if onMU {
			muUsed = claim(muUsed, t, issues)
			muReads += n.Width
		} else {
			cuUsed = claim(cuUsed, t, issues)
			cuIssues += issues
		}
		if issues > maxNodeII {
			maxNodeII = issues
		}
	}

	for cy, u := range cuUsed {
		if u > cus {
			c.finding(-1, -1, graphcheck.SevError, CheckPlan,
				"cycle %d issues %d CU ops on %d CUs", cy, u, cus)
		}
	}
	for cy, u := range muUsed {
		if u > mus {
			c.finding(-1, -1, graphcheck.SevError, CheckPlan,
				"cycle %d issues %d MU reads on %d MUs", cy, u, mus)
		}
	}

	// The claimed steady-state II must cover every resource bound — the
	// device's service model (and netqueue's latency story) bill packets at
	// this rate, so an optimistic II is not an estimate, it is a lie.
	if s.II < maxNodeII {
		c.finding(-1, -1, graphcheck.SevError, CheckPlan,
			"claimed II %d below busiest-unit bound %d", s.II, maxNodeII)
	}
	if cus > 0 {
		if r := (cuIssues + cus - 1) / cus; s.II < r {
			c.finding(-1, -1, graphcheck.SevError, CheckPlan,
				"claimed II %d below CU issue bound %d (%d issues on %d CUs)", s.II, r, cuIssues, cus)
		}
	}
	if muReads > 0 && mus > 0 {
		if r := (muReads + mus*cgra.MUBanks - 1) / (mus * cgra.MUBanks); s.II < r {
			c.finding(-1, -1, graphcheck.SevError, CheckPlan,
				"claimed II %d below MU bandwidth bound %d (%d reads on %d banked MUs)", s.II, r, muReads, mus)
		}
	}
	if s.Depth < maxDone {
		c.finding(-1, -1, graphcheck.SevError, CheckPlan,
			"claimed depth %d below last completion cycle %d", s.Depth, maxDone)
	}
	if s.CUIssues != cuIssues {
		c.finding(-1, -1, graphcheck.SevWarning, CheckPlan,
			"reported CU issue total %d, cost model says %d", s.CUIssues, cuIssues)
	}
}
