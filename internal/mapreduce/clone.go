package mapreduce

// Clone deep-copies the graph so a holder can mutate weights (or evaluate)
// independently of the original — each pipeline shard owns a clone, keeping
// out-of-band weight updates shard-local.
//
// The copy is carved: the nodes, every node's args (and the declared inputs
// and outputs), every const's lanes and every table come out of one backing
// array each, handed out as three-index slices so an append to one node's
// slice reallocates instead of running into its neighbour's. Lookups that
// share one table in g share one copy of it in the clone, so placement —
// which puts lookups of one table on one MU — sees the same sharing.
func (g *Graph) Clone() *Graph {
	nargs, nconst, nlut := len(g.Inputs)+len(g.Outputs), 0, 0
	for _, n := range g.Nodes {
		nargs += len(n.Args)
		nconst += len(n.Const)
		if n.LUT != nil {
			nlut++
		}
	}
	nodes := make([]Node, len(g.Nodes))
	args := make([]NodeID, nargs)
	consts := make([]int32, nconst)
	luts := make([]LUT, 0, nlut) // never grows: the &luts[k] handed out stay valid
	carve := func(src []NodeID) []NodeID {
		if len(src) == 0 {
			return nil
		}
		dst := args[:len(src):len(src)]
		args = args[len(src):]
		copy(dst, src)
		return dst
	}

	out := &Graph{
		Name:    g.Name,
		Nodes:   make([]*Node, len(g.Nodes)),
		Inputs:  carve(g.Inputs),
		Outputs: carve(g.Outputs),
	}
	// luts[k] is the copy of tables[k], the k-th distinct table in node order:
	// a graph holds a handful at most, so a scan beats a map.
	var seen [8]*LUT
	tables := seen[:0]
	for i, n := range g.Nodes {
		c := &nodes[i]
		*c = *n
		c.Args = carve(n.Args)
		c.Const = nil
		if len(n.Const) > 0 {
			c.Const = consts[:len(n.Const):len(n.Const)]
			consts = consts[len(n.Const):]
			copy(c.Const, n.Const)
		}
		if n.LUT != nil {
			k := 0
			for k < len(tables) && tables[k] != n.LUT {
				k++
			}
			if k == len(tables) {
				tables, luts = append(tables, n.LUT), append(luts, *n.LUT)
			}
			c.LUT = &luts[k]
		}
		out.Nodes[i] = c
	}
	return out
}
