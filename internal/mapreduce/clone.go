package mapreduce

// Clone deep-copies the graph so a holder can mutate weights (or evaluate)
// independently of the original — each pipeline shard owns a clone, keeping
// out-of-band weight updates shard-local.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		Name:    g.Name,
		Nodes:   make([]*Node, len(g.Nodes)),
		Inputs:  append([]NodeID(nil), g.Inputs...),
		Outputs: append([]NodeID(nil), g.Outputs...),
	}
	for i, n := range g.Nodes {
		c := *n
		c.Args = append([]NodeID(nil), n.Args...)
		if n.Const != nil {
			c.Const = append([]int32(nil), n.Const...)
		}
		if n.LUT != nil {
			lut := *n.LUT
			c.LUT = &lut
		}
		out.Nodes[i] = &c
	}
	return out
}
