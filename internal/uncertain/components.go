package uncertain

// ExpectedDegree returns the expected degree of u in a sampled world:
// the sum of its incident edge probabilities.
func (g *Graph) ExpectedDegree(u int) float64 {
	_, probs := g.Adjacency(u)
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	return sum
}

// Components returns the connected components of the support graph (V, E),
// each as an ascending vertex list, ordered by smallest member. Isolated
// vertices form singleton components. Support connectivity is the coarsest
// possible pruning unit for clique enumeration: no clique spans two
// components, so large inputs can be mined component by component. Large
// graphs are labeled by a chunked parallel union-find (see componentForest);
// the output is identical to a sequential scan.
func (g *Graph) Components() [][]int {
	n := g.NumVertices()
	comp, count := g.componentLabels()
	if count == 0 {
		return nil
	}
	// Scanning v ascending keeps each member list ascending, and component
	// IDs are assigned in smallest-member order by componentLabels.
	out := make([][]int, count)
	for v := 0; v < n; v++ {
		out[comp[v]] = append(out[comp[v]], v)
	}
	return out
}
