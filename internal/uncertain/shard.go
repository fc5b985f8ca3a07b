package uncertain

import "iter"

// Shard is one support component extracted as a self-contained graph.
// Vertex i of G corresponds to NewToOld[i] in the parent graph; NewToOld is
// strictly ascending, so orderings that are canonical in the shard (sorted
// neighbor rows, lexicographic clique order) remain canonical after mapping
// back.
type Shard struct {
	// ID numbers components by their smallest member: shard 0 contains the
	// smallest vertex of the parent graph, shard 1 the smallest vertex not in
	// shard 0, and so on. Matches the ordering of Components().
	ID int
	// G is the component as a standalone graph with vertices relabeled to
	// 0..len(NewToOld)-1.
	G *Graph
	// NewToOld maps shard vertex IDs back to parent vertex IDs, ascending.
	NewToOld []int
}

// NumComponents counts support components without materializing membership
// lists.
func (g *Graph) NumComponents() int {
	if g == nil || g.n == 0 {
		return 0
	}
	_, count := g.componentLabels()
	return count
}

// Forest is a union-by-min disjoint-set forest over the vertices 0, 1, …:
// every root is the smallest member of its set. The zero value is an empty
// forest, and Union grows it to cover its endpoints. Every set's root, and
// so every label, is the same whatever order the unions come in.
type Forest struct{ parent []int32 }

// Union joins the sets of u and v.
func (f *Forest) Union(u, v int) {
	if hi := max(u, v); hi >= len(f.parent) {
		f.grow(hi + 1)
	}
	p := f.parent
	ru, rv := find(p, u), find(p, v)
	switch {
	case ru < rv:
		p[rv] = int32(ru)
	case rv < ru:
		p[ru] = int32(rv)
	}
}

// grow extends the forest to the vertices 0..n−1, each new one a set of its
// own.
func (f *Forest) grow(n int) {
	for v := len(f.parent); v < n; v++ {
		f.parent = append(f.parent, int32(v))
	}
}

// find returns the root of v in the forest parent, and points every vertex
// on the way at it.
func find(parent []int32, v int) int {
	r := v
	for int(parent[r]) != r {
		r = int(parent[r])
	}
	for int(parent[v]) != v {
		parent[v], v = int32(r), int(parent[v])
	}
	return r
}

// Labels numbers the sets of the vertices 0..n−1 by smallest member, the
// order of Components and ShardByComponent, and returns every vertex's
// number and how many sets there are. Every vertex passed to Union must be
// below n. Labels empties the forest. The labels take over its array when
// that has a capacity of exactly n, and are a new array of capacity n
// otherwise, so they keep none of the room a growing forest leaves spare.
func (f *Forest) Labels(n int) ([]int32, int) {
	if cap(f.parent) != n {
		f.parent = append(make([]int32, 0, n), f.parent...)
	}
	f.grow(n)
	comp := f.parent
	f.parent = nil
	// A vertex's parent is itself or a smaller member of its set, whose
	// label is already in place when vertices are numbered in ascending order.
	count := 0
	for v, p := range comp {
		if int(p) == v {
			comp[v] = int32(count)
			count++
		} else {
			comp[v] = comp[p]
		}
	}
	return comp, count
}

// componentLabels labels every vertex with its component ID (components
// numbered by smallest member, matching Components()) and returns the label
// array and component count.
func (g *Graph) componentLabels() ([]int32, int) {
	f := Forest{parent: make([]int32, 0, g.n)}
	for v := 0; v < g.n; v++ {
		for i := g.offsets[v]; i < g.offsets[v+1]; i++ {
			if w := int(g.nbrs[i]); w > v {
				f.Union(v, w)
			}
		}
	}
	return f.Labels(g.n)
}

// ShardByComponent yields one Shard per support component, in ID order
// (smallest member first), building each component's CSR lazily as the
// iterator advances. Unlike Components(), at most one shard's subgraph is
// materialized per step, so a consumer that releases each shard after mining
// it holds the largest component — not the whole graph — beyond the parent
// CSR. A nil or empty graph yields nothing.
func (g *Graph) ShardByComponent() iter.Seq[Shard] {
	return func(yield func(Shard) bool) {
		if g == nil || g.n == 0 {
			return
		}
		comp, count := g.componentLabels()

		// Counting-sort vertices by (component, ascending ID): sizes →
		// starts → scatter. Scanning v ascending keeps each component's
		// member list ascending, which makes the remap below monotone.
		starts := make([]int32, count+1)
		for _, c := range comp {
			starts[c+1]++
		}
		for i := 0; i < count; i++ {
			starts[i+1] += starts[i]
		}
		order := make([]int32, g.n)
		fill := make([]int32, count)
		for v := 0; v < g.n; v++ {
			c := comp[v]
			order[starts[c]+fill[c]] = int32(v)
			fill[c]++
		}

		oldToNew := make([]int32, g.n)
		for id := 0; id < count; id++ {
			members := order[starts[id]:starts[id+1]]
			offsets := make([]int32, len(members)+1)
			for i, ov := range members {
				oldToNew[ov] = int32(i)
				offsets[i+1] = offsets[i] + (g.offsets[ov+1] - g.offsets[ov])
			}
			nbrs := make([]int32, offsets[len(members)])
			probs := make([]float64, offsets[len(members)])
			w := 0
			for _, ov := range members {
				for i := g.offsets[ov]; i < g.offsets[ov+1]; i++ {
					// Neighbors stay within the component, and the monotone
					// remap keeps each row sorted.
					nbrs[w] = oldToNew[g.nbrs[i]]
					probs[w] = g.probs[i]
					w++
				}
			}
			newToOld := make([]int, len(members))
			for i, ov := range members {
				newToOld[i] = int(ov)
			}
			sub := &Graph{n: len(members), offsets: offsets, nbrs: nbrs, probs: probs}
			if !yield(Shard{ID: id, G: sub, NewToOld: newToOld}) {
				return
			}
		}
	}
}
