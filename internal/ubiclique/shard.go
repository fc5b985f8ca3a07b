package ubiclique

import (
	"iter"
	"slices"
)

// Shard is one connected component of an uncertain bipartite graph extracted
// as a self-contained Bipartite. Left vertex i of G corresponds to
// LeftNewToOld[i] on the parent's left side, right vertex j to
// RightNewToOld[j] on the parent's right side; both maps are strictly
// ascending, so shard-canonical orderings survive mapping back.
type Shard struct {
	// ID numbers components by their smallest ground vertex (left side first,
	// since left ground IDs precede right ground IDs).
	ID int
	// G is the component as a standalone bipartite graph.
	G *Bipartite
	// LeftNewToOld and RightNewToOld map shard-side IDs back to parent-side
	// IDs, each ascending. A component may have an empty side (an isolated
	// right vertex forms a component with no left members).
	LeftNewToOld, RightNewToOld []int
}

// NumComponents counts connected components (over the combined vertex set;
// an isolated vertex on either side is its own component) without
// materializing membership lists.
func (g *Bipartite) NumComponents() int {
	if g == nil {
		return 0
	}
	return g.g.NumComponents()
}

// ShardByComponent yields one Shard per connected component, in ID order,
// building each component's CSR lazily as the iterator advances. No biclique
// spans two components (both sides of an α-biclique are non-empty and every
// cross pair is a possible edge), so enumerating each shard independently
// and mapping results back reproduces the parent graph's biclique set.
func (g *Bipartite) ShardByComponent() iter.Seq[Shard] {
	return func(yield func(Shard) bool) {
		if g == nil {
			return
		}
		for sh := range g.g.ShardByComponent() {
			// A ground shard's members ascend, so its left members form the
			// prefix and the monotone remap keeps the side split. The left
			// map is capped so that an append to it cannot overwrite the
			// right map, which reuses the suffix in place.
			members := sh.NewToOld
			k, _ := slices.BinarySearch(members, g.nL)
			right := members[k:]
			for i := range right {
				right[i] -= g.nL
			}
			sub := &Bipartite{nL: k, g: sh.G}
			if !yield(Shard{ID: sh.ID, G: sub, LeftNewToOld: members[:k:k], RightNewToOld: right}) {
				return
			}
		}
	}
}
