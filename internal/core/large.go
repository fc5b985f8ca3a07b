package core

import (
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Witness sets under size pruning, serial vs work stealing.
//
// Algorithm 6's serial loop skips the witness push for a size-pruned
// candidate u (recurse in mule.go): any clique u could witness against is
// itself below the size threshold t, so u can never block an emission. The
// work-stealing engine instead pushes u anyway, keeping the frame's
// witness set equal to X₀ ++ I[:next] so a frame can be split at any
// iteration boundary. This is safe: suppose u was pruned at clique C
// because |C|+1+|I_u| < t, and later some node C' ⊇ C in a sibling subtree
// still carries u in its witness set at emission time. Carrying u requires
// clq(C'∪{u}) ≥ α (generateX filters by α at every step), and every vertex
// of C'∖C is a candidate greater than u adjacent to u within the α budget —
// exactly the membership test of I_u. Hence |C'∪{u}| ≤ |C|+1+|I_u| < t,
// while LARGE-MULE only emits cliques of size ≥ t (the |C'|+|I'| ≥ t cut
// holds on every recursion edge). So u is never present in the witness set
// of an emitting node, and the emitted clique set is identical; only
// Stats.WitnessOps can differ from a serial run when MinSize ≥ 2.

// csrScratch is the mutable CSR the prefilter iterates on: each vertex owns
// the slice [start[u], end[u]) of nbrs/probs, sorted ascending; removals
// compact the row in place (end[u] shrinks, start[u] is fixed). No hash
// maps anywhere — common-neighbor counts run as sorted merges over the live
// row segments, so the whole fixpoint works on the four flat arrays below
// plus O(1) locals, keeping the LARGE path at the same ~0-alloc steady
// state as the enumeration kernel.
type csrScratch struct {
	start []int32
	end   []int32
	nbrs  []int32
	probs []float64
}

// newCSRScratch copies g's rows into a mutable CSR.
func newCSRScratch(g *uncertain.Graph) *csrScratch {
	n := g.NumVertices()
	s := &csrScratch{
		start: make([]int32, n),
		end:   make([]int32, n),
	}
	total := 2 * g.NumEdges()
	s.nbrs = make([]int32, 0, total)
	s.probs = make([]float64, 0, total)
	for u := 0; u < n; u++ {
		row, probs := g.Adjacency(u)
		s.start[u] = int32(len(s.nbrs))
		s.nbrs = append(s.nbrs, row...)
		s.probs = append(s.probs, probs...)
		s.end[u] = int32(len(s.nbrs))
	}
	return s
}

// row returns u's live neighbors.
func (s *csrScratch) row(u int32) []int32 { return s.nbrs[s.start[u]:s.end[u]] }

// degree returns u's live neighbor count.
func (s *csrScratch) degree(u int32) int { return int(s.end[u] - s.start[u]) }

// commonCount returns |Γ(u) ∩ Γ(v)| over the live rows by sorted merge.
func (s *csrScratch) commonCount(u, v int32) int {
	a, b := s.row(u), s.row(v)
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// dropHalf removes v from u's row, compacting in place. It is a no-op if v
// is not present (already removed from this side).
func (s *csrScratch) dropHalf(u, v int32) {
	lo, hi := int(s.start[u]), int(s.end[u])
	// Binary search for v within the live row.
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		if s.nbrs[mid] < v {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i == hi || s.nbrs[i] != v {
		return
	}
	copy(s.nbrs[i:hi-1], s.nbrs[i+1:hi])
	copy(s.probs[i:hi-1], s.probs[i+1:hi])
	s.end[u] = int32(hi - 1)
}

// removeEdge removes {u,v} from both rows.
func (s *csrScratch) removeEdge(u, v int32) {
	s.dropHalf(u, v)
	s.dropHalf(v, u)
}

// build assembles the live rows into an immutable Graph. Rows stay sorted
// under compaction and removals are applied to both halves of an edge, so
// the result satisfies every Graph invariant; FromSortedAdjacency verifies
// them and reports an error instead of silently emitting a corrupt graph.
func (s *csrScratch) build() (*uncertain.Graph, error) {
	n := len(s.start)
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + int32(s.degree(int32(u)))
	}
	nbrs := make([]int32, offsets[n])
	probs := make([]float64, offsets[n])
	for u := 0; u < n; u++ {
		copy(nbrs[offsets[u]:offsets[u+1]], s.nbrs[s.start[u]:s.end[u]])
		copy(probs[offsets[u]:offsets[u+1]], s.probs[s.start[u]:s.end[u]])
	}
	return uncertain.FromSortedAdjacency(n, offsets, nbrs, probs)
}

// sharedNeighborhoodFilter applies the Modani–Dey preprocessing the paper
// uses before LARGE-MULE (§4.3): it drops every edge {u,v} whose endpoints
// share fewer than t-2 common neighbors (a clique of size ≥ t containing
// the edge needs t-2 common completions), repeating until a fixpoint. The
// result is the t-truss of the α-pruned support graph, isolated vertices
// kept, so no edge or vertex of an α-clique of size ≥ t is removed and
// LARGE-MULE's output is unaffected.
//
// The paper's second rule, which drops every vertex v without t-1 neighbors
// u such that |Γ(u) ∩ Γ(v)| ≥ t-2, is implied and not run. At the edge
// rule's fixpoint every surviving edge {u,v} has t-2 common neighbors, so
// u has at least t-1 neighbors, all over surviving (hence qualifying)
// edges, and the vertex rule cannot fire. Both rules only remove edges and
// only lose support as edges go, so the two-rule fixpoint is the largest
// subgraph satisfying both; the edge rule's fixpoint already does, so the
// two are the same graph.
func sharedNeighborhoodFilter(g *uncertain.Graph, t int) (*uncertain.Graph, error) {
	if t < 3 {
		// t-2 ≤ 0: the common-neighbor constraint is vacuous.
		return g, nil
	}
	n := int32(g.NumVertices())
	s := newCSRScratch(g)

	// Rows are scanned back to front: removing the neighbor at index i only
	// shifts entries after i, so earlier indices stay valid as the row
	// compacts under the iteration.
	for changed := true; changed; {
		changed = false
		for u := int32(0); u < n; u++ {
			for i := int(s.end[u]) - 1; i >= int(s.start[u]); i-- {
				v := s.nbrs[i]
				if u < v && s.commonCount(u, v) < t-2 {
					s.removeEdge(u, v)
					changed = true
				}
			}
		}
	}
	return s.build()
}
