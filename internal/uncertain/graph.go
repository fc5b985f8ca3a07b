// Package uncertain implements the uncertain graph model of the paper:
// an undirected simple graph G = (V, E, p) where each possible edge e ∈ E
// carries an independent existence probability p(e) ∈ (0, 1]. G is a
// probability distribution over the 2^m subgraphs of (V, E) ("possible
// worlds"); sampling a world keeps each edge e independently with
// probability p(e).
//
// The Graph type is an immutable CSR (compressed sparse row) structure with
// sorted adjacency and a parallel probability array, built once via Builder.
// Immutability is what lets the enumeration algorithms in internal/core share
// a graph across goroutines without locks.
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Typed sentinel errors for graph construction. The concrete errors wrap
// these with the offending values; match with errors.Is.
var (
	// ErrVertexRange reports a vertex ID outside [0, n).
	ErrVertexRange = errors.New("vertex out of range")
	// ErrSelfLoop reports an edge with identical endpoints.
	ErrSelfLoop = errors.New("self-loop")
	// ErrProbRange reports an edge probability outside (0, 1] (or NaN).
	ErrProbRange = errors.New("probability outside (0,1]")
	// ErrDuplicateEdge reports an edge added twice to a Builder (AddEdge
	// only; UpsertEdge overwrites instead).
	ErrDuplicateEdge = errors.New("duplicate edge")
)

// Edge is one probabilistic edge of an uncertain graph.
type Edge struct {
	U, V int     // endpoints, 0-based
	P    float64 // existence probability in (0, 1]
}

// Graph is an immutable uncertain graph on vertices 0..n-1.
type Graph struct {
	n       int
	offsets []int32   // len n+1
	nbrs    []int32   // len 2m, sorted within each row
	probs   []float64 // parallel to nbrs
}

// Builder accumulates probabilistic edges for a Graph.
type Builder struct {
	n     int
	edges map[[2]int32]float64
}

// NewBuilder returns a Builder for an uncertain graph on n ≥ 0 vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, edges: make(map[[2]int32]float64)}
}

func (b *Builder) key(u, v int) ([2]int32, error) {
	if u == v {
		return [2]int32{}, fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, ErrSelfLoop)
	}
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return [2]int32{}, fmt.Errorf("uncertain: edge {%d,%d} outside [0,%d): %w", u, v, b.n, ErrVertexRange)
	}
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}, nil
}

func validProb(p float64) error {
	if math.IsNaN(p) || p <= 0 || p > 1 {
		return fmt.Errorf("uncertain: probability %v: %w", p, ErrProbRange)
	}
	return nil
}

// AddEdge records edge {u,v} with probability p. It returns an error for
// self-loops, out-of-range endpoints, probabilities outside (0,1], or if the
// edge was already added.
func (b *Builder) AddEdge(u, v int, p float64) error {
	k, err := b.key(u, v)
	if err != nil {
		return err
	}
	if err := validProb(p); err != nil {
		return err
	}
	if _, dup := b.edges[k]; dup {
		return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, ErrDuplicateEdge)
	}
	b.edges[k] = p
	return nil
}

// UpsertEdge is AddEdge except that an existing edge has its probability
// replaced instead of causing an error. Generators that naturally revisit
// pairs (e.g. co-authorship) use this.
func (b *Builder) UpsertEdge(u, v int, p float64) error {
	k, err := b.key(u, v)
	if err != nil {
		return err
	}
	if err := validProb(p); err != nil {
		return err
	}
	b.edges[k] = p
	return nil
}

// NumEdges reports how many distinct edges have been added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the graph. The Builder may be reused afterwards, but edges
// already added remain.
func (b *Builder) Build() *Graph {
	deg := make([]int32, b.n)
	for k := range b.edges {
		deg[k[0]]++
		deg[k[1]]++
	}
	offsets := make([]int32, b.n+1)
	for u := 0; u < b.n; u++ {
		offsets[u+1] = offsets[u] + deg[u]
	}
	nbrs := make([]int32, offsets[b.n])
	probs := make([]float64, offsets[b.n])
	fill := make([]int32, b.n)
	for k, p := range b.edges {
		u, v := k[0], k[1]
		iu := offsets[u] + fill[u]
		nbrs[iu], probs[iu] = v, p
		fill[u]++
		iv := offsets[v] + fill[v]
		nbrs[iv], probs[iv] = u, p
		fill[v]++
	}
	g := &Graph{n: b.n, offsets: offsets, nbrs: nbrs, probs: probs}
	g.sortRows()
	return g
}

// sortRows sorts every adjacency row ascending, keeping probs parallel. A
// row that already ascends is only scanned: every row of a file written by
// graphio's writers arrives sorted, and so does every row of a component
// batch. The rows that do need sorting share one sorter, boxed once per
// graph rather than once per row.
func (g *Graph) sortRows() {
	var rs *rowSorter
	for u := 0; u < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		if rowAscending(g.nbrs[lo:hi]) {
			continue
		}
		if rs == nil {
			rs = new(rowSorter)
		}
		rs.nbrs, rs.probs = g.nbrs[lo:hi], g.probs[lo:hi]
		sort.Sort(rs)
	}
}

// rowAscending reports whether row is non-decreasing. Equal neighbors count
// as ascending: they are duplicate edges, which the callers that can see
// them report after the sort.
func rowAscending(row []int32) bool {
	for i := 1; i < len(row); i++ {
		if row[i] < row[i-1] {
			return false
		}
	}
	return true
}

type rowSorter struct {
	nbrs  []int32
	probs []float64
}

func (r rowSorter) Len() int           { return len(r.nbrs) }
func (r rowSorter) Less(i, j int) bool { return r.nbrs[i] < r.nbrs[j] }
func (r rowSorter) Swap(i, j int) {
	r.nbrs[i], r.nbrs[j] = r.nbrs[j], r.nbrs[i]
	r.probs[i], r.probs[j] = r.probs[j], r.probs[i]
}

// FromEdges builds an uncertain graph on n vertices from an edge list,
// failing on the first invalid or duplicate edge.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// FromSortedAdjacency builds a Graph directly from CSR arrays — offsets of
// length n+1 and parallel nbrs/probs of length offsets[n] — without going
// through a Builder (no per-edge hash map, no re-sort). The arrays are
// adopted, not copied; the caller must not modify them afterwards. Every
// Graph invariant is validated: monotone offsets, strictly ascending rows
// (which excludes duplicates), in-range neighbors, no self-loops, valid
// probabilities, and symmetry (v ∈ row(u) ⇔ u ∈ row(v), with equal
// probability). Graph transformations that filter an existing CSR use this
// to stay allocation-lean and to surface any assembly bug as an error
// instead of silently dropping edges.
func FromSortedAdjacency(n int, offsets []int32, nbrs []int32, probs []float64) (*Graph, error) {
	if n < 0 || len(offsets) != n+1 || offsets[0] != 0 {
		return nil, fmt.Errorf("uncertain: malformed offsets (n=%d, len=%d)", n, len(offsets))
	}
	if int(offsets[n]) != len(nbrs) || len(nbrs) != len(probs) {
		return nil, fmt.Errorf("uncertain: offsets end %d but %d neighbors, %d probs",
			offsets[n], len(nbrs), len(probs))
	}
	g := &Graph{n: n, offsets: offsets, nbrs: nbrs, probs: probs}
	if !g.wellFormed() {
		if err := g.fault(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// wellFormed reports whether g's CSR arrays hold every Graph invariant, in
// O(n + m log d) without allocating. Each row is checked slot by slot, and
// each edge once more from its lower endpoint u: a binary search of the
// upper endpoint's row must find u with the same probability. That pairs
// every upper slot with a distinct lower slot, so equal counts of the two
// leave no lower slot unpaired.
func (g *Graph) wellFormed() bool {
	for u := 0; u < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return false
		}
	}
	upper, lower := 0, 0
	for u := 0; u < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			v, p := g.nbrs[i], g.probs[i]
			if v < 0 || int(v) >= g.n || int(v) == u || (i > lo && g.nbrs[i-1] >= v) || !(p > 0 && p <= 1) {
				return false
			}
			if int(v) < u {
				lower++
				continue
			}
			// Row v is not checked yet; a search that misses in a disordered
			// row only sends the input to fault.
			a, b := g.offsets[v], g.offsets[v+1]
			for a < b {
				m := int32(uint32(a+b) >> 1)
				if int(g.nbrs[m]) < u {
					a = m + 1
				} else {
					b = m
				}
			}
			if a == g.offsets[v+1] || int(g.nbrs[a]) != u || g.probs[a] != p {
				return false
			}
			upper++
		}
	}
	return upper == lower
}

// fault names the first slot, in row order, that breaks a Graph invariant,
// or returns nil if there is none. The first loop reports what
// FromSortedAdjacency has always reported. Its symmetry test calls Prob,
// which searches the shorter row, so for an edge whose two rows are equally
// long each slot finds itself; the second loop looks up every reciprocal.
func (g *Graph) fault() error {
	offsets, nbrs, probs := g.offsets, g.nbrs, g.probs
	for u := 0; u < g.n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		if lo > hi {
			return fmt.Errorf("uncertain: offsets decrease at vertex %d", u)
		}
		for i := lo; i < hi; i++ {
			v := nbrs[i]
			if int(v) < 0 || int(v) >= g.n {
				return fmt.Errorf("uncertain: row %d neighbor %d outside [0,%d): %w", u, v, g.n, ErrVertexRange)
			}
			if int(v) == u {
				return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, u, ErrSelfLoop)
			}
			if i > lo && nbrs[i-1] >= v {
				return fmt.Errorf("uncertain: row %d not strictly ascending at %d", u, v)
			}
			if err := validProb(probs[i]); err != nil {
				return fmt.Errorf("uncertain: edge {%d,%d}: %w", u, v, err)
			}
			if p, ok := g.Prob(u, int(v)); !ok || p != probs[i] {
				return fmt.Errorf("uncertain: edge {%d,%d} not symmetric", u, v)
			}
		}
	}
	for u := 0; u < g.n; u++ {
		row, pr := g.Adjacency(u)
		for i, v := range row {
			back, bp := g.Adjacency(int(v))
			if j, ok := slices.BinarySearch(back, int32(u)); !ok || bp[j] != pr[i] {
				return fmt.Errorf("uncertain: edge {%d,%d} not symmetric", u, v)
			}
		}
	}
	return nil
}

// prunedCopy returns the graph with every directed slot rejected by keep
// removed from its row, assembled directly on fresh CSR arrays. keep must
// be symmetric (keep(u,i) for slot i holding v must equal keep(v,j) for the
// reciprocal slot), which every per-edge predicate is; under that
// contract the result satisfies all Graph invariants by construction.
func (g *Graph) prunedCopy(keep func(u int, i int32) bool) *Graph {
	offsets := make([]int32, g.n+1)
	for u := 0; u < g.n; u++ {
		kept := int32(0)
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if keep(u, i) {
				kept++
			}
		}
		offsets[u+1] = offsets[u] + kept
	}
	nbrs := make([]int32, offsets[g.n])
	probs := make([]float64, offsets[g.n])
	for u := 0; u < g.n; u++ {
		w := offsets[u]
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if keep(u, i) {
				nbrs[w], probs[w] = g.nbrs[i], g.probs[i]
				w++
			}
		}
	}
	return &Graph{n: g.n, offsets: offsets, nbrs: nbrs, probs: probs}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.nbrs) / 2 }

// Degree returns the number of possible edges incident to u.
func (g *Graph) Degree(u int) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Adjacency returns u's neighbor IDs (ascending) and the parallel edge
// probabilities. Both slices are views into the graph's storage and must not
// be modified. This is the zero-allocation access path used by the
// enumeration kernels.
func (g *Graph) Adjacency(u int) ([]int32, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.nbrs[lo:hi], g.probs[lo:hi]
}

// AdjacencySuffix returns the tail of u's adjacency row holding the
// neighbors strictly greater than after, with the parallel probabilities.
// Like Adjacency, both slices are views into the graph's storage and must
// not be modified. The inlined binary search replaces a sort.Search closure
// on the enumeration hot path (GenerateI restricts every row to neighbors
// above the branching vertex).
func (g *Graph) AdjacencySuffix(u int, after int32) ([]int32, []float64) {
	lo, hi := int(g.offsets[u]), int(g.offsets[u+1])
	i, j := lo, hi
	for i < j {
		mid := int(uint(i+j) >> 1)
		if g.nbrs[mid] <= after {
			i = mid + 1
		} else {
			j = mid
		}
	}
	return g.nbrs[i:hi], g.probs[i:hi]
}

// FillRowBits scatters u's adjacency row into words as a bitmap: bit v%64
// of words[v/64] is set for every neighbor v of u. words must span the
// vertex universe (at least ⌈n/64⌉ entries) and is not cleared first —
// callers reuse zeroed buffers. This is the row accessor the bit-parallel
// intersection kernel builds its per-row bit sets from.
func (g *Graph) FillRowBits(u int, words []uint64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	for _, v := range g.nbrs[lo:hi] {
		words[v>>6] |= 1 << (uint32(v) & 63)
	}
}

// Neighbors returns a freshly allocated slice of u's neighbors, ascending.
func (g *Graph) Neighbors(u int) []int {
	row, _ := g.Adjacency(u)
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v)
	}
	return out
}

// ForEachNeighbor calls f for each neighbor of u in ascending order with the
// edge probability; returning false stops early.
func (g *Graph) ForEachNeighbor(u int, f func(v int, p float64) bool) {
	row, pr := g.Adjacency(u)
	for i, v := range row {
		if !f(int(v), pr[i]) {
			return
		}
	}
}

// Prob returns the probability of edge {u,v} and whether the edge exists in
// E. Lookups are O(log deg) via binary search on the sorted row.
func (g *Graph) Prob(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return 0, false
	}
	// Search the smaller row.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row, pr := g.Adjacency(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(v) })
	if i < len(row) && row[i] == int32(v) {
		return pr[i], true
	}
	return 0, false
}

// HasEdge reports whether {u,v} ∈ E.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.Prob(u, v)
	return ok
}

// Edges returns all edges with U < V, sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.n; u++ {
		row, pr := g.Adjacency(u)
		for i, v := range row {
			if int32(u) < v {
				out = append(out, Edge{U: u, V: int(v), P: pr[i]})
			}
		}
	}
	return out
}

// IsSupportClique reports whether set is a clique of the support graph
// (V, E), i.e. every pair is connected by a possible edge.
func (g *Graph) IsSupportClique(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if !g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// CliqueProb returns clq(set, G): the probability that set is a clique in a
// sampled world. By Observation 1 of the paper this is the product of the
// probabilities of the C(|set|,2) induced edges, and 0 if any pair is not a
// possible edge. The empty set and singletons are cliques with probability 1.
func (g *Graph) CliqueProb(set []int) float64 {
	prob := 1.0
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			p, ok := g.Prob(set[i], set[j])
			if !ok {
				return 0
			}
			prob *= p
		}
	}
	return prob
}

// IsAlphaClique reports whether clq(set, G) ≥ alpha.
func (g *Graph) IsAlphaClique(set []int, alpha float64) bool {
	return g.CliqueProb(set) >= alpha
}

// IsAlphaMaximalClique reports whether set is an α-maximal clique
// (Definition 4): an α-clique that no single outside vertex extends to
// another α-clique. This is the O(n·|set|²) reference predicate used by the
// oracles and tests; the enumeration algorithms never call it.
func (g *Graph) IsAlphaMaximalClique(set []int, alpha float64) bool {
	q := g.CliqueProb(set)
	if q < alpha {
		return false
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for u := 0; u < g.n; u++ {
		if in[u] {
			continue
		}
		// clq(set ∪ {u}) = q · ∏_{v∈set} p(u,v)
		f := 1.0
		ok := true
		for _, v := range set {
			p, has := g.Prob(u, v)
			if !has {
				ok = false
				break
			}
			f *= p
		}
		if ok && q*f >= alpha {
			return false
		}
	}
	return true
}

// PruneAlpha returns the graph with every edge of probability < alpha
// removed. By Observation 3 of the paper this preserves the set of α-cliques
// and hence of α-maximal cliques. Vertices are preserved (isolated vertices
// remain valid α-maximal singleton candidates). The copy filters the CSR
// rows directly — the probability test is symmetric, so sortedness and
// symmetry carry over from the source graph without a Builder round-trip.
func (g *Graph) PruneAlpha(alpha float64) *Graph {
	return g.prunedCopy(func(_ int, i int32) bool { return g.probs[i] >= alpha })
}

// InducedSubgraph returns the subgraph induced by verts (which may be in any
// order and must not contain duplicates) together with the mapping from new
// vertex IDs to original ones (newToOld[i] is the original ID of new vertex
// i). Vertices keep the relative order of verts.
func (g *Graph) InducedSubgraph(verts []int) (*Graph, []int, error) {
	oldToNew := make(map[int]int, len(verts))
	newToOld := make([]int, len(verts))
	for i, v := range verts {
		if v < 0 || v >= g.n {
			return nil, nil, fmt.Errorf("uncertain: vertex %d outside [0,%d): %w", v, g.n, ErrVertexRange)
		}
		if _, dup := oldToNew[v]; dup {
			return nil, nil, fmt.Errorf("uncertain: duplicate vertex %d", v)
		}
		oldToNew[v] = i
		newToOld[i] = v
	}
	b := NewBuilder(len(verts))
	for _, u := range verts {
		row, pr := g.Adjacency(u)
		for i, v := range row {
			nv, ok := oldToNew[int(v)]
			if !ok {
				continue
			}
			nu := oldToNew[u]
			if nu < nv {
				_ = b.AddEdge(nu, nv, pr[i])
			}
		}
	}
	return b.Build(), newToOld, nil
}

// Relabel returns the graph with vertices renumbered so that new vertex i is
// old vertex order[i]; order must be a permutation of 0..n-1. The inverse
// mapping (old → new) is returned for translating results back.
func (g *Graph) Relabel(order []int) (*Graph, []int, error) {
	if len(order) != g.n {
		return nil, nil, fmt.Errorf("uncertain: order has %d entries, want %d", len(order), g.n)
	}
	oldToNew := make([]int, g.n)
	for i := range oldToNew {
		oldToNew[i] = -1
	}
	for newID, oldID := range order {
		if oldID < 0 || oldID >= g.n || oldToNew[oldID] != -1 {
			return nil, nil, fmt.Errorf("uncertain: order is not a permutation")
		}
		oldToNew[oldID] = newID
	}
	b := NewBuilder(g.n)
	for u := 0; u < g.n; u++ {
		row, pr := g.Adjacency(u)
		for i, v := range row {
			if int32(u) < v {
				_ = b.AddEdge(oldToNew[u], oldToNew[int(v)], pr[i])
			}
		}
	}
	return b.Build(), oldToNew, nil
}
