// Package ubiclique enumerates maximal α-bicliques of an uncertain bipartite
// graph. The paper's conclusion (§6) names bicliques as the first of the
// "various dense substructures" whose uncertain-graph analogue is open; this
// package carries the paper's machinery over.
//
// An uncertain bipartite graph B = (L, R, E, p) has disjoint vertex sides L
// and R, possible edges E ⊆ L×R, and independent existence probabilities
// p(e) ∈ (0, 1]. For non-empty A ⊆ L and B ⊆ R, the biclique probability
// bclq(A, B) is the probability that every pair (a, b) ∈ A×B is present in a
// sampled world — by edge independence, the product of the |A|·|B| cross-edge
// probabilities (the Observation 1 analogue), and 0 if some pair is not a
// possible edge. For a threshold α:
//
//   - (A, B) is an α-biclique if both sides are non-empty and
//     bclq(A, B) ≥ α;
//   - (A, B) is an α-maximal biclique if additionally no single vertex from
//     L or R can be added without dropping below α (the Definition 4
//     analogue).
//
// Because every factor is ≤ 1, the property is hereditary: sub-pairs of an
// α-biclique are α-bicliques. That is exactly the structure MULE exploits,
// so Enumerate runs the paper's depth-first search over the ground set L∪R
// with incremental probability multipliers and the I/X maximality test,
// extended with one bipartite-specific rule (same-side vertices share no
// edge and contribute no probability factor) and one bipartite-specific cut
// (subtrees that can never touch both sides are skipped).
package ubiclique

import (
	"fmt"
	"math"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Edge is one probabilistic cross edge: left endpoint L, right endpoint R
// (each in its own 0-based ID space) and existence probability P.
type Edge struct {
	L, R int
	P    float64
}

// Bipartite is an immutable uncertain bipartite graph on nL left and nR
// right vertices, stored as a side split over one uncertain graph on the
// ground set L∪R: left vertex l is ground l and right vertex r is ground
// nL + r, so every edge crosses the split. Adjacency rows list
// opposite-side ground IDs in ascending order, and the enumeration kernel
// walks them exactly like the unipartite CSR used by MULE.
type Bipartite struct {
	nL int
	g  *uncertain.Graph
}

// Builder accumulates probabilistic cross edges for a Bipartite.
type Builder struct {
	nL, nR int
	g      *uncertain.Builder
}

// NewBuilder returns a Builder for an uncertain bipartite graph with nLeft
// left and nRight right vertices.
func NewBuilder(nLeft, nRight int) *Builder {
	return &Builder{nL: nLeft, nR: nRight, g: uncertain.NewBuilder(nLeft + nRight)}
}

// check validates a cross edge in side coordinates: left range, then right
// range, then probability.
func (b *Builder) check(l, r int, p float64) error {
	if l < 0 || l >= b.nL {
		return fmt.Errorf("ubiclique: left vertex %d outside [0,%d): %w", l, b.nL, uncertain.ErrVertexRange)
	}
	if r < 0 || r >= b.nR {
		return fmt.Errorf("ubiclique: right vertex %d outside [0,%d): %w", r, b.nR, uncertain.ErrVertexRange)
	}
	if math.IsNaN(p) || p <= 0 || p > 1 {
		return fmt.Errorf("ubiclique: probability %v: %w", p, uncertain.ErrProbRange)
	}
	return nil
}

// AddEdge records cross edge (l, r) with probability p. It returns an error
// for out-of-range endpoints, probabilities outside (0,1], or duplicates.
func (b *Builder) AddEdge(l, r int, p float64) error {
	if err := b.check(l, r, p); err != nil {
		return err
	}
	// Past check, the ground builder can fail only on a duplicate.
	if err := b.g.AddEdge(l, b.nL+r, p); err != nil {
		return fmt.Errorf("ubiclique: edge (%d,%d): %w", l, r, uncertain.ErrDuplicateEdge)
	}
	return nil
}

// UpsertEdge is AddEdge except that an existing edge has its probability
// replaced instead of causing an error.
func (b *Builder) UpsertEdge(l, r int, p float64) error {
	if err := b.check(l, r, p); err != nil {
		return err
	}
	return b.g.UpsertEdge(l, b.nL+r, p)
}

// NumEdges reports how many distinct edges have been added so far.
func (b *Builder) NumEdges() int { return b.g.NumEdges() }

// Build finalizes the graph. The Builder may be reused afterwards.
func (b *Builder) Build() *Bipartite {
	return &Bipartite{nL: b.nL, g: b.g.Build()}
}

// FromEdges builds an uncertain bipartite graph from an edge list, failing
// on the first invalid or duplicate edge.
func FromEdges(nLeft, nRight int, edges []Edge) (*Bipartite, error) {
	b := NewBuilder(nLeft, nRight)
	for _, e := range edges {
		if err := b.AddEdge(e.L, e.R, e.P); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// NumLeft returns |L|.
func (g *Bipartite) NumLeft() int { return g.nL }

// NumRight returns |R|.
func (g *Bipartite) NumRight() int { return g.g.NumVertices() - g.nL }

// NumEdges returns |E|.
func (g *Bipartite) NumEdges() int { return g.g.NumEdges() }

// DegreeLeft returns the number of possible edges at left vertex l.
func (g *Bipartite) DegreeLeft(l int) int { return g.g.Degree(l) }

// DegreeRight returns the number of possible edges at right vertex r.
func (g *Bipartite) DegreeRight(r int) int { return g.g.Degree(g.nL + r) }

// Prob returns the probability of edge (l, r) and whether it is a possible
// edge. Out-of-range endpoints report a missing edge.
func (g *Bipartite) Prob(l, r int) (float64, bool) {
	if l < 0 || l >= g.nL || r < 0 || r >= g.NumRight() {
		return 0, false
	}
	return g.g.Prob(l, g.nL+r)
}

// HasEdge reports whether (l, r) ∈ E.
func (g *Bipartite) HasEdge(l, r int) bool {
	_, ok := g.Prob(l, r)
	return ok
}

// LeftNeighbors returns a fresh slice of the right vertices adjacent to l,
// ascending.
func (g *Bipartite) LeftNeighbors(l int) []int {
	row, _ := g.g.Adjacency(l)
	out := make([]int, len(row))
	for i, v := range row {
		out[i] = int(v) - g.nL
	}
	return out
}

// RightNeighbors returns a fresh slice of the left vertices adjacent to r,
// ascending.
func (g *Bipartite) RightNeighbors(r int) []int { return g.g.Neighbors(g.nL + r) }

// Edges returns all edges sorted by (L, R).
func (g *Bipartite) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for l := 0; l < g.nL; l++ {
		row, pr := g.g.Adjacency(l)
		for i, v := range row {
			out = append(out, Edge{L: l, R: int(v) - g.nL, P: pr[i]})
		}
	}
	return out
}

// BicliqueProb returns bclq(A, B): the probability that every pair in A×B is
// present in a sampled world — the product of the cross-edge probabilities,
// or 0 if some pair is not a possible edge. A and B must not contain
// duplicates; either side may be empty (an empty product is 1, matching the
// paper's clq(∅) = 1 convention).
func (g *Bipartite) BicliqueProb(A, B []int) float64 {
	prob := 1.0
	for _, a := range A {
		for _, b := range B {
			p, ok := g.Prob(a, b)
			if !ok {
				return 0
			}
			prob *= p
		}
	}
	return prob
}

// IsAlphaBiclique reports whether (A, B) is an α-biclique: both sides
// non-empty and bclq(A, B) ≥ alpha.
func (g *Bipartite) IsAlphaBiclique(A, B []int, alpha float64) bool {
	return len(A) > 0 && len(B) > 0 && g.BicliqueProb(A, B) >= alpha
}

// IsAlphaMaximalBiclique reports whether (A, B) is an α-maximal biclique:
// an α-biclique that no single outside vertex (on either side) extends to
// another α-biclique. This is the quadratic reference predicate used by the
// oracle and tests; the enumeration never calls it.
func (g *Bipartite) IsAlphaMaximalBiclique(A, B []int, alpha float64) bool {
	q := g.BicliqueProb(A, B)
	if len(A) == 0 || len(B) == 0 || q < alpha {
		return false
	}
	inA := make(map[int]bool, len(A))
	for _, a := range A {
		inA[a] = true
	}
	for l := 0; l < g.nL; l++ {
		if inA[l] {
			continue
		}
		if f, ok := crossFactor(g, l, B, true); ok && q*f >= alpha {
			return false
		}
	}
	inB := make(map[int]bool, len(B))
	for _, b := range B {
		inB[b] = true
	}
	for r, nR := 0, g.NumRight(); r < nR; r++ {
		if inB[r] {
			continue
		}
		if f, ok := crossFactor(g, r, A, false); ok && q*f >= alpha {
			return false
		}
	}
	return true
}

// crossFactor returns the product of edge probabilities between vertex v and
// every vertex of side (v on the left if vLeft, else on the right), and
// whether all pairs are possible edges.
func crossFactor(g *Bipartite, v int, side []int, vLeft bool) (float64, bool) {
	f := 1.0
	for _, w := range side {
		var p float64
		var ok bool
		if vLeft {
			p, ok = g.Prob(v, w)
		} else {
			p, ok = g.Prob(w, v)
		}
		if !ok {
			return 0, false
		}
		f *= p
	}
	return f, true
}

// PruneAlpha returns the graph with every edge of probability < alpha
// removed. Every cross pair of an α-biclique is an edge of probability
// ≥ α (all other factors of the product are ≤ 1), so pruning preserves the
// set of α-bicliques — the Observation 3 analogue.
func (g *Bipartite) PruneAlpha(alpha float64) *Bipartite {
	return &Bipartite{nL: g.nL, g: g.g.PruneAlpha(alpha)}
}
