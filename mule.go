// Package mule is a Go implementation of "Mining Maximal Cliques from an
// Uncertain Graph" (Mukherjee, Xu, Tirthapura; ICDE 2015).
//
// An uncertain graph G = (V, E, p) assigns each possible edge an independent
// existence probability. For a threshold α ∈ (0,1], a vertex set M is an
// α-maximal clique if it is a clique with probability ≥ α (the product of
// its edge probabilities) and no vertex can be added without dropping below
// α. This package enumerates all α-maximal cliques with the paper's MULE
// algorithm — depth-first search with incremental probability maintenance
// and O(1) maximality detection — and its LARGE-MULE variant restricted to
// cliques of a minimum size.
//
// Quick start — build a graph, prepare a Query, range over its cliques:
//
//	b := mule.NewBuilder(4)
//	_ = b.AddEdge(0, 1, 0.9)
//	_ = b.AddEdge(0, 2, 0.8)
//	_ = b.AddEdge(1, 2, 0.9)
//	_ = b.AddEdge(2, 3, 0.5)
//	g := b.Build()
//	q, _ := mule.NewQuery(g, 0.5)
//	for c, err := range q.Cliques(context.Background()) {
//		if err != nil {
//			log.Fatal(err)
//		}
//		fmt.Println(c.Vertices, c.Prob)
//	}
//
// NewQuery with functional options (WithMinSize, WithWorkers, WithLimit,
// WithBudget, …) is the primary API: a Query is validated once, reusable,
// and every run method — Run, Collect, Count, TopK, Maximum, Cliques —
// takes a context.Context, so enumerations are cancellable and
// deadline-bounded all the way into the search kernels.
//
// WithWorkers(w) with w > 1 runs the search on a work-stealing parallel
// engine: each worker executes its own subtree depth-first from a private
// deque of splittable search frames and steals half of the oldest frames
// from a victim when its deque drains, so even a single dominant subtree —
// the norm on skewed power-law inputs — is spread across all cores. The
// visitor is serialized across workers and early stop (returning false)
// aborts every worker; the emitted clique set is identical to a serial run,
// though the order cliques are visited in is scheduling-dependent.
//
// The facade re-exports the core types from the internal packages; the
// internal packages additionally provide generators (internal/gen), file
// formats (internal/graphio), baselines and oracles (internal/baseline),
// extremal-bound machinery (internal/bounds) and the experiment harness
// (internal/bench) used by cmd/experiments.
//
// The dense-substructure extensions the paper's conclusion names as future
// work share the same prepared-query ergonomics (extquery.go): maximal
// α-bicliques (NewBicliqueQuery), expected γ-quasi-cliques (NewQuasiQuery),
// (k,η)-trusses (NewTrussQuery), (k,η)-cores (NewCoreQuery), top-k
// selection (Query.TopK) and incremental maintenance under edge updates
// (NewMaintainer, whose SetEdgeContext/RemoveEdgeContext/Apply methods are
// context-aware and report per-operation stats). Every query type validates
// eagerly against the same typed sentinels, supports the applicable
// cross-cutting options (WithLimit, WithBudget, per-miner knobs like
// WithGamma and WithSides), and exposes Run/Collect/Count plus a Stream
// range-over-func with the Query.Cliques break-stops-the-engine contract.
package mule

import (
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Graph is an immutable uncertain graph; build one with NewBuilder or
// FromEdges.
type Graph = uncertain.Graph

// Builder accumulates probabilistic edges for a Graph.
type Builder = uncertain.Builder

// Edge is one probabilistic edge (endpoints U, V and probability P).
type Edge = uncertain.Edge

// Stats reports the work performed by an enumeration run, including its
// terminal Status (complete, stopped, canceled, deadline, budget).
type Stats = core.Stats

// Visitor receives each α-maximal clique (sorted, reused between calls) and
// its clique probability; returning false stops the enumeration.
type Visitor = core.Visitor

// Ordering selects the vertex numbering used by the search.
type Ordering = core.Ordering

// Vertex ordering strategies.
const (
	OrderNatural    = core.OrderNatural
	OrderDegree     = core.OrderDegree
	OrderDegeneracy = core.OrderDegeneracy
	OrderRandom     = core.OrderRandom
)

// IntersectMode selects the intersection kernel policy (see WithIntersect).
type IntersectMode = core.IntersectMode

// Intersection kernel policies: density-adaptive (the default), or forced
// sorted/bitset for equivalence tests and ablations.
const (
	IntersectAdaptive = core.IntersectAdaptive
	IntersectSorted   = core.IntersectSorted
	IntersectBitset   = core.IntersectBitset
)

// NewBuilder returns a Builder for an uncertain graph on n vertices.
func NewBuilder(n int) *Builder { return uncertain.NewBuilder(n) }

// FromEdges builds an uncertain graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return uncertain.FromEdges(n, edges) }

// CliqueProb returns clq(set, g): the probability that set is a clique in a
// world sampled from g (Observation 1: the product of induced edge
// probabilities; 0 if set is not a clique of the support graph).
func CliqueProb(g *Graph, set []int) float64 { return g.CliqueProb(set) }

// IsAlphaMaximalClique reports whether set satisfies Definition 4 of the
// paper for the given α. This is the O(n·|set|²) reference predicate, not
// the enumeration fast path.
func IsAlphaMaximalClique(g *Graph, set []int, alpha float64) bool {
	return g.IsAlphaMaximalClique(set, alpha)
}
