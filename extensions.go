package mule

import (
	"context"

	"github.com/uncertain-graphs/mule/internal/dynamic"
	"github.com/uncertain-graphs/mule/internal/topk"
	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/ucore"
	"github.com/uncertain-graphs/mule/internal/uquasi"
	"github.com/uncertain-graphs/mule/internal/utruss"
)

// This file exposes the dense-substructure extensions the paper's
// conclusion (§6) names as future work — bicliques, quasi-cliques, trusses
// and cores over uncertain graphs — together with top-k selection over
// α-maximal cliques (the Zou et al. problem of §1.2 recast against
// Definition 4).
//
// The miners run through the prepared-query API of extquery.go
// (NewBicliqueQuery, NewQuasiQuery, NewTrussQuery, NewCoreQuery) and the
// context-aware Maintainer methods; this file holds the types they share,
// the standalone predicates and the Maintainer constructors.

// --- Maximal α-bicliques (uncertain bipartite graphs) ---

// Bipartite is an immutable uncertain bipartite graph; build one with
// NewBipartiteBuilder or BipartiteFromEdges.
type Bipartite = ubiclique.Bipartite

// BipartiteBuilder accumulates probabilistic cross edges for a Bipartite.
type BipartiteBuilder = ubiclique.Builder

// BipartiteEdge is one probabilistic cross edge (left L, right R,
// probability P).
type BipartiteEdge = ubiclique.Edge

// Biclique is one materialized α-maximal biclique.
type Biclique = ubiclique.Biclique

// BicliqueVisitor receives each α-maximal biclique (sides sorted, reused
// between calls); returning false stops the enumeration.
type BicliqueVisitor = ubiclique.Visitor

// BicliqueStats reports the work performed by a biclique enumeration run,
// including its terminal Status.
type BicliqueStats = ubiclique.Stats

// NewBipartiteBuilder returns a builder for an uncertain bipartite graph
// with the given side sizes.
func NewBipartiteBuilder(nLeft, nRight int) *BipartiteBuilder {
	return ubiclique.NewBuilder(nLeft, nRight)
}

// BipartiteFromEdges builds an uncertain bipartite graph from an edge list.
func BipartiteFromEdges(nLeft, nRight int, edges []BipartiteEdge) (*Bipartite, error) {
	return ubiclique.FromEdges(nLeft, nRight, edges)
}

// --- Maximal expected γ-quasi-cliques ---

// QuasiStats reports the work performed by a quasi-clique mining run,
// including its terminal Status.
type QuasiStats = uquasi.Stats

// IsExpectedQuasiClique reports whether set satisfies the expected-degree
// γ-quasi-clique condition.
func IsExpectedQuasiClique(g *Graph, set []int, gamma float64) bool {
	return uquasi.IsExpectedQuasiClique(g, set, gamma)
}

// QuasiCliqueWorldProb returns the exact probability that a sampled world
// induces a deterministic γ-quasi-clique on set (possible-world semantics;
// exponential in the number of induced edges, capped at 24).
func QuasiCliqueWorldProb(g *Graph, set []int, gamma float64) (float64, error) {
	return uquasi.WorldProbExact(g, set, gamma)
}

// QuasiCliqueWorldProbMC estimates the same probability by Monte-Carlo
// sampling.
func QuasiCliqueWorldProbMC(g *Graph, set []int, gamma float64, samples int, seed int64) (float64, error) {
	return uquasi.WorldProbMC(g, set, gamma, samples, seed)
}

// --- (k,η)-trusses ---

// EdgeTruss reports the η-truss number of one edge.
type EdgeTruss = utruss.EdgeTruss

// TrussSupportProb returns P[supp(e) ≥ t] for edge {u,v}: the exact
// Poisson-binomial tail over the wedges through the edge.
func TrussSupportProb(g *Graph, u, v, t int) (float64, error) {
	return utruss.SupportProb(g, u, v, t)
}

// --- (k,η)-cores ---

// CoreDecomposition holds η-core numbers for every vertex.
type CoreDecomposition = ucore.Decomposition

// --- Dynamic maintenance of α-maximal cliques ---

// Maintainer keeps the set of α-maximal cliques in sync across edge
// updates, re-enumerating only the neighborhoods the change can affect.
// SetEdgeContext, RemoveEdgeContext, and Apply take a context.Context and
// return the clique-set diff plus per-operation MaintainerStats; Stream
// ranges over the current clique set.
type Maintainer = dynamic.Maintainer

// CliqueDiff reports the clique-set change caused by one edge update.
type CliqueDiff = dynamic.Diff

// EdgeUpdate is one element of a Maintainer.Apply batch: set edge {U,V} to
// probability P, or remove it when Remove is true.
type EdgeUpdate = dynamic.EdgeUpdate

// MaintainerStats reports maintainer work: cumulative totals from
// Maintainer.Stats, or one operation's work (with its terminal Status) from
// the context-aware update methods.
type MaintainerStats = dynamic.Stats

// NewMaintainer builds a dynamic maintainer seeded with a full MULE
// enumeration of g at threshold alpha. Subsequent updates mutate the graph
// and return exact clique-set diffs.
func NewMaintainer(g *Graph, alpha float64) (*Maintainer, error) {
	return dynamic.New(g, alpha)
}

// NewMaintainerContext is NewMaintainer under ctx: the seeding enumeration
// — a full graph-sized MULE run, the expensive part of construction — is
// cancellable and deadline-bounded like any Query run.
func NewMaintainerContext(ctx context.Context, g *Graph, alpha float64) (*Maintainer, error) {
	return dynamic.NewContext(ctx, g, alpha)
}

// --- Top-k α-maximal cliques ---

// ScoredClique is one α-maximal clique with its clique probability.
type ScoredClique = topk.ScoredClique

// TopKCriterion selects the ranking used by Query.TopK.
type TopKCriterion = topk.Criterion

// Rankings for Query.TopK.
const (
	// ByProb ranks by clique probability, highest first (ties: larger
	// cliques, then lexicographically smaller vertex sets).
	ByProb = topk.CriterionProb
	// BySize ranks by clique size, largest first (ties: higher probability,
	// then lexicographically smaller vertex sets).
	BySize = topk.CriterionSize
)
