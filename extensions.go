package mule

import (
	"context"
	"errors"

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
// The primary surface is the prepared-query API of extquery.go
// (NewBicliqueQuery, NewQuasiQuery, NewTrussQuery, NewCoreQuery) plus the
// context-aware Maintainer methods; the flat functions below survive as
// deprecated wrappers funneled through the same constructors, with their
// exact historical behavior on valid inputs (rejections now uniformly wrap
// the typed sentinels — per-function notes call out the one case where
// that tightens what was previously accepted).

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

// BicliqueConfig tunes biclique enumeration (per-side size minima, node
// budget, invariant checking).
//
// Deprecated: BicliqueConfig survives for the legacy EnumerateBicliquesWith
// entry point. New code should build a BicliqueQuery with NewBicliqueQuery
// and the WithSides / WithBudget options.
type BicliqueConfig = ubiclique.Config

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

// runLegacyBicliques executes a BicliqueConfig-shaped run through the query
// layer with the historical callback contract: a visitor returning false is
// a successful early stop, not an error.
func runLegacyBicliques(ctx context.Context, g *Bipartite, alpha float64, visit BicliqueVisitor, cfg BicliqueConfig) (BicliqueStats, error) {
	q, err := newBicliqueQuery(base{}, g, alpha, cfg)
	if err != nil {
		return BicliqueStats{}, err
	}
	stats, err := q.Run(ctx, visit)
	if errors.Is(err, ErrStopped) {
		err = nil
	}
	return stats, err
}

// EnumerateBicliques enumerates every α-maximal biclique of g with the
// MULE-style search of internal/ubiclique.
//
// Deprecated: use NewBicliqueQuery(g, alpha) and BicliqueQuery.Run, which
// honors a context and composes with the cross-cutting query options.
func EnumerateBicliques(g *Bipartite, alpha float64, visit BicliqueVisitor) (BicliqueStats, error) {
	return runLegacyBicliques(context.Background(), g, alpha, visit, BicliqueConfig{})
}

// EnumerateBicliquesWith runs biclique enumeration with explicit
// configuration.
//
// Deprecated: use NewBicliqueQuery(g, alpha, WithSides(minL, minR), …) and
// BicliqueQuery.Run.
func EnumerateBicliquesWith(g *Bipartite, alpha float64, visit BicliqueVisitor, cfg BicliqueConfig) (BicliqueStats, error) {
	return runLegacyBicliques(context.Background(), g, alpha, visit, cfg)
}

// EnumerateBicliquesContext is EnumerateBicliquesWith under ctx: the search
// polls the context on a node-count interval, exactly like Query runs, and
// returns an error wrapping context.Canceled or context.DeadlineExceeded if
// it fires mid-run.
//
// Deprecated: use NewBicliqueQuery and BicliqueQuery.Run, whose run methods
// all take a context.
func EnumerateBicliquesContext(ctx context.Context, g *Bipartite, alpha float64, visit BicliqueVisitor, cfg BicliqueConfig) (BicliqueStats, error) {
	return runLegacyBicliques(ctx, g, alpha, visit, cfg)
}

// CollectBicliques returns all α-maximal bicliques in canonical order.
//
// Deprecated: use NewBicliqueQuery(g, alpha) and BicliqueQuery.Collect.
func CollectBicliques(g *Bipartite, alpha float64) ([]Biclique, error) {
	q, err := newBicliqueQuery(base{}, g, alpha, BicliqueConfig{})
	if err != nil {
		return nil, err
	}
	return q.Collect(context.Background())
}

// --- Maximal expected γ-quasi-cliques ---

// QuasiConfig tunes quasi-clique mining (γ, size bounds, node budget).
//
// Deprecated: QuasiConfig survives for the legacy CollectQuasiCliques entry
// point. New code should build a QuasiQuery with NewQuasiQuery and the
// WithGamma / WithMinSize / WithMaxSize / WithBudget options.
type QuasiConfig = uquasi.Config

// QuasiStats reports the work performed by a quasi-clique mining run,
// including its terminal Status.
type QuasiStats = uquasi.Stats

// CollectQuasiCliques mines all maximal expected γ-quasi-cliques: vertex
// sets in which every member's expected degree into the set is at least
// γ·(|set|−1) and that no proper superset satisfies. cfg.Gamma must lie in
// [0.5, 1].
//
// Deprecated: use NewQuasiQuery(g, WithGamma(γ)) and QuasiQuery.Collect,
// which honors a context and composes with the cross-cutting query options.
func CollectQuasiCliques(g *Graph, cfg QuasiConfig) ([][]int, error) {
	q, err := newQuasiQuery(base{}, g, cfg)
	if err != nil {
		return nil, err
	}
	return q.Collect(context.Background())
}

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

// Truss returns the (k,η)-truss of g: the unique maximal subgraph whose
// every edge has probability ≥ η of being supported by at least k−2
// triangles within the subgraph.
//
// Deprecated: use NewTrussQuery(g, eta) and TrussQuery.Truss(ctx, k), which
// honors a context and composes with WithBudget.
func Truss(g *Graph, k int, eta float64) (*Graph, error) {
	q, err := newTrussQuery(base{}, g, eta, utruss.Config{})
	if err != nil {
		return nil, err
	}
	return q.Truss(context.Background(), k)
}

// TrussDecompose assigns every edge its η-truss number.
//
// Deprecated: use NewTrussQuery(g, eta) and TrussQuery.Collect (or Stream,
// which yields edges in peel order as the decomposition discovers them).
func TrussDecompose(g *Graph, eta float64) ([]EdgeTruss, error) {
	q, err := newTrussQuery(base{}, g, eta, utruss.Config{})
	if err != nil {
		return nil, err
	}
	return q.Collect(context.Background())
}

// TrussSupportProb returns P[supp(e) ≥ t] for edge {u,v}: the exact
// Poisson-binomial tail over the wedges through the edge.
func TrussSupportProb(g *Graph, u, v, t int) (float64, error) {
	return utruss.SupportProb(g, u, v, t)
}

// --- (k,η)-cores ---

// CoreDecomposition holds η-core numbers for every vertex.
type CoreDecomposition = ucore.Decomposition

// CoreDecompose computes the (k,η)-core decomposition of g.
//
// Deprecated: use NewCoreQuery(g, eta) and CoreQuery.Decompose (or Stream,
// which yields vertices in peel order), which honors a context and composes
// with WithBudget.
func CoreDecompose(g *Graph, eta float64) (CoreDecomposition, error) {
	q, err := newCoreQuery(base{}, g, eta, ucore.Config{})
	if err != nil {
		return CoreDecomposition{}, err
	}
	return q.Decompose(context.Background())
}

// Core returns the vertices of the (k,η)-core of g. One validation
// tightening vs the historical implementation: a negative k — previously a
// degenerate all-vertices query — now reports a wrapped ErrKRange, like
// the query method.
//
// Deprecated: use NewCoreQuery(g, eta) and CoreQuery.Core(ctx, k).
func Core(g *Graph, k int, eta float64) ([]int, error) {
	q, err := newCoreQuery(base{}, g, eta, ucore.Config{})
	if err != nil {
		return nil, err
	}
	return q.Core(context.Background(), k)
}

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

// TopKByProb returns the k α-maximal cliques with the highest clique
// probability (descending; ties by size then lexicographic order).
//
// Deprecated: use NewQuery(g, alpha) and Query.TopK(ctx, k, ByProb), which
// honors a context and composes with the other query options.
func TopKByProb(g *Graph, alpha float64, k int) ([]ScoredClique, error) {
	return topk.ByProb(g, alpha, k)
}

// TopKBySize returns the k largest α-maximal cliques (descending; ties by
// probability then lexicographic order).
//
// Deprecated: use NewQuery(g, alpha) and Query.TopK(ctx, k, BySize).
func TopKBySize(g *Graph, alpha float64, k int) ([]ScoredClique, error) {
	return topk.BySize(g, alpha, k)
}
