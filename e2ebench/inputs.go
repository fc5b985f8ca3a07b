package main

import (
	"math/rand"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
)

// The biclique and quasi-clique inputs plant their dense blocks at fixed,
// disjoint positions and let the seed draw the probabilities and the
// background noise. The internal/bench generators place blocks at random,
// and whether two blocks happen to overlap swings a run's cost by 10x from
// one seed to the next (bicliques on the 200x150 affinity graph took 26 ms
// to 334 ms over seeds 1 to 6); a benchmark whose figures must agree across
// seeds needs inputs whose cost does not hinge on such a coincidence.

// denseGNM is internal/bench.DenseGNPGraph with exactly round(p·n(n−1)/2)
// edges (G(n, m) rather than G(n, p)) at probabilities in [0.85, 0.99].
// The clique count grows with a high power of the edge count, so G(n, p)'s
// ±0.7% edge-count jitter became ±7% in the answer size and the run time
// from seed to seed; fixing the edge count leaves about ±1%.
func denseGNM(n int, p float64, seed int64) *mule.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := mule.NewBuilder(n)
	for _, e := range gen.GNM(n, int(p*float64(n*(n-1)/2)+0.5), rng) {
		_ = b.AddEdge(e[0], e[1], 0.85+0.14*rng.Float64())
	}
	return b.Build()
}

// cohortBipartite is the planted-cohort user-product graph of
// internal/bench.AffinityBipartite with the cohorts laid out disjointly:
// blocks cohorts of 6 users x 4 products at probabilities in [0.8, 0.99],
// in uniform background noise of 4 edges per user at [0.1, 0.8].
func cohortBipartite(nUsers, nProducts, blocks int, seed int64) *mule.Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := mule.NewBipartiteBuilder(nUsers, nProducts)
	for blk := 0; blk < blocks; blk++ {
		u0, p0 := blk*(nUsers/blocks), blk*(nProducts/blocks)
		for u := u0; u < u0+6; u++ {
			for p := p0; p < p0+4; p++ {
				_ = b.UpsertEdge(u, p, 0.8+rng.Float64()*0.19)
			}
		}
	}
	for i := 0; i < 4*nUsers; i++ {
		_ = b.UpsertEdge(rng.Intn(nUsers), rng.Intn(nProducts), 0.1+rng.Float64()*0.7)
	}
	return b.Build()
}

// communityGraph is internal/bench.CommunityGraph with the communities laid
// out disjointly: communities cliques of size vertices with edge
// probabilities in [0.6, 0.99], over a G(n, 0.01) background.
func communityGraph(n, communities, size int, seed int64) *mule.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := mule.NewBuilder(n)
	for _, e := range gen.GNP(n, 0.01, rng) {
		_ = b.UpsertEdge(e[0], e[1], 0.6+rng.Float64()*0.39)
	}
	for c := 0; c < communities; c++ {
		v0 := c * (n / communities)
		for u := v0; u < v0+size; u++ {
			for v := u + 1; v < v0+size; v++ {
				_ = b.UpsertEdge(u, v, 0.6+rng.Float64()*0.39)
			}
		}
	}
	return b.Build()
}
