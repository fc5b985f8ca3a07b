// Bicliques: mine maximal α-bicliques from an uncertain bipartite graph —
// the first future-work direction of the paper's conclusion (§6).
//
// The scenario is a noisy user–product affinity matrix, the classic
// bipartite setting: edge (u, p) carries the predicted probability that
// user u would buy product p. An α-maximal biclique is a user group and a
// product group such that *every* user plausibly buys *every* product
// simultaneously (joint probability ≥ α) — a far stronger signal than
// overlapping purchase histories.
//
// Run with: go run ./examples/bicliques
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	mule "github.com/uncertain-graphs/mule"
)

const (
	numUsers    = 40
	numProducts = 30
)

func main() {
	ctx := context.Background()
	g := buildAffinityGraph()
	fmt.Printf("affinity graph: %d users x %d products, %d possible edges\n\n",
		g.NumLeft(), g.NumRight(), g.NumEdges())

	// Sweep the confidence threshold. High α keeps only the planted cohorts;
	// low α admits looser combinations.
	for _, alpha := range []float64{0.5, 0.2, 0.05} {
		q, err := mule.NewBicliqueQuery(g, alpha)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := q.Run(ctx, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("α = %-5g  %5d maximal bicliques  (largest %dx%d, %d search calls)\n",
			alpha, stats.Emitted, stats.MaxLeft, stats.MaxRight, stats.Calls)
	}

	// Blocks worth acting on have at least 3 users and 2 products. Like the
	// clique Query API, every run method takes a context, so the search is
	// cancellable.
	fmt.Println("\ncohorts with ≥ 3 users and ≥ 2 products at α = 0.2:")
	q, err := mule.NewBicliqueQuery(g, 0.2, mule.WithSides(3, 2))
	if err != nil {
		log.Fatal(err)
	}
	_, err = q.Run(ctx, func(users, products []int, prob float64) bool {
		fmt.Printf("  users %v x products %v   P[all buy all] = %.3f\n", users, products, prob)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
}

// buildAffinityGraph plants two strong user-product cohorts inside uniform
// background noise.
func buildAffinityGraph() *mule.Bipartite {
	rng := rand.New(rand.NewSource(42))
	b := mule.NewBipartiteBuilder(numUsers, numProducts)

	addBlock := func(users, products []int, lo, hi float64) {
		for _, u := range users {
			for _, p := range products {
				prob := lo + rng.Float64()*(hi-lo)
				if err := b.UpsertEdge(u, p, prob); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	// Cohort 1: users 0-4 are devoted to products 0-2.
	addBlock([]int{0, 1, 2, 3, 4}, []int{0, 1, 2}, 0.85, 0.99)
	// Cohort 2: users 10-13 like products 5-8, a bit less strongly.
	addBlock([]int{10, 11, 12, 13}, []int{5, 6, 7, 8}, 0.75, 0.95)

	// Sparse uniform noise everywhere else.
	for u := 0; u < numUsers; u++ {
		for p := 0; p < numProducts; p++ {
			if rng.Float64() < 0.04 {
				prob := 0.1 + rng.Float64()*0.6
				if err := b.UpsertEdge(u, p, prob); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	return b.Build()
}
