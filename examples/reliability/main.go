// Reliable subgraphs versus α-cliques: the contrast the paper's related-work
// section draws (§1.2). Reliable-subgraph mining (Hintsanen & Toivonen; Jin
// et al.) finds vertex sets that are CONNECTED with high probability — but
// such sets can be sparse (a star is perfectly reliable with zero clique
// probability). An α-clique demands full pairwise connection, a much
// stronger notion of cohesion.
//
// This example quantifies the gap on a planted-community graph: for each
// α-maximal clique and for some loose connected neighborhoods, it compares
// connectivity reliability against clique probability.
//
// Run with: go run ./examples/reliability
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(11))
	edges, planted := gen.PlantedCliques(120, 3, 6, 0.04, rng)
	g, err := gen.BuildUncertain(120, edges, gen.UniformRangeProb(0.6, 0.95), rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "planted-community graph: %d vertices, %d edges, 3 planted 6-cliques\n\n",
		g.NumVertices(), g.NumEdges())

	ctx := context.Background()
	const alpha = 0.05
	const samples = 20000
	fmt.Fprintf(w, "top α-maximal cliques (α=%.2f): clique probability vs connectivity reliability\n", alpha)
	q, err := mule.NewQuery(g, alpha)
	if err != nil {
		return err
	}
	scored, err := q.TopK(ctx, 6, mule.BySize)
	if err != nil {
		return err
	}
	for _, sc := range scored {
		if len(sc.Vertices) < 4 {
			continue
		}
		rel, err := connectedProbMC(g, sc.Vertices, samples, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %v\n    P[clique] = %.4f   P[connected] = %.4f\n",
			sc.Vertices, sc.Prob, rel)
	}

	// A star-shaped neighborhood: reliable but nothing like a clique.
	hub, best := -1, -1
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > best {
			hub, best = v, d
		}
	}
	nbrs := g.Neighbors(hub)
	if len(nbrs) > 5 {
		nbrs = nbrs[:5]
	}
	star := append([]int{hub}, nbrs...)
	rel, err := connectedProbMC(g, star, samples, rng)
	if err != nil {
		return err
	}
	clq := mule.CliqueProb(g, star)
	fmt.Fprintf(w, "\nhub neighborhood %v (a near-star):\n", star)
	fmt.Fprintf(w, "    P[clique] = %.4f   P[connected] = %.4f\n", clq, rel)
	fmt.Fprintln(w, "\nreliable ≠ cohesive: reliability stays high for sparse sets, while")
	fmt.Fprintln(w, "the α-clique requirement collapses to 0 the moment a pair is missing.")

	if _, maxP, err := q.Maximum(ctx); err == nil {
		fmt.Fprintf(w, "\nlargest α-clique probability at α=%.2f: %.4f\n", alpha, maxP)
	}

	// Verify one planted clique is recovered among the α-maximal cliques.
	for _, want := range planted {
		if mule.CliqueProb(g, want) >= alpha {
			fmt.Fprintf(w, "planted clique %v has clique probability %.4f (≥ α, recovered)\n",
				want, mule.CliqueProb(g, want))
			break
		}
	}
	return nil
}

// connectedProbMC estimates the probability that set is connected in a world
// sampled from g: the subgraph reliability that reliable-subgraph mining
// maximizes, against which an α-clique's probability is a far stronger
// demand. Each sample draws one rng.Float64() per edge induced by set, in
// the induced subgraph's Edges() order, and joins the kept edges' endpoints
// in a union-find over set's local indices.
func connectedProbMC(g *mule.Graph, set []int, samples int, rng *rand.Rand) (float64, error) {
	if len(set) <= 1 {
		return 1, nil
	}
	sub, _, err := g.InducedSubgraph(set)
	if err != nil {
		return 0, err
	}
	edges := sub.Edges()
	parent := make([]int, len(set))
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	hits := 0
	for t := 0; t < samples; t++ {
		for i := range parent {
			parent[i] = i
		}
		parts := len(set)
		for _, e := range edges {
			if rng.Float64() < e.P {
				if a, b := find(e.U), find(e.V); a != b {
					parent[a] = b
					parts--
				}
			}
		}
		if parts == 1 {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}
