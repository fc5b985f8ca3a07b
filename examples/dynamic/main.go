// Dynamic: maintain the α-maximal cliques of a drifting uncertain graph
// incrementally instead of re-enumerating after every change.
//
// The scenario is a protein-interaction network whose confidence scores are
// revised as new experimental evidence arrives — the exact setting the
// paper motivates with PPI data (§1), extended over time. Each revision
// touches one edge; the maintainer re-derives only the cliques through its
// endpoints and reports an exact diff of robust complexes gained and lost.
//
// Run with: go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	mule "github.com/uncertain-graphs/mule"
)

const (
	numProteins = 60
	alpha       = 0.4
)

func main() {
	ctx := context.Background()
	g, rng := buildInitialNetwork()
	m, err := mule.NewMaintainerContext(ctx, g, alpha)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial network: %d proteins, %d interactions, %d α-maximal complexes (α=%g)\n\n",
		m.NumVertices(), m.NumEdges(), m.NumCliques(), alpha)

	// A stream of confidence revisions: strengthen some ties, weaken or
	// retract others.
	type revision struct {
		u, v   int
		p      float64 // 0 = retract
		reason string
	}
	revisions := []revision{
		{0, 5, 0.95, "new co-purification evidence"},
		{1, 5, 0.90, "replicated in a second assay"},
		{2, 7, 0.15, "suspected false positive downgraded"},
		{0, 1, 0, "interaction retracted"},
		{0, 1, 0.85, "...and reinstated after re-analysis"},
	}
	for _, r := range revisions {
		var diff mule.CliqueDiff
		var err error
		if r.p == 0 {
			diff, _, err = m.RemoveEdgeContext(ctx, r.u, r.v)
		} else {
			diff, _, err = m.SetEdgeContext(ctx, r.u, r.v, r.p)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("revise {%d,%d} → %.2f  (%s)\n", r.u, r.v, r.p, r.reason)
		for _, c := range diff.Added {
			fmt.Printf("  + complex %v\n", c)
		}
		for _, c := range diff.Removed {
			fmt.Printf("  - complex %v\n", c)
		}
		if len(diff.Added)+len(diff.Removed) == 0 {
			fmt.Println("  (no complex changed)")
		}
	}

	// Sustained drift: many random revisions, then audit against a full
	// enumeration.
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(numProteins), rng.Intn(numProteins)
		if u == v {
			continue
		}
		if _, _, err := m.SetEdgeContext(ctx, u, v, 0.2+0.8*rng.Float64()); err != nil {
			log.Fatal(err)
		}
	}
	stats := m.Stats()
	fmt.Printf("\nafter %d revisions: %d complexes tracked (+%d/−%d across the run, %d neighborhood rebuilds)\n",
		stats.Updates, m.NumCliques(), stats.CliquesAdded, stats.CliquesRemoved, stats.Rebuilt)

	audit, err := mule.NewQuery(m.Graph(), alpha)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := audit.Count(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit: full re-enumeration finds %d complexes — %s\n",
		fresh, matchWord(int64(m.NumCliques()) == fresh))
}

func matchWord(ok bool) string {
	if ok {
		return "maintainer agrees exactly"
	}
	return "MISMATCH (bug!)"
}

// buildInitialNetwork plants a few confident complexes in sparse noise.
func buildInitialNetwork() (*mule.Graph, *rand.Rand) {
	rng := rand.New(rand.NewSource(11))
	b := mule.NewBuilder(numProteins)
	complexes := [][]int{{0, 1, 2, 3}, {5, 6, 7}, {10, 11, 12, 13, 14}}
	for _, cx := range complexes {
		for i := 0; i < len(cx); i++ {
			for j := i + 1; j < len(cx); j++ {
				if err := b.AddEdge(cx[i], cx[j], 0.7+0.3*rng.Float64()); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 2*numProteins; i++ {
		u, v := rng.Intn(numProteins), rng.Intn(numProteins)
		if u == v {
			continue
		}
		if err := b.UpsertEdge(u, v, 0.1+0.5*rng.Float64()); err != nil {
			log.Fatal(err)
		}
	}
	return b.Build(), rng
}
