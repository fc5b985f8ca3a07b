package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Reference: the maximum size over the full enumeration.
func maxCliqueRef(t *testing.T, g *uncertain.Graph, alpha float64) int {
	t.Helper()
	best := 0
	_, err := Enumerate(g, alpha, func(c []int, _ float64) bool {
		if len(c) > best {
			best = len(c)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return best
}

func TestMaximumCliqueMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(20)
		g := randomDyadic(n, 0.5, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := maxCliqueRef(t, g, alpha)
		got, prob, err := MaximumCliqueBudget(context.Background(), g, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != want {
			t.Fatalf("trial %d: MaximumClique size %d, enumeration max %d", trial, len(got), want)
		}
		if want > 0 {
			if !g.IsAlphaClique(got, alpha) {
				t.Fatalf("returned set %v is not an α-clique", got)
			}
			if g.CliqueProb(got) != prob {
				t.Fatalf("reported probability %v, true %v", prob, g.CliqueProb(got))
			}
		}
	}
}

func TestMaximumCliqueEdgeCases(t *testing.T) {
	// Empty graph.
	got, prob, err := MaximumCliqueBudget(context.Background(), uncertain.NewBuilder(0).Build(), 0.5, 0)
	if err != nil || len(got) != 0 || prob != 1 {
		t.Fatalf("empty graph: %v %v %v", got, prob, err)
	}
	// Isolated vertices: best is a singleton.
	got, _, err = MaximumCliqueBudget(context.Background(), uncertain.NewBuilder(3).Build(), 0.5, 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("isolated: %v %v", got, err)
	}
	// Validation.
	if _, _, err := MaximumCliqueBudget(context.Background(), nil, 0.5, 0); err == nil {
		t.Error("nil graph should fail")
	}
	if _, _, err := MaximumCliqueBudget(context.Background(), uncertain.NewBuilder(1).Build(), 0, 0); err == nil {
		t.Error("alpha=0 should fail")
	}
}

func TestMaximumCliqueAlphaShrinksSize(t *testing.T) {
	// On a complete dyadic graph, a higher α must not give a larger clique.
	b := uncertain.NewBuilder(10)
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			_ = b.AddEdge(u, v, 0.5)
		}
	}
	g := b.Build()
	prev := 11
	for _, alpha := range []float64{0.0001, 0.01, 0.125, 0.5} {
		got, _, err := MaximumCliqueBudget(context.Background(), g, alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > prev {
			t.Fatalf("max clique grew from %d to %d as α rose to %v", prev, len(got), alpha)
		}
		prev = len(got)
	}
}

func BenchmarkMaximumClique(b *testing.B) {
	g := randomDyadic(120, 0.3, rand.New(rand.NewSource(3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := MaximumCliqueBudget(context.Background(), g, 0.0625, 0); err != nil {
			b.Fatal(err)
		}
	}
}
