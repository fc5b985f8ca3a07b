package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// The example's numbers come from fixed seeds, so its output is pinned byte
// for byte.
func TestRunMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", got.Bytes())
	}
}

func triangleGraph(p01, p02, p12 float64) *mule.Graph {
	g, err := mule.FromEdges(3, []mule.Edge{
		{U: 0, V: 1, P: p01}, {U: 0, V: 2, P: p02}, {U: 1, V: 2, P: p12},
	})
	if err != nil {
		panic(err)
	}
	return g
}

// exactConnectedProb sums the probability of every world of the edges set
// induces in which set is connected. Edge i of the induced subgraph is in
// the world of mask exactly when bit i is set, and each world's
// connectivity is decided by a depth-first search, not by connectedProbMC's
// union-find.
func exactConnectedProb(t *testing.T, g *mule.Graph, set []int) float64 {
	t.Helper()
	if len(set) <= 1 {
		return 1
	}
	sub, _, err := g.InducedSubgraph(set)
	if err != nil {
		t.Fatal(err)
	}
	edges := sub.Edges()
	if len(edges) > 20 {
		t.Fatalf("%d induced edges: too many worlds to enumerate", len(edges))
	}
	total := 0.0
	for mask := 0; mask < 1<<len(edges); mask++ {
		pw := 1.0
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				pw *= e.P
			} else {
				pw *= 1 - e.P
			}
		}
		if pw > 0 && connectedWorld(len(set), edges, mask) {
			total += pw
		}
	}
	return total
}

// connectedWorld reports whether the n vertices are connected by the edges
// whose bits are set in mask.
func connectedWorld(n int, edges []mule.Edge, mask int) bool {
	seen := make([]bool, n)
	seen[0] = true
	stack, reached := []int{0}, 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, e := range edges {
			if mask&(1<<i) == 0 || (e.U != u && e.V != u) {
				continue
			}
			if v := e.U + e.V - u; !seen[v] {
				seen[v] = true
				reached++
				stack = append(stack, v)
			}
		}
	}
	return reached == n
}

func TestConnectedProbTrivial(t *testing.T) {
	g := triangleGraph(0.5, 0.5, 0.5)
	rng := rand.New(rand.NewSource(1))
	if got, err := connectedProbMC(g, nil, 10, rng); err != nil || got != 1 {
		t.Fatalf("empty set reliability = %v, %v", got, err)
	}
	if got, err := connectedProbMC(g, []int{1}, 10, rng); err != nil || got != 1 {
		t.Fatalf("singleton reliability = %v, %v", got, err)
	}
}

func TestExactConnectedProbPath(t *testing.T) {
	// Path 0-1-2: {0,1,2} connected iff both edges present: 0.5·0.8 = 0.4.
	g, _ := mule.FromEdges(3, []mule.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.8},
	})
	if got := exactConnectedProb(t, g, []int{0, 1, 2}); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("path reliability = %v, want 0.4", got)
	}
}

func TestExactConnectedProbTriangle(t *testing.T) {
	// Triangle with all p: connected configurations are all 3 edges (p³) or
	// any 2 edges (3p²(1-p)).
	p := 0.5
	g := triangleGraph(p, p, p)
	want := math.Pow(p, 3) + 3*math.Pow(p, 2)*(1-p)
	if got := exactConnectedProb(t, g, []int{0, 1, 2}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("triangle reliability = %v, want %v", got, want)
	}
}

func TestConnectedProbMCMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(2)
		b := mule.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.7 {
					_ = b.AddEdge(u, v, 0.2+0.7*rng.Float64())
				}
			}
		}
		g := b.Build()
		set := make([]int, n)
		for i := range set {
			set[i] = i
		}
		exact := exactConnectedProb(t, g, set)
		const samples = 20000
		mc, err := connectedProbMC(g, set, samples, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Five times the worst-case (p = 1/2) standard error.
		if math.Abs(mc-exact) > 5*0.5/math.Sqrt(samples) {
			t.Fatalf("trial %d: MC %v vs exact %v", trial, mc, exact)
		}
	}
}

// The related-work contrast the paper draws (§1.2): a set can be highly
// reliable (connected) while being a terrible clique.
func TestReliabilityVersusCliqueProbability(t *testing.T) {
	// Star: center 0 with 4 certain spokes. Connected with probability 1,
	// clique probability 0 (no spoke-to-spoke edges).
	b := mule.NewBuilder(5)
	for v := 1; v < 5; v++ {
		_ = b.AddEdge(0, v, 1.0)
	}
	g := b.Build()
	set := []int{0, 1, 2, 3, 4}
	if rel := exactConnectedProb(t, g, set); rel != 1 {
		t.Fatalf("star reliability = %v, want 1", rel)
	}
	if clq := g.CliqueProb(set); clq != 0 {
		t.Fatalf("star clique probability = %v, want 0", clq)
	}
	// And in general reliability dominates clique probability.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(3)
		bb := mule.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				_ = bb.AddEdge(u, v, 0.1+0.8*rng.Float64())
			}
		}
		gg := bb.Build()
		set := make([]int, n)
		for i := range set {
			set[i] = i
		}
		rel := exactConnectedProb(t, gg, set)
		if clq := gg.CliqueProb(set); rel < clq-1e-12 {
			t.Fatalf("reliability %v below clique probability %v", rel, clq)
		}
	}
}
