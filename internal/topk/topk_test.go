package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

func randomGraph(n int, density float64, seed int64) *uncertain.Graph {
	rng := rand.New(rand.NewSource(seed))
	pf := gen.DyadicProb(3)
	b := uncertain.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v, pf(rng, u, v))
			}
		}
	}
	return b.Build()
}

// topK ranks g's α-maximal family with a Collector fed by the serial
// enumerator, the way the query layer drives it.
func topK(g *uncertain.Graph, alpha float64, k int, by Criterion) ([]ScoredClique, error) {
	col, err := NewCollector(k, by)
	if err != nil {
		return nil, err
	}
	if _, err := core.Enumerate(g, alpha, col.Visit); err != nil {
		return nil, err
	}
	return col.Drain(), nil
}

// exhaustive reference: enumerate everything, sort by the same criteria,
// truncate.
func refByProb(t *testing.T, g *uncertain.Graph, alpha float64, k int) []ScoredClique {
	t.Helper()
	var all []ScoredClique
	_, err := core.Enumerate(g, alpha, func(c []int, p float64) bool {
		cp := make([]int, len(c))
		copy(cp, c)
		all = append(all, ScoredClique{Vertices: cp, Prob: p})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(all, func(i, j int) bool { return lessByProb(all[j], all[i]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestByProbMatchesExhaustive(t *testing.T) {
	for trial := int64(0); trial < 20; trial++ {
		g := randomGraph(14, 0.5, trial)
		for _, k := range []int{1, 3, 10, 1000} {
			got, err := topK(g, 0.125, k, CriterionProb)
			if err != nil {
				t.Fatal(err)
			}
			want := refByProb(t, g, 0.125, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d:\ngot  %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

func TestByProbOrderingAndBound(t *testing.T) {
	g := randomGraph(20, 0.5, 7)
	got, err := topK(g, 0.25, 5, CriterionProb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 5 {
		t.Fatalf("returned %d > k", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Prob > got[i-1].Prob {
			t.Fatal("results not in descending probability order")
		}
	}
	for _, sc := range got {
		if !g.IsAlphaMaximalClique(sc.Vertices, 0.25) {
			t.Fatalf("%v is not α-maximal", sc.Vertices)
		}
		if g.CliqueProb(sc.Vertices) != sc.Prob {
			t.Fatal("reported probability wrong")
		}
	}
}

func TestBySizeOrdering(t *testing.T) {
	g := randomGraph(20, 0.6, 8)
	got, err := topK(g, 0.0625, 4, CriterionSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if len(got[i].Vertices) > len(got[i-1].Vertices) {
			t.Fatal("results not in descending size order")
		}
	}
	// The first result must be a maximum-size α-maximal clique.
	var maxSize int
	_, err = core.Enumerate(g, 0.0625, func(c []int, _ float64) bool {
		if len(c) > maxSize {
			maxSize = len(c)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 && len(got[0].Vertices) != maxSize {
		t.Fatalf("top size %d, true max %d", len(got[0].Vertices), maxSize)
	}
}

func TestKLargerThanOutput(t *testing.T) {
	g := randomGraph(8, 0.4, 9)
	got, err := topK(g, 0.5, 10000, CriterionProb)
	if err != nil {
		t.Fatal(err)
	}
	count, err := core.Count(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(got)) != count {
		t.Fatalf("k > output: returned %d, total cliques %d", len(got), count)
	}
}

func TestInvalidK(t *testing.T) {
	g := randomGraph(5, 0.5, 10)
	if _, err := topK(g, 0.5, 0, CriterionProb); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := topK(g, 0.5, -3, CriterionSize); err == nil {
		t.Error("negative k should fail")
	}
}

func TestDeterministicTieBreaks(t *testing.T) {
	// Two disjoint edges with equal probability: ties resolved
	// lexicographically, so results are reproducible.
	g, _ := uncertain.FromEdges(4, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 2, V: 3, P: 0.5},
	})
	a, err := topK(g, 0.5, 1, CriterionProb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topK(g, 0.5, 1, CriterionProb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ties broken nondeterministically")
	}
	if !reflect.DeepEqual(a[0].Vertices, []int{0, 1}) {
		t.Fatalf("lexicographic tie-break wrong: %v", a[0].Vertices)
	}
}

func TestSingletonsRankedLast(t *testing.T) {
	// A singleton has probability 1 — higher than any multi-vertex clique
	// with p<1 edges. Ranking by probability must respect that honestly.
	g, _ := uncertain.FromEdges(3, []uncertain.Edge{{U: 0, V: 1, P: 0.5}})
	got, err := topK(g, 0.5, 3, CriterionProb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 maximal cliques, got %d", len(got))
	}
	if got[0].Prob != 1 || !reflect.DeepEqual(got[0].Vertices, []int{2}) {
		t.Fatalf("singleton {2} (prob 1) should rank first, got %v", got[0])
	}
}
