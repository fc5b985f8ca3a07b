package mule_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// buildDocGraph is the graph from the package documentation.
func buildDocGraph(t *testing.T) *mule.Graph {
	t.Helper()
	b := mule.NewBuilder(4)
	for _, e := range []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 0, V: 2, P: 0.8}, {U: 1, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.5},
	} {
		if err := b.AddEdge(e.U, e.V, e.P); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// collectVertices runs q.Collect and returns the vertex sets alone.
func collectVertices(t *testing.T, q *mule.Query) [][]int {
	t.Helper()
	cs, err := q.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, len(cs))
	for i, c := range cs {
		out[i] = c.Vertices
	}
	return out
}

// newQuery is mule.NewQuery for arguments the test knows are valid.
func newQuery(t *testing.T, g *mule.Graph, alpha float64, opts ...mule.Option) *mule.Query {
	t.Helper()
	q, err := mule.NewQuery(g, alpha, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestFacadeQuickstart(t *testing.T) {
	g := buildDocGraph(t)
	got := collectVertices(t, newQuery(t, g, 0.5))
	// clq({0,1,2}) = 0.9·0.8·0.9 = 0.648 ≥ 0.5; {2,3} = 0.5 ≥ 0.5.
	want := [][]int{{0, 1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Collect = %v, want %v", got, want)
	}
}

func TestFacadeEnumerateAndCount(t *testing.T) {
	ctx := context.Background()
	q := newQuery(t, buildDocGraph(t), 0.5)
	var seen int
	stats, err := q.Run(ctx, func(c []int, p float64) bool {
		seen++
		if p < 0.5 {
			t.Fatalf("clique %v reported with prob %v < α", c, p)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 2 || stats.Emitted != 2 {
		t.Fatalf("enumerated %d cliques (stats %d), want 2", seen, stats.Emitted)
	}
	n, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

func TestFacadeLarge(t *testing.T) {
	q := newQuery(t, buildDocGraph(t), 0.5, mule.WithMinSize(3))
	var got [][]int
	_, err := q.Run(context.Background(), func(c []int, _ float64) bool {
		cp := make([]int, len(c))
		copy(cp, c)
		got = append(got, cp)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
		t.Fatalf("LARGE-MULE(3) = %v", got)
	}
}

func TestFacadeConfigAndOrderings(t *testing.T) {
	g := buildDocGraph(t)
	want := collectVertices(t, newQuery(t, g, 0.5))
	for _, ord := range []mule.Ordering{mule.OrderNatural, mule.OrderDegree, mule.OrderDegeneracy, mule.OrderRandom} {
		var got [][]int
		q := newQuery(t, g, 0.5, mule.WithOrdering(ord), mule.WithWorkers(2))
		_, err := q.Run(context.Background(), func(c []int, _ float64) bool {
			cp := make([]int, len(c))
			copy(cp, c)
			got = append(got, cp)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ordering %v: %d cliques, want %d", ord, len(got), len(want))
		}
	}
}

func TestFacadePredicates(t *testing.T) {
	g := buildDocGraph(t)
	if p := mule.CliqueProb(g, []int{0, 1, 2}); math.Abs(p-0.648) > 1e-12 {
		t.Fatalf("CliqueProb = %v, want ≈ 0.648", p)
	}
	if !mule.IsAlphaMaximalClique(g, []int{0, 1, 2}, 0.5) {
		t.Fatal("{0,1,2} should be 0.5-maximal")
	}
	if mule.IsAlphaMaximalClique(g, []int{0, 1}, 0.5) {
		t.Fatal("{0,1} is extendable")
	}
}

func TestFacadeFromEdges(t *testing.T) {
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Fatal("FromEdges built wrong graph")
	}
	if _, err := mule.FromEdges(2, []mule.Edge{{U: 0, V: 0, P: 0.5}}); err == nil {
		t.Fatal("self-loop should fail")
	}
}
