package uncertain

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestExpectedDegree(t *testing.T) {
	g, _ := FromEdges(3, []Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.25}})
	if got := g.ExpectedDegree(0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("ExpectedDegree(0) = %v, want 0.75", got)
	}
	if got := g.ExpectedDegree(2); got != 0.25 {
		t.Fatalf("ExpectedDegree(2) = %v, want 0.25", got)
	}
}

func TestComponentsKnown(t *testing.T) {
	g, _ := FromEdges(6, []Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 4, V: 5, P: 0.5},
	})
	got := g.Components()
	want := [][]int{{0, 1, 2}, {3}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Components = %v, want %v", got, want)
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	if got := NewBuilder(0).Build().Components(); len(got) != 0 {
		t.Fatalf("empty graph components = %v", got)
	}
}

// Property: components partition V, and every edge stays within one
// component.
func TestQuickComponentsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		g := randomUncertain(n, 0.08, r)
		comps := g.Components()
		seen := map[int]int{}
		for ci, comp := range comps {
			for _, v := range comp {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
			}
		}
		if len(seen) != n {
			return false
		}
		for _, e := range g.Edges() {
			if seen[e.U] != seen[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: adjacency views agree with the edge list (CSR integrity under
// arbitrary random graphs, quick-checked).
func TestQuickAdjacencyMatchesEdges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g := randomUncertain(n, 0.3, r)
		count := 0
		for u := 0; u < n; u++ {
			row, probs := g.Adjacency(u)
			for i, v := range row {
				p, ok := g.Prob(int(v), u)
				if !ok || p != probs[i] {
					return false
				}
				if int32(u) < v {
					count++
				}
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelComponentLabelsMatchBFS pins the chunked parallel union-find
// (componentForest) against a reference BFS labeling on a graph large enough
// to cross the dsuParVertices threshold, including many isolated vertices
// and multi-vertex components spanning worker boundaries.
func TestParallelComponentLabelsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := dsuParVertices + 1000
	var edges []Edge
	// Sparse random edges leave a mix of large components, small chains,
	// and isolated vertices.
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, Edge{U: u, V: v, P: 0.5})
	}
	g, err := FromEdges(n, dedupEdges(edges))
	if err != nil {
		t.Fatal(err)
	}

	comp, count := g.componentLabels()

	// Reference: BFS labeling in ascending-seed order.
	ref := make([]int32, n)
	for i := range ref {
		ref[i] = -1
	}
	refCount := 0
	var queue []int32
	for s := 0; s < n; s++ {
		if ref[s] != -1 {
			continue
		}
		id := int32(refCount)
		refCount++
		ref[s] = id
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			row, _ := g.Adjacency(int(v))
			for _, w := range row {
				if ref[w] == -1 {
					ref[w] = id
					queue = append(queue, w)
				}
			}
		}
	}

	if count != refCount {
		t.Fatalf("component count = %d, want %d", count, refCount)
	}
	for v := 0; v < n; v++ {
		if comp[v] != ref[v] {
			t.Fatalf("comp[%d] = %d, want %d", v, comp[v], ref[v])
		}
	}
}

func dedupEdges(edges []Edge) []Edge {
	seen := make(map[[2]int]bool, len(edges))
	out := edges[:0]
	for _, e := range edges {
		k := [2]int{e.U, e.V}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}
