package mule_test

import (
	"context"
	"errors"
	"fmt"

	mule "github.com/uncertain-graphs/mule"
)

// ExampleNewQuery mirrors the package quick start: prepare a query and
// enumerate every α-maximal clique through a visitor.
func ExampleNewQuery() {
	b := mule.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(0, 2, 0.8)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(2, 3, 0.5)
	g := b.Build()

	q, err := mule.NewQuery(g, 0.5)
	if err != nil {
		panic(err)
	}
	_, _ = q.Run(context.Background(), func(clique []int, prob float64) bool {
		fmt.Printf("%v %.3f\n", clique, prob)
		return true
	})
	// Output:
	// [0 1 2] 0.648
	// [2 3] 0.500
}

// ExampleQuery_cliques streams the cliques with Go 1.23 range-over-func:
// each iteration yields one Clique (caller-owned, unlike the reused visitor
// slice), and a break simply stops the underlying search.
func ExampleQuery_cliques() {
	b := mule.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(0, 2, 0.8)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(2, 3, 0.5)
	g := b.Build()

	q, _ := mule.NewQuery(g, 0.5)
	for c, err := range q.Cliques(context.Background()) {
		if err != nil {
			fmt.Println("aborted:", err)
			return
		}
		fmt.Printf("%v %.3f\n", c.Vertices, c.Prob)
	}
	// Output:
	// [0 1 2] 0.648
	// [2 3] 0.500
}

// ExampleQuery_timeout bounds an enumeration with a context deadline. An
// expired context aborts the run — serial or parallel — within one poll
// interval; the error wraps context.DeadlineExceeded and the stats record
// how far the search got.
func ExampleQuery_timeout() {
	b := mule.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(0, 2, 0.9)
	g := b.Build()

	q, _ := mule.NewQuery(g, 0.5)
	ctx, cancel := context.WithTimeout(context.Background(), 0) // already expired
	defer cancel()
	stats, err := q.Run(ctx, nil)
	fmt.Println(errors.Is(err, context.DeadlineExceeded), stats.Status)
	// Output:
	// true deadline
}

// ExampleQuery_parallel runs a query on the work-stealing engine. Workers
// emit cliques in a scheduling-dependent order, so the example materializes
// with Collect, which returns canonical order; the set is identical to a
// serial run.
func ExampleQuery_parallel() {
	b := mule.NewBuilder(6)
	// Two overlapping triangles sharing vertex 2, plus a pendant edge.
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(0, 2, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(2, 3, 0.8)
	_ = b.AddEdge(2, 4, 0.8)
	_ = b.AddEdge(3, 4, 0.8)
	_ = b.AddEdge(4, 5, 0.7)
	g := b.Build()

	q, _ := mule.NewQuery(g, 0.5, mule.WithWorkers(4))
	cliques, _ := q.Collect(context.Background())
	for _, c := range cliques {
		fmt.Println(c.Vertices)
	}
	// Output:
	// [0 1 2]
	// [2 3 4]
	// [4 5]
}

// ExampleQuery_topK selects the k most probable α-maximal cliques without
// materializing the full output.
func ExampleQuery_topK() {
	b := mule.NewBuilder(5)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(0, 2, 0.8)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(2, 3, 0.6)
	_ = b.AddEdge(3, 4, 0.95)
	g := b.Build()

	q, _ := mule.NewQuery(g, 0.5)
	top, _ := q.TopK(context.Background(), 2, mule.ByProb)
	for _, sc := range top {
		fmt.Printf("%v %.3f\n", sc.Vertices, sc.Prob)
	}
	// Output:
	// [3 4] 0.950
	// [0 1 2] 0.648
}

// ExampleNewBicliqueQuery_stream streams the α-maximal bicliques of an
// uncertain bipartite graph with the same range-over-func contract as
// Query.Cliques: results arrive as the search finds them, a non-nil error
// ends the stream with the abort cause, and breaking the loop stops the
// engine with nothing leaked.
func ExampleNewBicliqueQuery_stream() {
	b := mule.NewBipartiteBuilder(3, 3)
	// A strong 2×2 user-product block plus one weak pendant edge.
	_ = b.AddEdge(0, 0, 0.9)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 0, 0.9)
	_ = b.AddEdge(1, 1, 0.9)
	_ = b.AddEdge(2, 2, 0.5)
	g := b.Build()

	q, err := mule.NewBicliqueQuery(g, 0.6)
	if err != nil {
		panic(err)
	}
	for bc, err := range q.Stream(context.Background()) {
		if err != nil {
			fmt.Println("aborted:", err)
			return
		}
		fmt.Printf("%v x %v %.4f\n", bc.Left, bc.Right, bc.Prob)
	}
	// Output:
	// [0 1] x [0 1] 0.6561
}

// ExampleNewTrussQuery computes the (k,η)-truss of an uncertain graph: the
// maximal subgraph whose every edge is supported by at least k−2 triangles
// with probability ≥ η.
func ExampleNewTrussQuery() {
	b := mule.NewBuilder(5)
	// A certain triangle plus a pendant path.
	_ = b.AddEdge(0, 1, 1)
	_ = b.AddEdge(0, 2, 1)
	_ = b.AddEdge(1, 2, 1)
	_ = b.AddEdge(2, 3, 0.6)
	_ = b.AddEdge(3, 4, 0.4)
	g := b.Build()

	q, err := mule.NewTrussQuery(g, 0.9)
	if err != nil {
		panic(err)
	}
	tr, err := q.Truss(context.Background(), 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("edges in the (3,0.9)-truss:", tr.NumEdges())
	// Output:
	// edges in the (3,0.9)-truss: 3
}

// ExampleMaintainer_Apply applies a batch of edge updates atomically per
// update and receives the net clique-set diff: a clique that appears and
// then disappears within the batch cancels out.
func ExampleMaintainer_Apply() {
	b := mule.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	g := b.Build()

	m, _ := mule.NewMaintainerContext(context.Background(), g, 0.5)
	fmt.Println("cliques:", m.NumCliques())

	diff, stats, err := m.Apply(context.Background(), []mule.EdgeUpdate{
		{U: 0, V: 2, P: 0.9},       // close the triangle
		{U: 2, V: 3, P: 0.8},       // attach a pendant
		{U: 2, V: 3, Remove: true}, // …and detach it again (cancels out)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("added:", len(diff.Added), "removed:", len(diff.Removed), "updates:", stats.Updates)
	fmt.Println("cliques:", m.NumCliques())
	// Output:
	// cliques: 3
	// added: 1 removed: 2 updates: 3
	// cliques: 2
}

// ExampleNewMaintainer keeps the α-maximal clique set in sync across edge
// updates, receiving an exact diff per change. NewMaintainerContext bounds
// the seeding enumeration with a context.
func ExampleNewMaintainer() {
	b := mule.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	g := b.Build()

	m, _ := mule.NewMaintainerContext(context.Background(), g, 0.5)
	fmt.Println("cliques:", m.NumCliques())

	// Closing the triangle replaces {0,1} and {1,2} with {0,1,2}.
	diff, _, _ := m.SetEdgeContext(context.Background(), 0, 2, 0.9)
	fmt.Println("added:", len(diff.Added), "removed:", len(diff.Removed))
	fmt.Println("cliques:", m.NumCliques())
	// Output:
	// cliques: 3
	// added: 1 removed: 2
	// cliques: 2
}
