package uncertain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// scanOf adapts a fixed edge list (with declared vertex count) to an
// EdgeScan.
func scanOf(n int, edges []Edge) EdgeScan {
	return func(emit func(u, v int, p float64) error) (int, error) {
		for _, e := range edges {
			if err := emit(e.U, e.V, e.P); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
}

func randomEdges(rng *rand.Rand, n int, density float64) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{U: u, V: v, P: 0.05 + 0.95*rng.Float64()})
			}
		}
	}
	return edges
}

func TestFromEdgeScannerMatchesFromEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		edges := randomEdges(rng, n, rng.Float64())
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("FromEdges: %v", err)
		}
		got, err := FromEdgeScanner(scanOf(n, edges))
		if err != nil {
			t.Fatalf("FromEdgeScanner: %v", err)
		}
		if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("shape mismatch: got %d/%d want %d/%d",
				got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("edge sets differ")
		}
	}
}

func TestFromEdgeScannerInfersVertexCount(t *testing.T) {
	g, err := FromEdgeScanner(scanOf(-1, []Edge{{U: 0, V: 5, P: 0.5}}))
	if err != nil {
		t.Fatalf("FromEdgeScanner: %v", err)
	}
	if g.NumVertices() != 6 {
		t.Fatalf("inferred %d vertices, want 6", g.NumVertices())
	}
}

func TestFromEdgeScannerErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		e    Edge
		want error
	}{
		{"self loop", 3, Edge{U: 1, V: 1, P: 0.5}, ErrSelfLoop},
		{"negative endpoint", 3, Edge{U: -1, V: 1, P: 0.5}, ErrVertexRange},
		{"endpoint beyond count", 3, Edge{U: 0, V: 7, P: 0.5}, ErrVertexRange},
		{"zero probability", 3, Edge{U: 0, V: 1, P: 0}, ErrProbRange},
		{"probability above one", 3, Edge{U: 0, V: 1, P: 1.5}, ErrProbRange},
	}
	for _, tc := range cases {
		if _, err := FromEdgeScanner(scanOf(tc.n, []Edge{tc.e})); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	dup := []Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 0, P: 0.5}}
	if _, err := FromEdgeScanner(scanOf(2, dup)); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate edge: got %v, want ErrDuplicateEdge", err)
	}
}

func TestFromEdgeScannerUnstableScan(t *testing.T) {
	pass := 0
	unstable := func(emit func(u, v int, p float64) error) (int, error) {
		pass++
		if pass == 1 {
			if err := emit(0, 1, 0.5); err != nil {
				return 0, err
			}
		}
		// Second pass emits nothing.
		return 2, nil
	}
	if _, err := FromEdgeScanner(unstable); err == nil {
		t.Fatal("unstable scan accepted")
	}
}

// randomComponents builds a graph of several random connected components
// with interleaved vertex IDs, returning the graph.
func randomComponents(rng *rand.Rand, t *testing.T) *Graph {
	t.Helper()
	parts := 1 + rng.Intn(6)
	sizes := make([]int, parts)
	n := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(10)
		n += sizes[i]
	}
	// Scatter component members across the ID space with a random
	// permutation so remapping is non-trivial.
	perm := rng.Perm(n)
	b := NewBuilder(n)
	at := 0
	for _, sz := range sizes {
		ids := perm[at : at+sz]
		at += sz
		for j := 1; j < sz; j++ { // spanning tree keeps the part connected
			k := rng.Intn(j)
			if err := b.AddEdge(ids[j], ids[k], 0.1+0.9*rng.Float64()); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
		for extra := rng.Intn(sz + 1); extra > 0; extra-- {
			j, k := rng.Intn(sz), rng.Intn(sz)
			if j != k {
				_ = b.UpsertEdge(ids[j], ids[k], 0.1+0.9*rng.Float64())
			}
		}
	}
	return b.Build()
}

func TestShardByComponentMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		g := randomComponents(rng, t)
		comps := g.Components()
		var shards []Shard
		for sh := range g.ShardByComponent() {
			shards = append(shards, sh)
		}
		if len(shards) != len(comps) {
			t.Fatalf("trial %d: %d shards, %d components", trial, len(shards), len(comps))
		}
		if n := g.NumComponents(); n != len(comps) {
			t.Fatalf("trial %d: NumComponents %d, want %d", trial, n, len(comps))
		}
		for i, sh := range shards {
			if sh.ID != i {
				t.Fatalf("trial %d: shard %d has ID %d", trial, i, sh.ID)
			}
			if !reflect.DeepEqual(sh.NewToOld, comps[i]) {
				t.Fatalf("trial %d shard %d: NewToOld %v, want %v", trial, i, sh.NewToOld, comps[i])
			}
			// Every shard edge must map back to a parent edge with the same
			// probability, and counts must agree with the induced subgraph.
			for _, e := range sh.G.Edges() {
				ou, ov := sh.NewToOld[e.U], sh.NewToOld[e.V]
				p, ok := g.Prob(ou, ov)
				if !ok || p != e.P {
					t.Fatalf("trial %d shard %d: edge {%d,%d} maps to {%d,%d} prob %v ok=%v want %v",
						trial, i, e.U, e.V, ou, ov, p, ok, e.P)
				}
			}
			ind, _, err := g.InducedSubgraph(comps[i])
			if err != nil {
				t.Fatalf("InducedSubgraph: %v", err)
			}
			if sh.G.NumEdges() != ind.NumEdges() || sh.G.NumVertices() != ind.NumVertices() {
				t.Fatalf("trial %d shard %d: shape %d/%d, induced %d/%d",
					trial, i, sh.G.NumVertices(), sh.G.NumEdges(), ind.NumVertices(), ind.NumEdges())
			}
		}
	}
}

func TestShardByComponentEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomComponents(rng, t)
	want := g.NumComponents()
	if want < 2 {
		t.Skip("single component draw")
	}
	seen := 0
	for range g.ShardByComponent() {
		seen++
		break
	}
	if seen != 1 {
		t.Fatalf("early break yielded %d shards", seen)
	}
}

func ExampleGraph_ShardByComponent() {
	b := NewBuilder(5)
	_ = b.AddEdge(0, 2, 0.9)
	_ = b.AddEdge(1, 4, 0.8)
	g := b.Build()
	for sh := range g.ShardByComponent() {
		fmt.Println(sh.ID, sh.NewToOld, sh.G.NumEdges())
	}
	// Output:
	// 0 [0 2] 1
	// 1 [1 4] 1
	// 2 [3] 0
}

// pathScan emits the path 0–1–2–…–(n−1) in ascending order, so the largest
// endpoint rises by one with every edge: a degree array reallocated to each
// new maximum copies O(n²) bytes on this input.
func pathScan(n int) EdgeScan {
	return func(emit func(u, v int, p float64) error) (int, error) {
		for u := 0; u+1 < n; u++ {
			if err := emit(u, u+1, 0.5); err != nil {
				return 0, err
			}
		}
		return -1, nil
	}
}

// TestFromEdgeScannerAllocatesLinearly: building a CSR allocates O(n + m)
// bytes even when every edge raises the largest endpoint. The bound is three
// times the finished CSR: the CSR itself, the degree array's geometric
// growth (about five times its final size at append's growth rate), and
// room for -race builds, which allocate more. Regrowing the array to each
// new maximum would copy ~2n² = 5 GB here.
func TestFromEdgeScannerAllocatesLinearly(t *testing.T) {
	const n = 50_000
	scan := pathScan(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := FromEdgeScanner(scan)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	csr := uint64(4*(n+1) + 2*g.NumEdges()*(4+8)) // offsets, nbrs, probs
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*csr {
		t.Fatalf("FromEdgeScanner allocated %d bytes for a %d-byte CSR", got, csr)
	}
}

// TestSortRowsAllocatesOncePerGraph: rows that already ascend are only
// scanned, and unsorted rows share one sorter, so sorting a graph costs at
// most one allocation however many rows need it.
func TestSortRowsAllocatesOncePerGraph(t *testing.T) {
	g := randomUncertain(300, 0.2, rand.New(rand.NewSource(9)))
	reverse := func() {
		for u := 0; u < g.n; u++ {
			row, probs := g.nbrs[g.offsets[u]:g.offsets[u+1]], g.probs[g.offsets[u]:g.offsets[u+1]]
			slices.Reverse(row)
			slices.Reverse(probs)
		}
	}
	want := g.Edges()
	if allocs := testing.AllocsPerRun(5, g.sortRows); allocs != 0 {
		t.Errorf("sorting already-sorted rows: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { reverse(); g.sortRows() }); allocs > 1 {
		t.Errorf("sorting %d reversed rows: %v allocations, want at most 1", g.n, allocs)
	}
	if !reflect.DeepEqual(g.Edges(), want) {
		t.Fatal("sortRows changed the graph")
	}
}
