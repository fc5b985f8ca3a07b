package uncertain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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

// degreesOf counts the degrees of edges on n vertices, skipping endpoints
// outside [0, n), as a counting pass would before its fill.
func degreesOf(n int, edges []Edge) []int32 {
	deg := make([]int32, n)
	for _, e := range edges {
		for _, x := range []int{e.U, e.V} {
			if x >= 0 && x < n {
				deg[x]++
			}
		}
	}
	return deg
}

// chunked splits edges at the given cut points into chunks with their
// counted degrees and fills; every fill reports an unknown vertex count, as
// a chunk of a file does.
func chunked(n int, edges []Edge, cuts ...int) ([][]int32, []EdgeScan) {
	bounds := append(append([]int{0}, cuts...), len(edges))
	var degs [][]int32
	var fills []EdgeScan
	for k := 0; k+1 < len(bounds); k++ {
		part := edges[bounds[k]:bounds[k+1]]
		degs = append(degs, degreesOf(n, part))
		fills = append(fills, scanOf(-1, part))
	}
	return degs, fills
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

// TestFromDegreesChunksMatchOneChunk: however an edge stream is cut into
// chunks, FromDegrees builds the arrays a one-chunk build of the whole
// stream builds, and the graph FromEdges builds from it — also when the
// stream's order leaves rows to sort.
func TestFromDegreesChunksMatchOneChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		edges := randomEdges(rng, n, rng.Float64())
		if trial%2 == 1 {
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			for i := range edges {
				if rng.Intn(2) == 0 {
					edges[i].U, edges[i].V = edges[i].V, edges[i].U
				}
			}
		}
		want, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("FromEdges: %v", err)
		}
		one, err := FromDegrees([][]int32{degreesOf(n, edges)}, []EdgeScan{scanOf(n, edges)})
		if err != nil {
			t.Fatalf("one chunk: %v", err)
		}
		if !reflect.DeepEqual(one.Edges(), want.Edges()) {
			t.Fatalf("trial %d: one chunk and FromEdges differ", trial)
		}
		for w := 2; w <= 4; w++ {
			cuts := make([]int, w-1)
			for i := range cuts {
				cuts[i] = rng.Intn(len(edges) + 1)
			}
			slices.Sort(cuts)
			got, err := FromDegrees(chunked(n, edges, cuts...))
			if err != nil {
				t.Fatalf("trial %d, cuts %v: %v", trial, cuts, err)
			}
			if !reflect.DeepEqual(got, one) {
				t.Fatalf("trial %d, cuts %v: arrays differ from the one-chunk build", trial, cuts)
			}
		}
	}
}

func TestFromDegreesErrors(t *testing.T) {
	good := Edge{U: 0, V: 2, P: 0.5}
	cases := []struct {
		name string
		n    int
		e    Edge
		want error
	}{
		{"self loop", 3, Edge{U: 1, V: 1, P: 0.5}, ErrSelfLoop},
		{"negative endpoint", 3, Edge{U: -1, V: 1, P: 0.5}, ErrVertexRange},
		{"zero probability", 3, Edge{U: 0, V: 1, P: 0}, ErrProbRange},
		{"probability above one", 3, Edge{U: 0, V: 1, P: 1.5}, ErrProbRange},
	}
	for _, tc := range cases {
		if _, err := FromDegrees([][]int32{degreesOf(tc.n, []Edge{tc.e})}, []EdgeScan{scanOf(tc.n, []Edge{tc.e})}); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		// The bad edge in the second of two chunks, then in both: the
		// first chunk's error is the one reported.
		if _, err := FromDegrees(chunked(tc.n, []Edge{good, tc.e}, 1)); !errors.Is(err, tc.want) {
			t.Errorf("%s in chunk 1: got %v, want %v", tc.name, err, tc.want)
		}
		selfLoop := Edge{U: 2, V: 2, P: 0.5}
		if _, err := FromDegrees(chunked(tc.n, []Edge{tc.e, selfLoop}, 1)); !errors.Is(err, tc.want) {
			t.Errorf("%s in chunk 0, a self-loop in chunk 1: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// An endpoint beyond the counted vertices has no slot to go to.
	beyond := []Edge{{U: 0, V: 7, P: 0.5}}
	if _, err := FromDegrees([][]int32{degreesOf(3, beyond)}, []EdgeScan{scanOf(3, beyond)}); err == nil || err.Error() != errUnstableScan().Error() {
		t.Errorf("endpoint beyond count: got %v, want %v", err, errUnstableScan())
	}
	for _, cuts := range [][]int{nil, {1}} {
		dup := []Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 0, P: 0.5}}
		if _, err := FromDegrees(chunked(2, dup, cuts...)); !errors.Is(err, ErrDuplicateEdge) {
			t.Errorf("duplicate edge, cuts %v: got %v, want ErrDuplicateEdge", cuts, err)
		}
	}
	if _, err := FromDegrees(nil, nil); err == nil {
		t.Error("no chunks accepted")
	}
	if _, err := FromDegrees([][]int32{make([]int32, 2)}, nil); err == nil {
		t.Error("a degree array without a fill accepted")
	}
	if _, err := FromDegrees([][]int32{make([]int32, 2), make([]int32, 3)}, []EdgeScan{scanOf(-1, nil), scanOf(-1, nil)}); err == nil {
		t.Error("degree arrays of different lengths accepted")
	}
}

// TestFromDegreesUnstableScan: a fill that emits other edges than its
// degrees counted fails as a non-replayable scan, whether it leaves its
// share of a row short, runs past it into the next chunk's share, or reports
// another vertex count.
func TestFromDegreesUnstableScan(t *testing.T) {
	e01, e02, e12 := Edge{U: 0, V: 1, P: 0.5}, Edge{U: 0, V: 2, P: 0.5}, Edge{U: 1, V: 2, P: 0.5}
	counted := [][]Edge{{e01}, {e02}}
	cases := []struct {
		name  string
		fills []EdgeScan
	}{
		{"chunk 0 short", []EdgeScan{scanOf(-1, nil), scanOf(-1, counted[1])}},
		{"chunk 1 short", []EdgeScan{scanOf(-1, counted[0]), scanOf(-1, nil)}},
		{"chunk 0 past its share", []EdgeScan{scanOf(-1, []Edge{e01, e02}), scanOf(-1, nil)}},
		{"chunk 1 past its share", []EdgeScan{scanOf(-1, counted[0]), scanOf(-1, []Edge{e02, e12})}},
		{"chunks swapped", []EdgeScan{scanOf(-1, counted[1]), scanOf(-1, counted[0])}},
		{"another vertex count", []EdgeScan{scanOf(3, counted[0]), scanOf(4, counted[1])}},
	}
	for _, tc := range cases {
		degs := [][]int32{degreesOf(3, counted[0]), degreesOf(3, counted[1])}
		if _, err := FromDegrees(degs, tc.fills); err == nil || err.Error() != errUnstableScan().Error() {
			t.Errorf("%s: got %v, want %v", tc.name, err, errUnstableScan())
		}
	}
	// One chunk: a second pass that emits nothing.
	if _, err := FromDegrees([][]int32{degreesOf(2, []Edge{e01})}, []EdgeScan{scanOf(2, nil)}); err == nil {
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
