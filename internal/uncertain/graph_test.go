package uncertain

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// dyadicProbs are exactly representable probabilities that are powers of two,
// so products of any number of them are exact in float64 (until underflow)
// and threshold comparisons in tests are unambiguous.
var dyadicProbs = []float64{1, 0.5, 0.25, 0.125}

// randomUncertain builds a G(n, density) uncertain graph with dyadic edge
// probabilities.
func randomUncertain(n int, density float64, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v, dyadicProbs[rng.Intn(len(dyadicProbs))])
			}
		}
	}
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(3)
	cases := []struct {
		u, v int
		p    float64
	}{
		{0, 0, 0.5},        // self-loop
		{-1, 1, 0.5},       // out of range
		{0, 3, 0.5},        // out of range
		{0, 1, 0},          // p = 0 not allowed (edge should be absent instead)
		{0, 1, -0.1},       // negative
		{0, 1, 1.5},        // > 1
		{0, 1, math.NaN()}, // NaN
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.p); err == nil {
			t.Errorf("AddEdge(%d,%d,%v) should fail", c.u, c.v, c.p)
		}
	}
	if err := b.AddEdge(0, 1, 1.0); err != nil {
		t.Fatalf("p=1 must be allowed: %v", err)
	}
	if err := b.AddEdge(1, 0, 0.5); err == nil {
		t.Error("duplicate edge (reversed) should fail")
	}
}

func TestUpsertEdge(t *testing.T) {
	b := NewBuilder(2)
	if err := b.UpsertEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.UpsertEdge(1, 0, 0.75); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if p, _ := g.Prob(0, 1); p != 0.75 {
		t.Fatalf("Prob = %v, want 0.75 (last write wins)", p)
	}
}

func TestCSRIntegrity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomUncertain(50, 0.2, rng)
	// Rows sorted, symmetric adjacency with symmetric probabilities.
	for u := 0; u < g.NumVertices(); u++ {
		row, pr := g.Adjacency(u)
		if len(row) != len(pr) {
			t.Fatal("row/prob length mismatch")
		}
		for i := range row {
			if i > 0 && row[i-1] >= row[i] {
				t.Fatalf("row %d not strictly sorted", u)
			}
			v := int(row[i])
			back, ok := g.Prob(v, u)
			if !ok || back != pr[i] {
				t.Fatalf("asymmetric edge {%d,%d}", u, v)
			}
		}
	}
}

func TestProbAndHasEdge(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := g.Prob(0, 1); !ok || p != 0.5 {
		t.Errorf("Prob(0,1) = %v,%v", p, ok)
	}
	if p, ok := g.Prob(1, 0); !ok || p != 0.5 {
		t.Errorf("Prob(1,0) = %v,%v", p, ok)
	}
	if _, ok := g.Prob(0, 2); ok {
		t.Error("Prob(0,2) should not exist")
	}
	if _, ok := g.Prob(0, 0); ok {
		t.Error("Prob(0,0) should not exist")
	}
	if _, ok := g.Prob(-1, 2); ok {
		t.Error("out-of-range Prob should not exist")
	}
	if !g.HasEdge(2, 3) || g.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
}

func TestNeighborsAndIteration(t *testing.T) {
	g, _ := FromEdges(4, []Edge{{2, 0, 0.5}, {2, 3, 0.25}, {2, 1, 1.0}})
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("Neighbors(2) = %v", got)
	}
	var vs []int
	var ps []float64
	g.ForEachNeighbor(2, func(v int, p float64) bool {
		vs = append(vs, v)
		ps = append(ps, p)
		return true
	})
	if !reflect.DeepEqual(vs, []int{0, 1, 3}) || !reflect.DeepEqual(ps, []float64{0.5, 1.0, 0.25}) {
		t.Fatalf("iteration got %v %v", vs, ps)
	}
	// Early stop.
	count := 0
	g.ForEachNeighbor(2, func(int, float64) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomUncertain(30, 0.3, rng)
	edges := g.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("Edges returned %d, want %d", len(edges), g.NumEdges())
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	}) {
		t.Fatal("Edges not sorted by (U,V)")
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Fatal("edge with U >= V")
		}
		if p, ok := g.Prob(e.U, e.V); !ok || p != e.P {
			t.Fatal("edge list disagrees with Prob")
		}
	}
}

func TestCliqueProbKnownValues(t *testing.T) {
	g, _ := FromEdges(4, []Edge{
		{0, 1, 0.5}, {0, 2, 0.5}, {1, 2, 0.5}, {2, 3, 0.25},
	})
	cases := []struct {
		set  []int
		want float64
	}{
		{nil, 1},
		{[]int{2}, 1},
		{[]int{0, 1}, 0.5},
		{[]int{0, 1, 2}, 0.125},
		{[]int{2, 3}, 0.25},
		{[]int{0, 3}, 0},    // not a support edge
		{[]int{0, 1, 3}, 0}, // not a support clique
	}
	for _, c := range cases {
		if got := g.CliqueProb(c.set); got != c.want {
			t.Errorf("CliqueProb(%v) = %v, want %v", c.set, got, c.want)
		}
	}
	if !g.IsSupportClique([]int{0, 1, 2}) || g.IsSupportClique([]int{0, 1, 3}) {
		t.Error("IsSupportClique wrong")
	}
}

// Observation 2 of the paper: B ⊂ A ⇒ clq(B) ≥ clq(A).
func TestCliqueProbMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(6)
		g := randomUncertain(n, 0.7, rng)
		// Random subset A and random proper subset B.
		var a []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				a = append(a, v)
			}
		}
		if len(a) < 2 {
			continue
		}
		b := a[:len(a)-1]
		if g.CliqueProb(b) < g.CliqueProb(a) {
			t.Fatalf("monotonicity violated: clq(%v)=%v < clq(%v)=%v",
				b, g.CliqueProb(b), a, g.CliqueProb(a))
		}
	}
}

func TestIsAlphaMaximalClique(t *testing.T) {
	// Triangle with p=0.5 edges plus pendant edge p=0.25 at vertex 2.
	g, _ := FromEdges(4, []Edge{
		{0, 1, 0.5}, {0, 2, 0.5}, {1, 2, 0.5}, {2, 3, 0.25},
	})
	// α = 0.125: triangle qualifies (0.125 ≥ 0.125); {2,3} cannot be extended
	// ({0,2,3} needs edge {0,3}).
	if !g.IsAlphaMaximalClique([]int{0, 1, 2}, 0.125) {
		t.Error("{0,1,2} should be 0.125-maximal")
	}
	if !g.IsAlphaMaximalClique([]int{2, 3}, 0.125) {
		t.Error("{2,3} should be 0.125-maximal")
	}
	// α = 0.25: triangle has prob 0.125 < 0.25 → not an α-clique; each edge of
	// the triangle is now maximal.
	if g.IsAlphaMaximalClique([]int{0, 1, 2}, 0.25) {
		t.Error("{0,1,2} is not a 0.25-clique")
	}
	if !g.IsAlphaMaximalClique([]int{0, 1}, 0.25) {
		t.Error("{0,1} should be 0.25-maximal")
	}
	// {0,1} is not maximal at α=0.125 because vertex 2 extends it.
	if g.IsAlphaMaximalClique([]int{0, 1}, 0.125) {
		t.Error("{0,1} is extendable at α=0.125")
	}
}

func TestPruneAlphaPreservesAlphaCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5)
		g := randomUncertain(n, 0.6, rng)
		alpha := dyadicProbs[rng.Intn(3)+1] // 0.5, 0.25 or 0.125
		pg := g.PruneAlpha(alpha)
		if pg.NumVertices() != g.NumVertices() {
			t.Fatal("pruning must not drop vertices")
		}
		for _, e := range pg.Edges() {
			if e.P < alpha {
				t.Fatalf("edge with p=%v survived pruning at α=%v", e.P, alpha)
			}
		}
		// Observation 3: every α-clique of g survives intact in pg.
		for sub := 0; sub < 1<<uint(n); sub++ {
			var set []int
			for v := 0; v < n; v++ {
				if sub&(1<<uint(v)) != 0 {
					set = append(set, v)
				}
			}
			if len(set) > 5 {
				continue
			}
			if g.IsAlphaClique(set, alpha) != pg.IsAlphaClique(set, alpha) {
				t.Fatalf("α-clique status of %v changed by pruning", set)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, _ := FromEdges(5, []Edge{
		{0, 1, 0.5}, {1, 2, 0.25}, {2, 3, 1.0}, {3, 4, 0.5}, {1, 3, 0.125},
	})
	sub, newToOld, err := g.InducedSubgraph([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(newToOld, []int{1, 3, 4}) {
		t.Fatalf("newToOld = %v", newToOld)
	}
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub has n=%d m=%d, want 3/2", sub.NumVertices(), sub.NumEdges())
	}
	if p, ok := sub.Prob(0, 1); !ok || p != 0.125 { // old {1,3}
		t.Errorf("sub edge {1,3}: %v %v", p, ok)
	}
	if p, ok := sub.Prob(1, 2); !ok || p != 0.5 { // old {3,4}
		t.Errorf("sub edge {3,4}: %v %v", p, ok)
	}
	if sub.HasEdge(0, 2) {
		t.Error("old {1,4} should not be an edge")
	}

	if _, _, err := g.InducedSubgraph([]int{0, 0}); err == nil {
		t.Error("duplicate vertex should fail")
	}
	if _, _, err := g.InducedSubgraph([]int{99}); err == nil {
		t.Error("out-of-range vertex should fail")
	}
}

func TestRelabelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomUncertain(20, 0.3, rng)
	order := rng.Perm(20)
	rg, oldToNew, err := g.Relabel(order)
	if err != nil {
		t.Fatal(err)
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Fatal("relabel changed edge count")
	}
	for _, e := range g.Edges() {
		p, ok := rg.Prob(oldToNew[e.U], oldToNew[e.V])
		if !ok || p != e.P {
			t.Fatalf("edge {%d,%d} lost or changed under relabel", e.U, e.V)
		}
	}
	// order[newID] = oldID must be consistent with oldToNew.
	for newID, oldID := range order {
		if oldToNew[oldID] != newID {
			t.Fatal("oldToNew inconsistent with order")
		}
	}
}

func TestRelabelValidation(t *testing.T) {
	g, _ := FromEdges(3, []Edge{{0, 1, 0.5}})
	if _, _, err := g.Relabel([]int{0, 1}); err == nil {
		t.Error("short order should fail")
	}
	if _, _, err := g.Relabel([]int{0, 1, 1}); err == nil {
		t.Error("non-permutation should fail")
	}
	if _, _, err := g.Relabel([]int{0, 1, 5}); err == nil {
		t.Error("out-of-range order should fail")
	}
}

func TestStats(t *testing.T) {
	g, _ := FromEdges(4, []Edge{{0, 1, 0.5}, {0, 2, 1.0}})
	s := ComputeStats(g)
	if s.Vertices != 4 || s.Edges != 2 {
		t.Fatalf("stats n/m wrong: %+v", s)
	}
	if s.MaxDegree != 2 || s.MinDegree != 0 || s.IsolatedVerts != 1 {
		t.Fatalf("degree stats wrong: %+v", s)
	}
	if s.MinProb != 0.5 || s.MaxProb != 1.0 || s.MeanProb != 0.75 || s.ExpectedM != 1.5 {
		t.Fatalf("prob stats wrong: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("String should render")
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	s := ComputeStats(NewBuilder(0).Build())
	if s.Vertices != 0 || s.Edges != 0 {
		t.Fatalf("unexpected stats for empty graph: %+v", s)
	}
}

func TestProbHistogram(t *testing.T) {
	g, _ := FromEdges(4, []Edge{{0, 1, 0.05}, {0, 2, 0.55}, {1, 2, 0.95}, {2, 3, 1.0}})
	h := ProbHistogram(g, 10)
	if len(h) != 10 {
		t.Fatalf("len = %d", len(h))
	}
	if h[0] != 1 || h[5] != 1 || h[9] != 2 {
		t.Fatalf("histogram = %v", h)
	}
	if ProbHistogram(g, 0) != nil {
		t.Fatal("k=0 should return nil")
	}
}

// TestAdjacencySuffix checks the hot-path row accessor against the plain
// Adjacency view for every vertex and a sweep of split points, including
// the before-first / after-last boundaries.
func TestAdjacencySuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomUncertain(40, 0.3, rng)
	for u := 0; u < g.NumVertices(); u++ {
		row, probs := g.Adjacency(u)
		for after := int32(-1); after <= int32(g.NumVertices()); after++ {
			srow, sprobs := g.AdjacencySuffix(u, after)
			k := sort.Search(len(row), func(i int) bool { return row[i] > after })
			if !reflect.DeepEqual(append([]int32{}, srow...), append([]int32{}, row[k:]...)) {
				t.Fatalf("u=%d after=%d: suffix %v, want %v", u, after, srow, row[k:])
			}
			if len(sprobs) != len(srow) {
				t.Fatalf("u=%d after=%d: probs length %d != row length %d", u, after, len(sprobs), len(srow))
			}
			for i := range sprobs {
				if sprobs[i] != probs[k+i] {
					t.Fatalf("u=%d after=%d: prob[%d] = %v, want %v", u, after, i, sprobs[i], probs[k+i])
				}
			}
		}
	}
}

// TestFromSortedAdjacencyErrors pins every rejection of FromSortedAdjacency:
// its text, its sentinel, and which fault it names when several are
// present (the first slot in row order, each slot checked for range,
// self-loop, order, probability and then its reciprocal). A valid input is
// adopted as given.
func TestFromSortedAdjacencyErrors(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		offsets []int32
		nbrs    []int32
		probs   []float64
		want    string
		is      error
	}{
		{"negative n", -1, nil, nil, nil, "uncertain: malformed offsets (n=-1, len=0)", nil},
		{"offsets length", 2, []int32{0, 0}, nil, nil, "uncertain: malformed offsets (n=2, len=2)", nil},
		{"offsets start", 1, []int32{1, 1}, []int32{0}, []float64{1}, "uncertain: malformed offsets (n=1, len=2)", nil},
		{"offsets end", 2, []int32{0, 1, 2}, []int32{1}, []float64{0.5}, "uncertain: offsets end 2 but 1 neighbors, 1 probs", nil},
		{"probs length", 2, []int32{0, 1, 2}, []int32{1, 0}, []float64{0.5}, "uncertain: offsets end 2 but 2 neighbors, 1 probs", nil},
		{"offsets decrease", 2, []int32{0, -1, 0}, nil, nil, "uncertain: offsets decrease at vertex 0", nil},
		{"offsets decrease later", 3, []int32{0, 1, 0, 2}, []int32{2, 0}, []float64{0.5, 0.5}, "uncertain: offsets decrease at vertex 1", nil},
		{"range high", 2, []int32{0, 1, 1}, []int32{5}, []float64{0.5}, "uncertain: row 0 neighbor 5 outside [0,2): vertex out of range", ErrVertexRange},
		{"range negative", 2, []int32{0, 0, 1}, []int32{-1}, []float64{0.5}, "uncertain: row 1 neighbor -1 outside [0,2): vertex out of range", ErrVertexRange},
		{"self-loop", 2, []int32{0, 1, 1}, []int32{0}, []float64{0.5}, "uncertain: edge {0,0}: self-loop", ErrSelfLoop},
		{"descending", 3, []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}, []float64{0.5, 0.5, 0.5, 0.5}, "uncertain: row 0 not strictly ascending at 1", nil},
		{"duplicate", 2, []int32{0, 2, 4}, []int32{1, 1, 0, 0}, []float64{0.5, 0.5, 0.5, 0.5}, "uncertain: row 0 not strictly ascending at 1", nil},
		{"probability zero", 2, []int32{0, 1, 2}, []int32{1, 0}, []float64{0, 0}, "uncertain: edge {0,1}: uncertain: probability 0: probability outside (0,1]", ErrProbRange},
		{"probability above one", 2, []int32{0, 1, 2}, []int32{1, 0}, []float64{1.5, 1.5}, "uncertain: edge {0,1}: uncertain: probability 1.5: probability outside (0,1]", ErrProbRange},
		{"probability NaN in the reciprocal", 2, []int32{0, 1, 2}, []int32{1, 0}, []float64{0.5, math.NaN()}, "uncertain: edge {1,0}: uncertain: probability NaN: probability outside (0,1]", ErrProbRange},
		{"missing upper reciprocal", 2, []int32{0, 1, 1}, []int32{1}, []float64{0.5}, "uncertain: edge {0,1} not symmetric", nil},
		{"missing lower reciprocal", 2, []int32{0, 0, 1}, []int32{0}, []float64{0.5}, "uncertain: edge {1,0} not symmetric", nil},
		{"unequal reciprocal", 3, []int32{0, 2, 3, 4}, []int32{1, 2, 0, 0}, []float64{0.5, 0.5, 0.25, 0.5}, "uncertain: edge {0,1} not symmetric", nil},
		{"unequal reciprocal at the lower slot", 3, []int32{0, 1, 3, 4}, []int32{1, 0, 2, 1}, []float64{0.5, 0.5, 0.25, 0.75}, "uncertain: edge {1,2} not symmetric", nil},
		{"symmetry fault before a range fault", 3, []int32{0, 1, 1, 2}, []int32{1, 7}, []float64{0.5, 0.5}, "uncertain: edge {0,1} not symmetric", nil},
		{"range fault before a symmetry fault", 3, []int32{0, 1, 1, 2}, []int32{7, 0}, []float64{0.5, 0.5}, "uncertain: row 0 neighbor 7 outside [0,3): vertex out of range", ErrVertexRange},
	}
	for _, c := range cases {
		g, err := FromSortedAdjacency(c.n, c.offsets, c.nbrs, c.probs)
		if err == nil || g != nil {
			t.Fatalf("%s: got graph %v and error %v, want error %q", c.name, g != nil, err, c.want)
		}
		if err.Error() != c.want {
			t.Fatalf("%s: error %q, want %q", c.name, err, c.want)
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Fatalf("%s: error %v does not wrap %v", c.name, err, c.is)
		}
	}
	offsets, nbrs, probs := []int32{0, 2, 3, 4, 4}, []int32{1, 2, 0, 0}, []float64{0.5, 1, 0.5, 1}
	g, err := FromSortedAdjacency(4, offsets, nbrs, probs)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{0, 1, 0.5}, {0, 2, 1}}; !reflect.DeepEqual(g.Edges(), want) || g.NumVertices() != 4 {
		t.Fatalf("valid input: %d vertices, edges %v, want 4 and %v", g.NumVertices(), g.Edges(), want)
	}
}

// TestFromSortedAdjacencyRejectsAsymmetry covers edges whose two rows are
// equally long. The row-order walk alone accepted them: its symmetry test
// called Prob, which searches the shorter row, and on a tie each slot found
// itself.
func TestFromSortedAdjacencyRejectsAsymmetry(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		offsets []int32
		nbrs    []int32
		probs   []float64
	}{
		{"unequal reciprocal", 2, []int32{0, 1, 2}, []int32{1, 0}, []float64{0.5, 0.25}},
		{"directed triangle", 3, []int32{0, 1, 2, 3}, []int32{1, 2, 0}, []float64{0.5, 0.5, 0.5}},
	}
	for _, c := range cases {
		_, err := FromSortedAdjacency(c.n, c.offsets, c.nbrs, c.probs)
		if want := "uncertain: edge {0,1} not symmetric"; err == nil || err.Error() != want {
			t.Fatalf("%s: error %v, want %q", c.name, err, want)
		}
	}
}

// TestWellFormedMatchesFault changes one entry of a random graph's CSR
// arrays at a time (a probability, a neighbour, or a row boundary moved by
// one) and requires the fast check to accept exactly the inputs in which
// fault finds nothing wrong.
func TestWellFormedMatchesFault(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	accepted, rejected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		g := randomUncertain(2+rng.Intn(12), rng.Float64(), rng)
		h := &Graph{n: g.n, offsets: slices.Clone(g.offsets), nbrs: slices.Clone(g.nbrs), probs: slices.Clone(g.probs)}
		if m := len(h.nbrs); m > 0 {
			switch i := rng.Intn(m); rng.Intn(3) {
			case 0:
				h.probs[i] = dyadicProbs[rng.Intn(len(dyadicProbs))]
			case 1:
				h.nbrs[i] = int32(rng.Intn(h.n))
			default:
				if k := 1 + rng.Intn(h.n-1); h.offsets[k] < h.offsets[k+1] {
					h.offsets[k]++
				} else if h.offsets[k] > h.offsets[k-1] {
					h.offsets[k]--
				}
			}
		}
		err := h.fault()
		if h.wellFormed() != (err == nil) {
			t.Fatalf("trial %d: wellFormed %v, fault %v", trial, h.wellFormed(), err)
		}
		if err == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("%d accepted and %d rejected inputs; want at least 100 of each", accepted, rejected)
	}
}
