package ubiclique

import (
	"math"
	"math/rand"
	"testing"
)

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(3, 2)
	cases := []struct {
		name    string
		l, r    int
		p       float64
		wantErr bool
	}{
		{"valid", 0, 0, 0.5, false},
		{"left negative", -1, 0, 0.5, true},
		{"left too large", 3, 0, 0.5, true},
		{"right negative", 0, -1, 0.5, true},
		{"right too large", 0, 2, 0.5, true},
		{"probability zero", 1, 0, 0, true},
		{"probability negative", 1, 0, -0.25, true},
		{"probability above one", 1, 0, 1.5, true},
		{"probability NaN", 1, 0, math.NaN(), true},
		{"probability one ok", 1, 0, 1, false},
		{"duplicate", 0, 0, 0.25, true},
	}
	for _, tc := range cases {
		err := b.AddEdge(tc.l, tc.r, tc.p)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: AddEdge(%d,%d,%v) error = %v, wantErr = %v",
				tc.name, tc.l, tc.r, tc.p, err, tc.wantErr)
		}
	}
}

// TestBuilderErrorMessages pins the four builder messages and their order:
// an edge with several faults reports the first of left range, right range,
// probability and duplicate.
func TestBuilderErrorMessages(t *testing.T) {
	b := NewBuilder(3, 2)
	if err := b.AddEdge(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		l, r int
		p    float64
		want string
	}{
		{-1, 5, 2, "ubiclique: left vertex -1 outside [0,3): vertex out of range"},
		{0, 2, math.NaN(), "ubiclique: right vertex 2 outside [0,2): vertex out of range"},
		{0, 0, 1.5, "ubiclique: probability 1.5: probability outside (0,1]"},
		{0, 0, 0.25, "ubiclique: edge (0,0): duplicate edge"},
	}
	for _, tc := range cases {
		err := b.AddEdge(tc.l, tc.r, tc.p)
		if err == nil || err.Error() != tc.want {
			t.Errorf("AddEdge(%d,%d,%v) = %v, want %q", tc.l, tc.r, tc.p, err, tc.want)
		}
	}
	if err := b.UpsertEdge(0, 5, 0.5); err == nil || err.Error() != "ubiclique: right vertex 5 outside [0,2): vertex out of range" {
		t.Errorf("UpsertEdge(0,5,0.5) = %v", err)
	}
}

func TestUpsertEdgeReplaces(t *testing.T) {
	b := NewBuilder(2, 2)
	if err := b.AddEdge(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.UpsertEdge(0, 1, 0.75); err != nil {
		t.Fatal(err)
	}
	if b.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after upsert, want 1", b.NumEdges())
	}
	g := b.Build()
	if p, ok := g.Prob(0, 1); !ok || p != 0.75 {
		t.Fatalf("Prob(0,1) = %v,%v; want 0.75,true", p, ok)
	}
}

func TestFromEdgesAndAccessors(t *testing.T) {
	g, err := FromEdges(3, 2, []Edge{
		{L: 0, R: 0, P: 0.5},
		{L: 0, R: 1, P: 0.25},
		{L: 1, R: 0, P: 1},
		{L: 2, R: 1, P: 0.125},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLeft() != 3 || g.NumRight() != 2 || g.NumEdges() != 4 {
		t.Fatalf("sizes = %d,%d,%d; want 3,2,4", g.NumLeft(), g.NumRight(), g.NumEdges())
	}
	if d := g.DegreeLeft(0); d != 2 {
		t.Errorf("DegreeLeft(0) = %d, want 2", d)
	}
	if d := g.DegreeRight(0); d != 2 {
		t.Errorf("DegreeRight(0) = %d, want 2", d)
	}
	if d := g.DegreeRight(1); d != 2 {
		t.Errorf("DegreeRight(1) = %d, want 2", d)
	}
	if got := g.LeftNeighbors(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("LeftNeighbors(0) = %v, want [0 1]", got)
	}
	if got := g.RightNeighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("RightNeighbors(1) = %v, want [0 2]", got)
	}
	if g.HasEdge(1, 1) {
		t.Error("HasEdge(1,1) = true for missing edge")
	}
	if p, ok := g.Prob(2, 1); !ok || p != 0.125 {
		t.Errorf("Prob(2,1) = %v,%v; want 0.125,true", p, ok)
	}
	if _, ok := g.Prob(-1, 0); ok {
		t.Error("Prob(-1,0) reported an edge")
	}
	if _, ok := g.Prob(0, 5); ok {
		t.Error("Prob(0,5) reported an edge")
	}
}

func TestFromEdgesRejectsBadEdge(t *testing.T) {
	if _, err := FromEdges(2, 2, []Edge{{L: 0, R: 0, P: 0.5}, {L: 0, R: 0, P: 0.5}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if _, err := FromEdges(2, 2, []Edge{{L: 5, R: 0, P: 0.5}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	want := []Edge{
		{L: 0, R: 0, P: 0.5},
		{L: 0, R: 1, P: 0.25},
		{L: 1, R: 1, P: 1},
	}
	g, err := FromEdges(2, 2, want)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("Edges() has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Edges()[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBicliqueProbHandComputed(t *testing.T) {
	// Complete bipartite 2x2 with probabilities 1/2, 1/4, 1/2, 1.
	g, err := FromEdges(2, 2, []Edge{
		{L: 0, R: 0, P: 0.5},
		{L: 0, R: 1, P: 0.25},
		{L: 1, R: 0, P: 0.5},
		{L: 1, R: 1, P: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		A, B []int
		want float64
	}{
		{nil, nil, 1},                        // empty product
		{[]int{0}, nil, 1},                   // no cross pairs
		{[]int{0}, []int{0}, 0.5},            // single edge
		{[]int{0}, []int{0, 1}, 0.125},       // 0.5 * 0.25
		{[]int{0, 1}, []int{0}, 0.25},        // 0.5 * 0.5
		{[]int{0, 1}, []int{0, 1}, 1.0 / 16}, // all four edges
	}
	for _, tc := range cases {
		if got := g.BicliqueProb(tc.A, tc.B); got != tc.want {
			t.Errorf("BicliqueProb(%v,%v) = %v, want %v", tc.A, tc.B, got, tc.want)
		}
	}
}

func TestBicliqueProbMissingPairIsZero(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{{L: 0, R: 0, P: 0.5}, {L: 1, R: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.BicliqueProb([]int{0, 1}, []int{0}); got != 0 {
		t.Fatalf("BicliqueProb with missing pair = %v, want 0", got)
	}
	if g.IsAlphaBiclique([]int{0, 1}, []int{0, 1}, 0.0001) {
		t.Fatal("pair with missing cross edge accepted as α-biclique")
	}
}

func TestIsAlphaBicliqueRequiresBothSides(t *testing.T) {
	g, err := FromEdges(1, 1, []Edge{{L: 0, R: 0, P: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsAlphaBiclique([]int{0}, nil, 0.5) {
		t.Error("empty right side accepted")
	}
	if g.IsAlphaBiclique(nil, []int{0}, 0.5) {
		t.Error("empty left side accepted")
	}
	if !g.IsAlphaBiclique([]int{0}, []int{0}, 0.5) {
		t.Error("single certain edge rejected")
	}
}

func TestIsAlphaMaximalBicliqueHandComputed(t *testing.T) {
	// l0 connects to r0 (0.5) and r1 (0.5); l1 connects to r0 (0.25).
	g, err := FromEdges(2, 2, []Edge{
		{L: 0, R: 0, P: 0.5},
		{L: 0, R: 1, P: 0.5},
		{L: 1, R: 0, P: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	// At α = 0.25: ({0},{0,1}) has probability 0.25 and cannot grow
	// (adding l1 needs edge (1,1) which is absent).
	if !g.IsAlphaMaximalBiclique([]int{0}, []int{0, 1}, 0.25) {
		t.Error("({0},{0,1}) should be 0.25-maximal")
	}
	// ({0},{0}) extends to ({0},{0,1}) at 0.25, so it is not maximal.
	if g.IsAlphaMaximalBiclique([]int{0}, []int{0}, 0.25) {
		t.Error("({0},{0}) should extend on the right")
	}
	// ({0,1},{0}) has probability 0.125 < 0.25.
	if g.IsAlphaMaximalBiclique([]int{0, 1}, []int{0}, 0.25) {
		t.Error("({0,1},{0}) is below threshold")
	}
	// At α = 0.125 it qualifies and is maximal (adding r1 needs (1,1)).
	if !g.IsAlphaMaximalBiclique([]int{0, 1}, []int{0}, 0.125) {
		t.Error("({0,1},{0}) should be 0.125-maximal")
	}
}

func TestPruneAlpha(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{
		{L: 0, R: 0, P: 0.5},
		{L: 0, R: 1, P: 0.1},
		{L: 1, R: 1, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := g.PruneAlpha(0.25)
	if p.NumEdges() != 2 {
		t.Fatalf("pruned graph has %d edges, want 2", p.NumEdges())
	}
	if p.HasEdge(0, 1) {
		t.Fatal("edge below threshold survived pruning")
	}
	if p.NumLeft() != 2 || p.NumRight() != 2 {
		t.Fatal("pruning changed the vertex sets")
	}
}

func TestZeroSidedGraphs(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {0, 3}, {3, 0}} {
		g := NewBuilder(dims[0], dims[1]).Build()
		if g.NumEdges() != 0 {
			t.Fatalf("(%d,%d): edges appeared from nowhere", dims[0], dims[1])
		}
		n, err := Count(g, 0.5)
		if err != nil {
			t.Fatalf("(%d,%d): %v", dims[0], dims[1], err)
		}
		if n != 0 {
			t.Fatalf("(%d,%d): %d bicliques on a graph missing a side", dims[0], dims[1], n)
		}
	}
}

// randomBipartite builds a bipartite G(nL, nR, density) graph with dyadic
// probabilities so every threshold comparison in cross-implementation tests
// is float-exact.
func randomBipartite(nL, nR int, density float64, rng *rand.Rand) *Bipartite {
	b := NewBuilder(nL, nR)
	vals := []float64{1, 0.5, 0.25, 0.125}
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < density {
				_ = b.AddEdge(l, r, vals[rng.Intn(len(vals))])
			}
		}
	}
	return b.Build()
}

func TestProbLookupMatchesEdgeList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomBipartite(8, 6, 0.5, rng)
	seen := 0
	for _, e := range g.Edges() {
		p, ok := g.Prob(e.L, e.R)
		if !ok || p != e.P {
			t.Fatalf("Prob(%d,%d) = %v,%v; edge list says %v", e.L, e.R, p, ok, e.P)
		}
		seen++
	}
	if seen != g.NumEdges() {
		t.Fatalf("edge list has %d entries, graph reports %d", seen, g.NumEdges())
	}
}
