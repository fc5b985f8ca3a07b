package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// mustFilter runs the shared-neighborhood prefilter, failing the test on a
// rebuild error (the CSR assembly is infallible for well-formed inputs, so
// any error is a filter bug).
func mustFilter(t *testing.T, g *uncertain.Graph, minSize int) *uncertain.Graph {
	t.Helper()
	fg, err := sharedNeighborhoodFilter(g, minSize)
	if err != nil {
		t.Fatalf("sharedNeighborhoodFilter(t=%d): %v", minSize, err)
	}
	return fg
}

// twoRuleFilter is the prefilter as the paper states it, edge rule and
// vertex rule alternating to a fixpoint on the mutable CSR. It is the
// reference for sharedNeighborhoodFilter, which runs the edge rule alone.
func twoRuleFilter(g *uncertain.Graph, t int) (*uncertain.Graph, error) {
	if t < 3 {
		return g, nil
	}
	n := int32(g.NumVertices())
	s := newCSRScratch(g)
	for changed := true; changed; {
		changed = false
		for u := int32(0); u < n; u++ {
			for i := int(s.end[u]) - 1; i >= int(s.start[u]); i-- {
				v := s.nbrs[i]
				if u < v && s.commonCount(u, v) < t-2 {
					s.removeEdge(u, v)
					changed = true
				}
			}
		}
		for u := int32(0); u < n; u++ {
			if s.degree(u) == 0 {
				continue
			}
			qualified := 0
			for _, v := range s.row(u) {
				if s.commonCount(u, v) >= t-2 {
					qualified++
				}
			}
			if qualified < t-1 {
				for _, v := range s.row(u) {
					s.dropHalf(v, u)
				}
				s.end[u] = s.start[u]
				changed = true
			}
		}
	}
	return s.build()
}

// TestSharedNeighborhoodFilterMatchesTwoRule requires the edge-rule
// fixpoint to keep exactly the edges the two-rule filter keeps, on random
// graphs and on three BA800 graphs pruned at the kernel sweep's α.
func TestSharedNeighborhoodFilterMatchesTwoRule(t *testing.T) {
	check := func(name string, g *uncertain.Graph, minSize int) {
		t.Helper()
		want, err := twoRuleFilter(g, minSize)
		if err != nil {
			t.Fatalf("%s t=%d: two-rule filter: %v", name, minSize, err)
		}
		got := mustFilter(t, g, minSize)
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("%s t=%d: filter keeps %d edges, two-rule reference %d",
				name, minSize, got.NumEdges(), want.NumEdges())
		}
	}
	rng := rand.New(rand.NewSource(888))
	for trial := 0; trial < 200; trial++ {
		g := randomDyadic(5+rng.Intn(40), 0.1+0.8*rng.Float64(), rng)
		for minSize := 3; minSize <= 7; minSize++ {
			check(fmt.Sprintf("trial %d", trial), g, minSize)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.BA(800, seed).PruneAlpha(0.001)
		for minSize := 3; minSize <= 6; minSize++ {
			check(fmt.Sprintf("BA800 seed %d", seed), g, minSize)
		}
	}
}

// filterBySize keeps cliques with at least t vertices.
func filterBySize(cliques [][]int, t int) [][]int {
	var out [][]int
	for _, c := range cliques {
		if len(c) >= t {
			out = append(out, c)
		}
	}
	return out
}

// LARGE-MULE must produce exactly the size-≥t subset of MULE's output
// (Lemma 13).
func TestLargeMULEMatchesFilteredMULE(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(20)
		g := randomDyadic(n, 0.5, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		all := mustCollect(t, g, alpha, Config{})
		for _, minSize := range []int{2, 3, 4, 5} {
			want := filterBySize(all, minSize)
			got := mustCollect(t, g, alpha, Config{MinSize: minSize, CheckInvariants: true})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d α=%v t=%d:\nLARGE = %v\nwant  = %v",
					trial, n, alpha, minSize, got, want)
			}
		}
	}
}

func TestLargeMULEOnPlantedCliques(t *testing.T) {
	rng := rand.New(rand.NewSource(222))
	edges, planted := gen.PlantedCliques(80, 4, 7, 0.03, rng)
	g, err := gen.BuildUncertain(80, edges, gen.ConstProb(0.9), rng)
	if err != nil {
		t.Fatal(err)
	}
	// α low enough that a 7-clique of 0.9-edges (0.9^21 ≈ 0.109) qualifies.
	alpha := 0.1
	got := mustCollect(t, g, alpha, Config{MinSize: 7})
	// Every planted clique must appear inside some emitted clique of size ≥ 7
	// (planted cliques can merge if they overlap heavily, so containment is
	// the right check — and with clq ≥ α they cannot be split).
	for _, want := range planted {
		found := false
		for _, c := range got {
			if containsAll(c, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("planted clique %v not found in LARGE-MULE output %v", want, got)
		}
	}
}

func containsAll(haystack, needle []int) bool {
	set := make(map[int]bool, len(haystack))
	for _, v := range haystack {
		set[v] = true
	}
	for _, v := range needle {
		if !set[v] {
			return false
		}
	}
	return true
}

func TestLargeMULESizePruningActuallyPrunes(t *testing.T) {
	g := randomDyadic(40, 0.3, rand.New(rand.NewSource(333)))
	full, err := Enumerate(g, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := EnumerateWith(g, 0.25, nil, Config{MinSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if large.Calls >= full.Calls {
		t.Fatalf("LARGE-MULE made %d calls, plain MULE %d — pruning ineffective", large.Calls, full.Calls)
	}
	if large.SizePruned == 0 {
		t.Fatal("SizePruned = 0; expected cut branches")
	}
}

func TestSharedNeighborhoodFilterSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(444))
	for trial := 0; trial < 30; trial++ {
		g := randomDyadic(12+rng.Intn(10), 0.5, rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		for _, minSize := range []int{3, 4, 5} {
			// The filter must never lose a size-≥t α-maximal clique: compare
			// against plain MULE + size filter.
			want := filterBySize(mustCollect(t, g, alpha, Config{}), minSize)
			pg := g.PruneAlpha(alpha)
			fg := mustFilter(t, pg, minSize)
			got := filterBySize(mustCollect(t, fg, alpha, Config{}), minSize)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("filter lost cliques: t=%d α=%v\nfiltered = %v\nwant     = %v",
					minSize, alpha, got, want)
			}
		}
	}
}

func TestSharedNeighborhoodFilterRemovesHopelessEdges(t *testing.T) {
	// A long path has no triangles: for t=3 every edge dies.
	b := uncertain.NewBuilder(10)
	for u := 0; u+1 < 10; u++ {
		_ = b.AddEdge(u, u+1, 0.9)
	}
	g := b.Build()
	fg := mustFilter(t, g, 3)
	if fg.NumEdges() != 0 {
		t.Fatalf("path filtered for t=3 kept %d edges", fg.NumEdges())
	}
	// t=2 is vacuous.
	if fg2 := mustFilter(t, g, 2); fg2.NumEdges() != g.NumEdges() {
		t.Fatal("t=2 filter should be identity")
	}
}

func TestSharedNeighborhoodFilterIterates(t *testing.T) {
	// Two triangles sharing a vertex plus a tail: K4 requires t=4; removing
	// edges cascades. Build K4 with a pendant triangle: vertices 0-3 complete,
	// triangle {3,4,5}.
	b := uncertain.NewBuilder(6)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			_ = b.AddEdge(u, v, 0.9)
		}
	}
	_ = b.AddEdge(3, 4, 0.9)
	_ = b.AddEdge(3, 5, 0.9)
	_ = b.AddEdge(4, 5, 0.9)
	g := b.Build()
	fg := mustFilter(t, g, 4)
	// The pendant triangle cannot be part of a 4-clique; only K4 survives.
	if fg.NumEdges() != 6 {
		t.Fatalf("filter kept %d edges, want the 6 K4 edges", fg.NumEdges())
	}
	for _, e := range fg.Edges() {
		if e.U > 3 || e.V > 3 {
			t.Fatalf("edge %v outside K4 survived", e)
		}
	}
}

func TestLargeMULEMinSizeOne(t *testing.T) {
	// MinSize 0/1 are plain MULE.
	g := randomDyadic(12, 0.5, rand.New(rand.NewSource(555)))
	want := mustCollect(t, g, 0.25, Config{})
	for _, ms := range []int{0, 1} {
		if got := mustCollect(t, g, 0.25, Config{MinSize: ms}); !reflect.DeepEqual(got, want) {
			t.Fatalf("MinSize=%d diverged from plain MULE", ms)
		}
	}
}

func TestLargeMULEParallelAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(666))
	g := randomDyadic(25, 0.5, rng)
	want := mustCollect(t, g, 0.125, Config{MinSize: 4})
	got := mustCollect(t, g, 0.125, Config{MinSize: 4, Workers: 4, Ordering: OrderDegeneracy})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel + ordered LARGE-MULE diverged")
	}
}
