package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// denseUncertain builds a G(n, p) uncertain graph with high edge
// probabilities — the dense-neighborhood shape the bit-row probe targets.
func denseUncertain(n int, p float64, seed int64) *uncertain.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := uncertain.NewBuilder(n)
	for _, e := range gen.GNP(n, p, rng) {
		_ = b.AddEdge(e[0], e[1], 0.85+0.14*rng.Float64())
	}
	return b.Build()
}

// TestIntersectModesEquivalentRandom is the 50-random-graph equivalence
// suite with the bitset path forced on and forced off: every intersect mode
// on every engine must produce the canonical clique set of the adaptive
// serial run.
func TestIntersectModesEquivalentRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(36)
		g := randomDyadic(n, 0.3+0.5*rng.Float64(), rng)
		alpha := dyadicAlphas[rng.Intn(len(dyadicAlphas))]
		want := mustCollect(t, g, alpha, Config{})
		for _, mode := range []IntersectMode{IntersectSorted, IntersectBitset} {
			for _, cfg := range []Config{
				{Intersect: mode},
				{Intersect: mode, Workers: 4},
				{Intersect: mode, MinSize: 3},
			} {
				got := mustCollect(t, g, alpha, cfg)
				if cfg.MinSize >= 2 {
					want2 := filterBySize(want, cfg.MinSize)
					if len(got) != len(want2) || (len(want2) > 0 && !reflect.DeepEqual(got, want2)) {
						t.Fatalf("trial %d (n=%d α=%v) mode %v cfg %+v diverged", trial, n, alpha, mode, cfg)
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d α=%v) mode %v cfg %+v diverged\ngot  %v\nwant %v",
						trial, n, alpha, mode, cfg, got, want)
				}
			}
		}
	}
}

// TestForcedBitsetActuallyRoutes pins that IntersectBitset is not silently
// equivalent to the sorted kernels: on a graph with any intersection work
// at all, the forced mode must report bitset-kernel hits.
func TestForcedBitsetActuallyRoutes(t *testing.T) {
	g := denseUncertain(60, 0.5, 1)
	_, stats, err := CollectWith(g, 0.3, Config{Intersect: IntersectBitset})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsetOps == 0 {
		t.Fatal("forced bitset mode reported no bitset intersections")
	}
	_, stats, err = CollectWith(g, 0.3, Config{Intersect: IntersectSorted})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsetOps != 0 {
		t.Fatal("sorted mode reported bitset intersections")
	}
}

// TestAdaptiveBitsetTriggersOnDense checks the density heuristic end to
// end: a dense G(n, 0.45) graph routes real work through the bitset kernel
// under the default adaptive policy, and the output matches the sorted
// kernels exactly.
func TestAdaptiveBitsetTriggersOnDense(t *testing.T) {
	g := denseUncertain(170, 0.5, 7)
	alpha := 0.45
	want := mustCollect(t, g, alpha, Config{Intersect: IntersectSorted})
	var stats Stats
	var got [][]int
	got, stats, err := CollectWith(g, alpha, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BitsetOps == 0 {
		t.Fatal("adaptive policy never used the bitset kernel on a dense graph")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("adaptive bitset run diverged from the sorted kernels")
	}
	// The work-stealing slots share the read-only index.
	gotPar, pstats, err := CollectWith(g, alpha, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pstats.BitsetOps == 0 {
		t.Fatal("parallel adaptive run never used the bitset kernel")
	}
	if !reflect.DeepEqual(gotPar, want) {
		t.Fatal("parallel adaptive bitset run diverged")
	}
}

// TestBitAdjacencyConstruction covers the index policy gates.
func TestBitAdjacencyConstruction(t *testing.T) {
	g := denseUncertain(100, 0.8, 3)
	if b := buildBitAdjacency(g, IntersectSorted); b != nil {
		t.Fatal("sorted mode must not build an index")
	}
	b := buildBitAdjacency(g, IntersectBitset)
	if b == nil {
		t.Fatal("forced mode built no index")
	}
	for u := 0; u < g.NumVertices(); u++ {
		row, _ := g.Adjacency(u)
		view := b.row(int32(u))
		if g.Degree(u) > 0 && view == nil {
			t.Fatalf("forced mode left row %d unmirrored", u)
		}
		if len(view) != b.words+rankWords(b.words) {
			t.Fatalf("row %d view has %d words, want %d bit words and their ranks", u, len(view), b.words)
		}
		for _, v := range row {
			if view[v>>6]&(1<<(uint32(v)&63)) == 0 {
				t.Fatalf("row %d missing neighbor %d in bit mirror", u, v)
			}
		}
		set := 0
		for k, w := range view[:b.words] {
			// rank[k] counts the neighbours below 64·k.
			below := sort.Search(len(row), func(i int) bool { return row[i] >= int32(64*k) })
			if rank := int(uint16(view[b.words+k/4] >> (16 * (k % 4)))); rank != below {
				t.Fatalf("row %d: rank[%d] = %d, want %d", u, k, rank, below)
			}
			set += bits.OnesCount64(w)
		}
		if set != len(row) {
			t.Fatalf("row %d mirror has %d bits, want %d", u, set, len(row))
		}
	}
	// Adaptive mode only mirrors rows long enough to matter.
	sparse := randomDyadic(50, 0.1, rand.New(rand.NewSource(5)))
	if b := buildBitAdjacency(sparse, IntersectAdaptive); b != nil {
		t.Fatal("adaptive mode mirrored rows of a sparse graph")
	}
	if b := buildBitAdjacency(g, IntersectAdaptive); b == nil {
		t.Fatal("adaptive mode skipped a dense graph")
	}
	// nil receiver behaves as the empty index.
	var nilIdx *bitAdjacency
	if nilIdx.row(0) != nil {
		t.Fatal("nil index must behave as empty")
	}
	nilIdx.release() // must be a no-op, not a panic
}

// TestFilterPreservesVerticesAndSortOrder is the prefilter-rebuild
// regression: the CSR rebuild must keep the vertex count and hand back
// strictly ascending rows, for random inputs and for inputs the filter
// mangles heavily.
func TestFilterPreservesVerticesAndSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g := randomDyadic(10+rng.Intn(30), 0.2+0.6*rng.Float64(), rng)
		for _, minSize := range []int{3, 4, 6} {
			fg := mustFilter(t, g, minSize)
			if fg.NumVertices() != g.NumVertices() {
				t.Fatalf("filter changed vertex count: %d → %d", g.NumVertices(), fg.NumVertices())
			}
			for u := 0; u < fg.NumVertices(); u++ {
				row, probs := fg.Adjacency(u)
				if len(row) != len(probs) {
					t.Fatalf("row %d lanes diverge", u)
				}
				if !sort.SliceIsSorted(row, func(i, j int) bool { return row[i] < row[j] }) {
					t.Fatalf("filtered row %d not sorted: %v", u, row)
				}
				for i := 1; i < len(row); i++ {
					if row[i] == row[i-1] {
						t.Fatalf("filtered row %d has duplicate neighbor %d", u, row[i])
					}
				}
				// Surviving edges keep their original probability.
				for i, v := range row {
					if p, ok := g.Prob(u, int(v)); !ok || p != probs[i] {
						t.Fatalf("edge {%d,%d} prob changed: %v vs %v", u, v, probs[i], p)
					}
				}
			}
		}
	}
}
