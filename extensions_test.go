package mule_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// The facade tests exercise the public extension API end to end; algorithmic
// depth lives in the internal packages' own suites.

func buildBipartite(t *testing.T) *mule.Bipartite {
	t.Helper()
	g, err := mule.BipartiteFromEdges(3, 3, []mule.BipartiteEdge{
		{L: 0, R: 0, P: 0.9}, {L: 0, R: 1, P: 0.9},
		{L: 1, R: 0, P: 0.9}, {L: 1, R: 1, P: 0.9},
		{L: 2, R: 2, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeBicliques(t *testing.T) {
	ctx := context.Background()
	g := buildBipartite(t)
	q, err := mule.NewBicliqueQuery(g, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	bcs, err := q.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The 2x2 block has probability 0.9^4 ≈ 0.656 ≥ 0.6; the weak pendant
	// edge (0.5) fails.
	if len(bcs) != 1 {
		t.Fatalf("got %d bicliques, want 1: %v", len(bcs), bcs)
	}
	want := mule.Biclique{Left: []int{0, 1}, Right: []int{0, 1}, Prob: 0.9 * 0.9 * 0.9 * 0.9}
	got := bcs[0]
	if len(got.Left) != 2 || len(got.Right) != 2 ||
		math.Abs(got.Prob-want.Prob) > 1e-15 {
		t.Fatalf("got %+v, want %+v", got, want)
	}

	sides, err := mule.NewBicliqueQuery(g, 0.3, mule.WithSides(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sides.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted != 1 {
		t.Fatalf("WithSides(2, 2) run emitted %d, want 1", stats.Emitted)
	}
}

func TestFacadeBipartiteBuilder(t *testing.T) {
	b := mule.NewBipartiteBuilder(2, 2)
	if err := b.AddEdge(0, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 0, 0.5); err == nil {
		t.Fatal("duplicate edge accepted through the facade")
	}
	g := b.Build()
	if g.NumLeft() != 2 || g.NumRight() != 2 || g.NumEdges() != 1 {
		t.Fatalf("unexpected sizes: %d/%d/%d", g.NumLeft(), g.NumRight(), g.NumEdges())
	}
}

func buildTriangleWithPendant(t *testing.T) *mule.Graph {
	t.Helper()
	g, err := mule.FromEdges(5, []mule.Edge{
		{U: 0, V: 1, P: 1}, {U: 0, V: 2, P: 1}, {U: 1, V: 2, P: 1},
		{U: 2, V: 3, P: 0.6}, {U: 3, V: 4, P: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeQuasiCliques(t *testing.T) {
	g := buildTriangleWithPendant(t)
	q, err := mule.NewQuasiQuery(g, mule.WithGamma(1))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := q.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || len(sets[0]) != 3 {
		t.Fatalf("γ=1 mining = %v, want the certain triangle", sets)
	}
	if !mule.IsExpectedQuasiClique(g, []int{0, 1, 2}, 1) {
		t.Fatal("certain triangle rejected by the predicate")
	}
	p, err := mule.QuasiCliqueWorldProb(g, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("world probability of certain triangle = %v, want 1", p)
	}
	est, err := mule.QuasiCliqueWorldProbMC(g, []int{0, 1, 2, 3}, 0.5, 20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := mule.QuasiCliqueWorldProb(g, []int{0, 1, 2, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 0.02 {
		t.Fatalf("MC %v too far from exact %v", est, exact)
	}
}

func TestFacadeTruss(t *testing.T) {
	ctx := context.Background()
	g := buildTriangleWithPendant(t)
	q, err := mule.NewTrussQuery(g, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := q.Truss(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Only the certain triangle supports every edge with probability 1; the
	// pendant edges have no triangles.
	if tr.NumEdges() != 3 {
		t.Fatalf("(3,0.9)-truss has %d edges, want 3", tr.NumEdges())
	}
	dec, err := q.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != g.NumEdges() {
		t.Fatalf("decomposition covers %d of %d edges", len(dec), g.NumEdges())
	}
	p, err := mule.TrussSupportProb(g, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("support probability of a certain triangle edge = %v, want 1", p)
	}
}

// TestTrussSupportProbThresholdAboveDegree asks for more triangles than the
// edge's endpoints have common neighbours: the answer is 0 without a DP row
// of t entries (1<<24 of them would be 128 MiB), so the call's memory stays
// bounded by the smaller degree.
func TestTrussSupportProbThresholdAboveDegree(t *testing.T) {
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.5}, {U: 0, V: 2, P: 0.5}, {U: 1, V: 2, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three, so a stray background allocation cannot fail it
		runtime.ReadMemStats(&before)
		p, err := mule.TrussSupportProb(g, 0, 1, 1<<24)
		runtime.ReadMemStats(&after)
		if err != nil || p != 0 {
			t.Fatalf("TrussSupportProb(t = 1<<24) = %v, %v; want 0, nil", p, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("TrussSupportProb(t = 1<<24) allocated %d bytes on a triangle, want < 64 KiB", least)
	}
}

func TestFacadeCores(t *testing.T) {
	ctx := context.Background()
	g := buildTriangleWithPendant(t)
	q, err := mule.NewCoreQuery(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := q.Decompose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.CoreNumber) != g.NumVertices() {
		t.Fatalf("core decomposition covers %d of %d vertices", len(dec.CoreNumber), g.NumVertices())
	}
	core, err := q.Core(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The certain triangle is a (2,η)-core for any η.
	if len(core) < 3 {
		t.Fatalf("(2,0.5)-core = %v, want at least the triangle", core)
	}
}

func TestFacadeMaintainer(t *testing.T) {
	ctx := context.Background()
	g := buildTriangleWithPendant(t)
	m, err := mule.NewMaintainer(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCliques() == 0 {
		t.Fatal("maintainer seeded empty")
	}
	// Strengthen the pendant edge {3,4} so that it qualifies at α = 0.5.
	diff, _, err := m.SetEdgeContext(ctx, 3, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Added) == 0 {
		t.Fatalf("strengthening an edge added nothing: %+v", diff)
	}
	// The maintainer must agree with a fresh enumeration of its own graph.
	want := collectVertices(t, newQuery(t, m.Graph(), 0.5))
	got := m.Cliques()
	if len(got) != len(want) {
		t.Fatalf("maintainer has %d cliques, fresh run %d", len(got), len(want))
	}
	if _, _, err := m.RemoveEdgeContext(ctx, 3, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RemoveEdgeContext(ctx, 3, 4); err == nil {
		t.Fatal("double removal succeeded")
	}
}

func TestFacadeTopK(t *testing.T) {
	ctx := context.Background()
	q := newQuery(t, buildTriangleWithPendant(t), 0.1)
	best, err := q.TopK(ctx, 2, mule.ByProb)
	if err != nil {
		t.Fatal(err)
	}
	if len(best) != 2 {
		t.Fatalf("top-2 returned %d cliques", len(best))
	}
	if best[0].Prob < best[1].Prob {
		t.Fatal("top-k not sorted by probability")
	}
	if best[0].Prob != 1 {
		t.Fatalf("best clique probability %v, want the certain triangle's 1", best[0].Prob)
	}
	largest, err := q.TopK(ctx, 1, mule.BySize)
	if err != nil {
		t.Fatal(err)
	}
	if len(largest) != 1 || len(largest[0].Vertices) != 3 {
		t.Fatalf("largest clique = %+v, want the triangle", largest)
	}
}

func TestFacadeBicliquesContext(t *testing.T) {
	b := mule.NewBipartiteBuilder(3, 3)
	for l := 0; l < 3; l++ {
		for r := 0; r < 3; r++ {
			if err := b.AddEdge(l, r, 0.9); err != nil {
				t.Fatal(err)
			}
		}
	}
	q, err := mule.NewBicliqueQuery(b.Build(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A live context enumerates normally.
	stats, err := q.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Emitted == 0 {
		t.Fatal("no bicliques found")
	}
	// A dead context aborts with a wrapped context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Run(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context biclique run returned %v, want wrapped context.Canceled", err)
	}
}

func TestFacadeMaintainerContext(t *testing.T) {
	b := mule.NewBuilder(3)
	if err := b.AddEdge(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	m, err := mule.NewMaintainerContext(context.Background(), g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCliques() == 0 {
		t.Fatal("maintainer seeded empty")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mule.NewMaintainerContext(ctx, g, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context seeding returned %v, want wrapped context.Canceled", err)
	}
}
