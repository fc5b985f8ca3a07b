package dynamic

import (
	"context"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// edgeModel is a replay's own copy of the graph: the edges a maintainer
// must hold after the same updates, keyed by (min, max) endpoint.
type edgeModel map[[2]int]float64

func modelOf(g *uncertain.Graph) edgeModel {
	em := edgeModel{}
	for _, e := range g.Edges() {
		em[[2]int{e.U, e.V}] = e.P
	}
	return em
}

func pairKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

func (em edgeModel) apply(up EdgeUpdate) {
	if up.Remove {
		delete(em, pairKey(up.U, up.V))
	} else {
		em[pairKey(up.U, up.V)] = up.P
	}
}

// graph builds the model's edge list through the hashing Builder, the
// independent path the maintainer's row concatenation is checked against.
func (em edgeModel) graph(t testing.TB, n int) *uncertain.Graph {
	t.Helper()
	b := uncertain.NewBuilder(n)
	for k, p := range em {
		if err := b.AddEdge(k[0], k[1], p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func (em edgeModel) sorted() [][2]int {
	keys := make([][2]int, 0, len(em))
	for k := range em {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	return keys
}

// probLevels draws edge probabilities for a replay. A nil level list draws
// uniformly from (0, 1]; otherwise probabilities are the listed dyadic
// levels, whose products are exact.
type probLevels []float64

func (l probLevels) any(rng *rand.Rand) float64 {
	if l == nil {
		return 1 - rng.Float64()
	}
	return l[rng.Intn(len(l))]
}

// rise returns a probability above p, or p itself when none exists.
func (l probLevels) rise(rng *rand.Rand, p float64) float64 {
	if l == nil {
		return p + (1-p)*(1-rng.Float64())
	}
	var up []float64
	for _, q := range l {
		if q > p {
			up = append(up, q)
		}
	}
	if len(up) == 0 {
		return p
	}
	return up[rng.Intn(len(up))]
}

// fall returns a probability below p, or p itself when none exists.
func (l probLevels) fall(rng *rand.Rand, p float64) float64 {
	if l == nil {
		return p * (1 - rng.Float64())
	}
	var down []float64
	for _, q := range l {
		if q < p {
			down = append(down, q)
		}
	}
	if len(down) == 0 {
		return p
	}
	return down[rng.Intn(len(down))]
}

// randomBatch draws 1–6 valid updates against em, in order: probability
// rises and falls of existing edges, insertions of absent pairs, and
// removals. In about half the batches the last update targets the pair of
// an earlier update of the same batch again. em is left unchanged.
func randomBatch(rng *rand.Rand, n int, em edgeModel, levels probLevels) []EdgeUpdate {
	work := edgeModel{}
	for k, p := range em {
		work[k] = p
	}
	edges := em.sorted()
	size := 1 + rng.Intn(6)
	batch := make([]EdgeUpdate, 0, size)
	next := func(u, v int) EdgeUpdate {
		p, exists := work[pairKey(u, v)]
		if !exists {
			return EdgeUpdate{U: u, V: v, P: levels.any(rng)}
		}
		switch rng.Intn(3) {
		case 0:
			return EdgeUpdate{U: u, V: v, P: levels.rise(rng, p)}
		case 1:
			return EdgeUpdate{U: u, V: v, P: levels.fall(rng, p)}
		default:
			return EdgeUpdate{U: u, V: v, Remove: true}
		}
	}
	for len(batch) < size {
		var u, v int
		switch {
		case len(batch) > 0 && len(batch) == size-1 && rng.Intn(2) == 0:
			prev := batch[rng.Intn(len(batch))]
			u, v = prev.V, prev.U
		case len(edges) > 0 && rng.Intn(3) != 0:
			e := edges[rng.Intn(len(edges))]
			u, v = e[0], e[1]
		default:
			u, v = rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
		}
		up := next(u, v)
		work.apply(up)
		batch = append(batch, up)
	}
	return batch
}

// checkReplayStep compares the maintainer, after a batch, with the model:
// its graph against a Builder build of the model's edge list, its clique
// set against a fresh enumeration of that graph, and its net diff against
// the change between the clique sets before and after.
func checkReplayStep(t testing.TB, m *Maintainer, em edgeModel, before [][]int, diff Diff, where string) [][]int {
	t.Helper()
	g := m.Graph()
	if got, want := g.Edges(), em.graph(t, m.NumVertices()).Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Graph().Edges() = %v, want %v", where, got, want)
	}
	if m.NumEdges() != len(em) {
		t.Fatalf("%s: NumEdges = %d, want %d", where, m.NumEdges(), len(em))
	}
	want, err := core.Collect(g, m.Alpha())
	if err != nil {
		t.Fatalf("%s: fresh enumeration: %v", where, err)
	}
	got := m.Cliques()
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: maintainer cliques %v, fresh enumeration %v", where, got, want)
	}
	set := asKeySet(before)
	for _, c := range diff.Removed {
		delete(set, key(c))
	}
	for _, c := range diff.Added {
		set[key(c)] = true
	}
	if !reflect.DeepEqual(set, asKeySet(got)) {
		t.Fatalf("%s: previous clique set plus diff %+v is not the new set", where, diff)
	}
	return got
}

// replay applies the given number of random batches to a maintainer of g
// and checks every step against the model.
func replay(t *testing.T, g *uncertain.Graph, alpha float64, levels probLevels, batches int, rng *rand.Rand) {
	t.Helper()
	m, err := New(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	em := modelOf(g)
	cliques := m.Cliques()
	for b := 0; b < batches; b++ {
		batch := randomBatch(rng, g.NumVertices(), em, levels)
		diff, st, err := m.Apply(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d %+v: %v", b, batch, err)
		}
		if st.Updates != len(batch) || st.Rebuilt != 2*len(batch) {
			t.Fatalf("batch %d: stats %+v for %d updates", b, st, len(batch))
		}
		for _, up := range batch {
			em.apply(up)
		}
		cliques = checkReplayStep(t, m, em, cliques, diff, "batch")
	}
}

// TestBatchReplayMatchesRebuild replays random batches on random dyadic
// graphs and on BA600, and after every batch checks the maintainer's graph
// against a Builder build of the same edge list and its cliques against a
// fresh enumeration.
func TestBatchReplayMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 24; trial++ {
		n := 5 + rng.Intn(20)
		g := randomDyadic(n, 0.2+0.5*rng.Float64(), rng)
		replay(t, g, dyadicProbs[1+rng.Intn(3)], dyadicProbs, 15, rng)
	}
	batches := 30
	if testing.Short() {
		batches = 8
	}
	replay(t, gen.BA(600, 3), 0.001, nil, batches, rng)
}

// TestReplayWorkGolden pins the enumeration work of a fixed replay on
// BA600: the seeding run plus 40 random batches. The totals are those of
// the maintainer that kept its graph in per-vertex hash maps and built
// each neighbourhood through a Builder; the rows must enumerate exactly the
// same neighbourhood graphs.
func TestReplayWorkGolden(t *testing.T) {
	g := gen.BA(600, 5)
	m, err := New(g, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	em := modelOf(g)
	for b := 0; b < 40; b++ {
		batch := randomBatch(rng, g.NumVertices(), em, nil)
		if _, _, err := m.Apply(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		for _, up := range batch {
			em.apply(up)
		}
	}
	st := m.Stats()
	const wantCalls, wantRebuilt, wantCliques = 87424, 300, 5295
	if st.SearchCalls != wantCalls || st.Rebuilt != wantRebuilt || m.NumCliques() != wantCliques {
		t.Fatalf("SearchCalls %d, Rebuilt %d, cliques %d; want %d, %d, %d",
			st.SearchCalls, st.Rebuilt, m.NumCliques(), wantCalls, wantRebuilt, wantCliques)
	}
}

// TestGraphAllocationsIndependentOfEdges holds Graph to the same constant
// number of allocations on a 4-edge graph and on BA600's ~6,000 edges. The
// collector is off while it counts, so a GC cycle's own mallocs cannot
// enter the count.
func TestGraphAllocationsIndependentOfEdges(t *testing.T) {
	small, err := uncertain.FromEdges(5, []uncertain.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}, {U: 2, V: 3, P: 0.5}, {U: 3, V: 4, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(g *uncertain.Graph) float64 {
		m, err := New(g, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { m.Graph() })
	}
	lo, hi := measure(small), measure(gen.BA(600, 1))
	if lo != hi || hi > 4 {
		t.Fatalf("Graph allocations: %.0f at 4 edges, %.0f on BA600; want equal and ≤ 4", lo, hi)
	}
}
