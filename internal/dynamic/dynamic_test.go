package dynamic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/faultinject"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

var dyadicProbs = []float64{1, 0.5, 0.25, 0.125}

func randomDyadic(n int, density float64, rng *rand.Rand) *uncertain.Graph {
	b := uncertain.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < density {
				_ = b.AddEdge(u, v, dyadicProbs[rng.Intn(len(dyadicProbs))])
			}
		}
	}
	return b.Build()
}

// expectCliques asserts the maintainer agrees with a fresh full enumeration
// of its own graph.
func expectCliques(t *testing.T, m *Maintainer, context string) {
	t.Helper()
	want, err := core.Collect(m.Graph(), m.Alpha())
	if err != nil {
		t.Fatalf("%s: oracle failed: %v", context, err)
	}
	got := m.Cliques()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\nmaintainer = %v\nfull MULE  = %v\nedges = %v",
			context, got, want, m.Graph().Edges())
	}
}

func TestNewSeedsFullEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomDyadic(3+rng.Intn(10), 0.5, rng)
		alpha := dyadicProbs[1+rng.Intn(3)]
		m, err := New(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		expectCliques(t, m, "after New")
		if m.NumEdges() != g.NumEdges() || m.NumVertices() != g.NumVertices() {
			t.Fatalf("maintainer sizes diverge from input graph")
		}
	}
}

func TestNewErrors(t *testing.T) {
	g := uncertain.NewBuilder(3).Build()
	if _, err := New(nil, 0.5); err == nil {
		t.Error("nil graph accepted")
	}
	for _, alpha := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := New(g, alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
}

// The central oracle test: random update sequences keep the maintainer in
// lockstep with full re-enumeration.
func TestRandomUpdateSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(9)
		g := randomDyadic(n, 0.3, rng)
		alpha := dyadicProbs[1+rng.Intn(3)]
		m, err := New(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			u := rng.Intn(n)
			v := rng.Intn(n)
			if u == v {
				continue
			}
			if _, exists := m.Prob(u, v); exists && rng.Float64() < 0.35 {
				if _, _, err := m.RemoveEdgeContext(context.Background(), u, v); err != nil {
					t.Fatalf("trial %d step %d: remove: %v", trial, step, err)
				}
			} else {
				p := dyadicProbs[rng.Intn(len(dyadicProbs))]
				if _, _, err := m.SetEdgeContext(context.Background(), u, v, p); err != nil {
					t.Fatalf("trial %d step %d: set: %v", trial, step, err)
				}
			}
			expectCliques(t, m, "mid-sequence")
		}
		stats := m.Stats()
		if stats.Updates == 0 || stats.Rebuilt == 0 {
			t.Fatalf("no work recorded: %+v", stats)
		}
	}
}

// Diffs must transform the previous clique set into the next one exactly.
func TestDiffsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 8
	g := randomDyadic(n, 0.4, rng)
	m, err := New(g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	prev := asKeySet(m.Cliques())
	for step := 0; step < 80; step++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		var diff Diff
		if _, exists := m.Prob(u, v); exists && rng.Float64() < 0.4 {
			diff, _, err = m.RemoveEdgeContext(context.Background(), u, v)
		} else {
			diff, _, err = m.SetEdgeContext(context.Background(), u, v, dyadicProbs[rng.Intn(len(dyadicProbs))])
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range diff.Removed {
			k := key(c)
			if !prev[k] {
				t.Fatalf("step %d: removed clique %v was not present", step, c)
			}
			delete(prev, k)
		}
		for _, c := range diff.Added {
			k := key(c)
			if prev[k] {
				t.Fatalf("step %d: added clique %v was already present", step, c)
			}
			prev[k] = true
		}
		now := asKeySet(m.Cliques())
		if !reflect.DeepEqual(prev, now) {
			t.Fatalf("step %d: diff-tracked set diverged from maintainer", step)
		}
	}
}

func asKeySet(cliques [][]int) map[string]bool {
	out := make(map[string]bool, len(cliques))
	for _, c := range cliques {
		out[key(c)] = true
	}
	return out
}

func TestSetEdgeValidation(t *testing.T) {
	m, err := New(uncertain.NewBuilder(4).Build(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 0, 0.5); err == nil {
		t.Error("self-loop accepted")
	}
	if _, _, err := m.SetEdgeContext(context.Background(), -1, 2, 0.5); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 9, 0.5); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	for _, p := range []float64{0, -0.5, 1.1, math.NaN()} {
		if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, p); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
	if _, _, err := m.RemoveEdgeContext(context.Background(), 0, 1); err == nil {
		t.Error("removing a missing edge succeeded")
	}
	if _, _, err := m.RemoveEdgeContext(context.Background(), 0, 0); err == nil {
		t.Error("removing a self-loop succeeded")
	}
}

func TestInsertThenRemoveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDyadic(10, 0.4, rng)
	m, err := New(g, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Cliques()
	// Insert a brand-new edge, then remove it: the clique set must return
	// to exactly its prior state.
	u, v := -1, -1
	for a := 0; a < 10 && u < 0; a++ {
		for b := a + 1; b < 10; b++ {
			if _, exists := m.Prob(a, b); !exists {
				u, v = a, b
				break
			}
		}
	}
	if u < 0 {
		t.Skip("random graph is complete")
	}
	addDiff, _, err := m.SetEdgeContext(context.Background(), u, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	removeDiff, _, err := m.RemoveEdgeContext(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	after := m.Cliques()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("insert+remove did not round trip:\nbefore %v\nafter  %v", before, after)
	}
	// The two diffs must be inverses.
	if !reflect.DeepEqual(addDiff.Added, removeDiff.Removed) ||
		!reflect.DeepEqual(addDiff.Removed, removeDiff.Added) {
		t.Fatalf("diffs not inverse:\nadd    %+v\nremove %+v", addDiff, removeDiff)
	}
}

func TestSingletonsTrackIsolation(t *testing.T) {
	// Two vertices, one edge: the edge is the only maximal clique. Removing
	// it must produce two singleton maximal cliques.
	g, err := uncertain.FromEdges(2, []uncertain.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cliques(); !reflect.DeepEqual(got, [][]int{{0, 1}}) {
		t.Fatalf("initial cliques %v", got)
	}
	diff, _, err := m.RemoveEdgeContext(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Cliques(); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("post-removal cliques %v, want singletons", got)
	}
	if len(diff.Added) != 2 || len(diff.Removed) != 1 {
		t.Fatalf("diff %+v, want +2/-1", diff)
	}
	// Lowering the probability below α has the same effect as removal for
	// qualification while the support edge remains.
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	if got := m.Cliques(); !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("below-threshold edge still forms a clique: %v", got)
	}
}

func TestProbReflectsUpdates(t *testing.T) {
	m, err := New(uncertain.NewBuilder(3).Build(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Prob(0, 1); ok {
		t.Fatal("edge exists before insertion")
	}
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, 0.75); err != nil {
		t.Fatal(err)
	}
	if p, ok := m.Prob(0, 1); !ok || p != 0.75 {
		t.Fatalf("Prob = %v,%v after set", p, ok)
	}
	if p, ok := m.Prob(1, 0); !ok || p != 0.75 {
		t.Fatalf("Prob not symmetric: %v,%v", p, ok)
	}
	if _, _, err := m.SetEdgeContext(context.Background(), 0, 1, 0.25); err != nil {
		t.Fatal(err)
	}
	if p, _ := m.Prob(0, 1); p != 0.25 {
		t.Fatalf("Prob = %v after update, want 0.25", p)
	}
}

// Graph() must round trip through the maintainer unchanged when no updates
// occur.
func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomDyadic(12, 0.5, rng)
	m, err := New(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	back := m.Graph()
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatal("sizes changed through the maintainer")
	}
	ae, be := g.Edges(), back.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d changed: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

// Property: after any single random update to a random graph, the
// maintainer matches full re-enumeration.
func TestQuickSingleUpdateCorrect(t *testing.T) {
	check := func(seed int64, ui, vi uint8, pi uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randomDyadic(n, 0.4, rng)
		m, err := New(g, 0.25)
		if err != nil {
			return false
		}
		u, v := int(ui)%n, int(vi)%n
		if u == v {
			return true
		}
		if _, _, err := m.SetEdgeContext(context.Background(), u, v, dyadicProbs[int(pi)%len(dyadicProbs)]); err != nil {
			return false
		}
		want, err := core.Collect(m.Graph(), 0.25)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m.Cliques(), want) ||
			(len(want) == 0 && m.NumCliques() == 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyInjective(t *testing.T) {
	cases := [][]int{
		{0}, {1}, {128}, {127}, {255}, {256}, {16384},
		{0, 1}, {1, 0x80}, {0x80, 1}, {1, 2, 3}, {12, 3}, {1, 23},
	}
	seen := map[string][]int{}
	for _, c := range cases {
		k := key(c)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, c)
		}
		seen[k] = c
	}
}

// TestPanickedUpdateRollsBack arms a panic before every clique emission: an
// update whose neighborhood enumeration panics reports StatusPanicked,
// returns an error wrapping core.ErrPanic, and leaves the graph and the
// clique set as they were. The fault plan is process-global, so this test
// does not run in parallel.
func TestPanickedUpdateRollsBack(t *testing.T) {
	m, err := New(randomDyadic(12, 0.5, rand.New(rand.NewSource(41))), 0.125)
	if err != nil {
		t.Fatal(err)
	}
	wantEdges, wantCliques := m.Graph().Edges(), m.Cliques()
	restore := faultinject.Activate(faultinject.NewPlan(1).Arm(faultinject.PanicVisitor, 1))
	defer restore()

	check := func(op string, st Stats, err error) {
		t.Helper()
		if !errors.Is(err, core.ErrPanic) {
			t.Fatalf("%s: err = %v, want wrapped core.ErrPanic", op, err)
		}
		if st.Status != core.StatusPanicked {
			t.Fatalf("%s: Status = %v, want %v", op, st.Status, core.StatusPanicked)
		}
		if got := m.Graph().Edges(); !reflect.DeepEqual(got, wantEdges) {
			t.Fatalf("%s: graph changed to %v, want %v", op, got, wantEdges)
		}
		if got := m.Cliques(); !reflect.DeepEqual(got, wantCliques) {
			t.Fatalf("%s: cliques changed to %v, want %v", op, got, wantCliques)
		}
	}
	_, st, err := m.SetEdgeContext(context.Background(), 0, 1, 0.5)
	check("SetEdgeContext", st, err)
	_, st, err = m.Apply(context.Background(), []EdgeUpdate{{U: 2, V: 3, P: 0.25}})
	check("Apply", st, err)
}
