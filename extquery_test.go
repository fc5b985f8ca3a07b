package mule_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/gen"
)

// This file pins the tentpole of the extension-query redesign: every §6
// miner is a prepared query with the exact ergonomics of Query, the
// deprecated flat functions are output-identical to the new surface, and
// the cancellation/budget/limit/stream contracts hold for each miner.

// randomBipartite returns a small random uncertain bipartite graph.
func randomBipartite(rng *rand.Rand) *mule.Bipartite {
	nL, nR := 3+rng.Intn(6), 3+rng.Intn(6)
	b := mule.NewBipartiteBuilder(nL, nR)
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < 0.5 {
				_ = b.AddEdge(l, r, 0.3+0.7*rng.Float64())
			}
		}
	}
	return b.Build()
}

// smallRandomGraph returns a random uncertain graph small enough for the
// exponential quasi-clique search.
func smallRandomGraph(rng *rand.Rand, n int) *mule.Graph {
	edges := gen.GNP(n, 0.25+0.35*rng.Float64(), rng)
	g, err := gen.BuildUncertain(n, edges, gen.UniformRangeProb(0.3, 1.0), rng)
	if err != nil {
		panic(err)
	}
	return g
}

// TestBicliqueQueryMatchesLegacy pins old≡new on 50 random bipartite
// graphs: the deprecated CollectBicliques, the new Collect, and the Stream
// iterator all produce the same biclique multiset.
func TestBicliqueQueryMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		g := randomBipartite(rng)
		alpha := []float64{0.1, 0.3, 0.6}[i%3]
		want, err := mule.CollectBicliques(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		q, err := mule.NewBicliqueQuery(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d α=%g: Collect = %v, legacy = %v", i, alpha, got, want)
		}
		var streamed []mule.Biclique
		for b, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("graph %d: stream error %v", i, err)
			}
			streamed = append(streamed, b)
		}
		// The stream yields in engine order; compare as canonical sets.
		if len(streamed) != len(want) {
			t.Fatalf("graph %d: stream yielded %d bicliques, want %d", i, len(streamed), len(want))
		}
		n, err := q.Count(ctx)
		if err != nil || n != int64(len(want)) {
			t.Fatalf("graph %d: Count = (%d, %v), want %d", i, n, err, len(want))
		}
		// The legacy Enumerate trio agrees too.
		stats, err := mule.EnumerateBicliques(g, alpha, nil)
		if err != nil || stats.Emitted != int64(len(want)) {
			t.Fatalf("graph %d: legacy Enumerate = (%d, %v)", i, stats.Emitted, err)
		}
		if stats.Status != mule.StatusComplete {
			t.Fatalf("graph %d: legacy run status %v", i, stats.Status)
		}
	}
}

// TestQuasiQueryMatchesLegacy pins old≡new on 50 small random graphs for
// the quasi-clique miner across the supported γ range.
func TestQuasiQueryMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		g := smallRandomGraph(rng, 8+rng.Intn(8))
		gamma := []float64{0.5, 0.75, 1}[i%3]
		want, err := mule.CollectQuasiCliques(g, mule.QuasiConfig{Gamma: gamma})
		if err != nil {
			t.Fatal(err)
		}
		q, err := mule.NewQuasiQuery(g, mule.WithGamma(gamma))
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d γ=%g: Collect = %v, legacy = %v", i, gamma, got, want)
		}
		var streamed [][]int
		for s, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("graph %d: stream error %v", i, err)
			}
			streamed = append(streamed, s)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Fatalf("graph %d: Stream = %v, legacy = %v", i, streamed, want)
		}
	}
}

// TestTrussQueryMatchesLegacy pins old≡new for the truss decomposition and
// the (k,η)-truss subgraph on 50 random graphs.
func TestTrussQueryMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 50; i++ {
		g := smallRandomGraph(rng, 12+rng.Intn(14))
		eta := []float64{0.2, 0.5, 0.9}[i%3]
		want, err := mule.TrussDecompose(g, eta)
		if err != nil {
			t.Fatal(err)
		}
		q, err := mule.NewTrussQuery(g, eta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d η=%g: Collect = %v, legacy = %v", i, eta, got, want)
		}
		// The stream yields every edge exactly once with its final number.
		seen := map[[2]int]int{}
		for e, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("graph %d: stream error %v", i, err)
			}
			seen[[2]int{e.U, e.V}] = e.Truss
		}
		if len(seen) != len(want) {
			t.Fatalf("graph %d: stream yielded %d edges, want %d", i, len(seen), len(want))
		}
		for _, e := range want {
			if seen[[2]int{e.U, e.V}] != e.Truss {
				t.Fatalf("graph %d: stream truss of {%d,%d} = %d, want %d", i, e.U, e.V, seen[[2]int{e.U, e.V}], e.Truss)
			}
		}
		for _, k := range []int{2, 3, 4} {
			wantTr, err := mule.Truss(g, k, eta)
			if err != nil {
				t.Fatal(err)
			}
			gotTr, err := q.Truss(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTr.Edges(), wantTr.Edges()) {
				t.Fatalf("graph %d (k=%d, η=%g): Truss edge sets differ", i, k, eta)
			}
		}
	}
}

// TestCoreQueryMatchesLegacy pins old≡new for the core decomposition and
// the (k,η)-core on 50 random graphs.
func TestCoreQueryMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 50; i++ {
		g := smallRandomGraph(rng, 12+rng.Intn(14))
		eta := []float64{0.2, 0.5, 0.9}[i%3]
		want, err := mule.CoreDecompose(g, eta)
		if err != nil {
			t.Fatal(err)
		}
		q, err := mule.NewCoreQuery(g, eta)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := q.Decompose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, want) {
			t.Fatalf("graph %d η=%g: Decompose = %+v, legacy = %+v", i, eta, dec, want)
		}
		// Collect agrees with the decomposition's core numbers.
		vcs, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(vcs) != len(want.CoreNumber) {
			t.Fatalf("graph %d: Collect covers %d of %d vertices", i, len(vcs), len(want.CoreNumber))
		}
		for _, vc := range vcs {
			if want.CoreNumber[vc.V] != vc.Core {
				t.Fatalf("graph %d: core of %d = %d, want %d", i, vc.V, vc.Core, want.CoreNumber[vc.V])
			}
		}
		for _, k := range []int{1, 2, 3} {
			wantCore, err := mule.Core(g, k, eta)
			if err != nil {
				t.Fatal(err)
			}
			gotCore, err := q.Core(ctx, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotCore, wantCore) {
				t.Fatalf("graph %d (k=%d): Core = %v, legacy = %v", i, k, gotCore, wantCore)
			}
		}
	}
}

// TestMaintainerContextMatchesLegacy drives two maintainers through the
// same update sequence — one with the deprecated SetEdge/RemoveEdge, one
// with the context-aware methods — and checks identical diffs and states;
// Apply's net diff must reconcile the initial and final clique sets.
func TestMaintainerContextMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	g := smallRandomGraph(rng, 18)
	const alpha = 0.2
	m1, err := mule.NewMaintainer(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := mule.NewMaintainer(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		u, v := rng.Intn(18), rng.Intn(18)
		if u == v {
			continue
		}
		if _, ok := m1.Prob(u, v); ok && rng.Float64() < 0.3 {
			d1, err1 := m1.RemoveEdge(u, v)
			d2, stats, err2 := m2.RemoveEdgeContext(ctx, u, v)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: error mismatch %v vs %v", step, err1, err2)
			}
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("step %d: remove diffs differ: %+v vs %+v", step, d1, d2)
			}
			if err2 == nil && stats.Status != mule.StatusComplete {
				t.Fatalf("step %d: per-op status %v", step, stats.Status)
			}
		} else {
			p := 0.3 + 0.7*rng.Float64()
			d1, err1 := m1.SetEdge(u, v, p)
			d2, stats, err2 := m2.SetEdgeContext(ctx, u, v, p)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: error mismatch %v vs %v", step, err1, err2)
			}
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("step %d: set diffs differ: %+v vs %+v", step, d1, d2)
			}
			if err2 == nil && (stats.Updates != 1 || stats.Rebuilt != 2) {
				t.Fatalf("step %d: per-op stats %+v", step, stats)
			}
		}
	}
	if !reflect.DeepEqual(m1.Cliques(), m2.Cliques()) {
		t.Fatal("maintainers diverged after identical update sequences")
	}

	// Apply: the net diff reconciles the before/after clique sets.
	before := m2.Cliques()
	batch := []mule.EdgeUpdate{
		{U: 0, V: 1, P: 0.95},
		{U: 0, V: 2, P: 0.95},
		{U: 1, V: 2, P: 0.95},
		{U: 0, V: 1, Remove: true},
	}
	diff, stats, err := m2.Apply(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status != mule.StatusComplete || stats.Updates != 4 {
		t.Fatalf("Apply stats %+v", stats)
	}
	after := m2.Cliques()
	reconciled := map[string]bool{}
	for _, c := range before {
		reconciled[key(c)] = true
	}
	for _, c := range diff.Removed {
		if !reconciled[key(c)] {
			t.Fatalf("net diff removed %v which was not present", c)
		}
		delete(reconciled, key(c))
	}
	for _, c := range diff.Added {
		if reconciled[key(c)] {
			t.Fatalf("net diff added %v which was already present", c)
		}
		reconciled[key(c)] = true
	}
	if len(reconciled) != len(after) {
		t.Fatalf("net diff reconciles to %d cliques, maintainer has %d", len(reconciled), len(after))
	}
	for _, c := range after {
		if !reconciled[key(c)] {
			t.Fatalf("maintainer clique %v missing from reconciled set", c)
		}
	}
	// The maintainer agrees with a fresh enumeration of its own graph.
	fresh, err := mule.Collect(m2.Graph(), alpha)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Cliques()
	if !reflect.DeepEqual(got, fresh) {
		t.Fatalf("maintainer state diverged from fresh enumeration after Apply")
	}
}

// key encodes a sorted clique for set reconciliation in tests.
func key(c []int) string {
	buf := make([]byte, 0, len(c)*3)
	for _, v := range c {
		for v >= 0x80 {
			buf = append(buf, byte(v)|0x80)
			v >>= 7
		}
		buf = append(buf, byte(v))
	}
	return string(buf)
}

// --- Cancellation matrix ---

// slowBipartite returns a bipartite graph whose full biclique enumeration
// takes far longer than the cancellation tests' deadlines.
func slowBipartite(t testing.TB) *mule.Bipartite {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	const nL, nR = 30, 30
	b := mule.NewBipartiteBuilder(nL, nR)
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < 0.6 {
				_ = b.AddEdge(l, r, 0.5+0.5*rng.Float64())
			}
		}
	}
	return b.Build()
}

// slowDenseGraph returns a dense unipartite graph heavy enough for the
// truss/core/quasi mid-run cancellation tests.
func slowDenseGraph(t testing.TB, n int) *mule.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	edges := gen.GNP(n, 0.5, rng)
	g, err := gen.BuildUncertain(n, edges, gen.ConstProb(0.9), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// extMiner abstracts one extension query for the matrix: runFull performs a
// full run under ctx and returns (status, err); budget rebuilds the query
// with the given WithBudget bound.
type extMiner struct {
	name string
	// run executes the miner on its slow input under ctx with the given
	// extra options and returns the terminal status.
	run func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error)
	// budget is a WithBudget bound known to be below the slow input's full
	// work, so the budget leg deterministically exhausts it.
	budget int64
	// fastRun is a quickly-completing configuration for the after-cancel
	// leg.
	fastRun func(ctx context.Context) (mule.RunStatus, error)
}

func extensionMiners(t *testing.T) []extMiner {
	bigB := slowBipartite(t)
	smallB := func() *mule.Bipartite {
		b := mule.NewBipartiteBuilder(2, 2)
		_ = b.AddEdge(0, 0, 0.9)
		_ = b.AddEdge(1, 1, 0.9)
		return b.Build()
	}()
	bigG := slowDenseGraph(t, 150)
	quasiG := slowDenseGraph(t, 40)
	// Core and densest share the 300-vertex input: a full core run on it
	// takes ~100ms, ten times the mid leg's deadline, where the 150-vertex
	// input finishes in under 10ms.
	peelG := slowDenseGraph(t, 300)
	// 900 vertices ≈ 200k edges: the 64 seeding sweeps alone take well past
	// the mid leg's 10ms deadline even without the race detector's drag.
	clusterG := slowDenseGraph(t, 900)
	smallG, err := mule.FromEdges(4, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []extMiner{
		{
			name:   "biclique",
			budget: 20000,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				q, err := mule.NewBicliqueQuery(bigB, 1e-30, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewBicliqueQuery(smallB, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
		{
			name:   "quasi",
			budget: 20000,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				opts = append([]mule.Option{mule.WithGamma(0.5)}, opts...)
				q, err := mule.NewQuasiQuery(quasiG, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewQuasiQuery(smallG, mule.WithGamma(1))
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
		{
			name:   "truss",
			budget: 20000,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				q, err := mule.NewTrussQuery(bigG, 0.99, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewTrussQuery(smallG, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
		{
			name:   "core",
			budget: 2000,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				q, err := mule.NewCoreQuery(peelG, 0.9, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewCoreQuery(smallG, 0.5)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
		{
			// Peeling charges its budget in 64-step batches, so a budget of
			// 100 deterministically aborts at the second batch (128 > 100),
			// long before the 300 peel steps finish.
			name:   "densest",
			budget: 100,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				q, err := mule.NewDensestQuery(peelG, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewDensestQuery(smallG)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
		{
			// Every most-reliable-path sweep charges one budget unit and
			// farthest-first seeding alone needs 64 sweeps, so a budget of 16
			// exhausts during seeding.
			name:   "cluster",
			budget: 16,
			run: func(ctx context.Context, opts ...mule.Option) (mule.RunStatus, error) {
				opts = append([]mule.Option{mule.WithCenters(64)}, opts...)
				q, err := mule.NewClusterQuery(clusterG, opts...)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
			fastRun: func(ctx context.Context) (mule.RunStatus, error) {
				q, err := mule.NewClusterQuery(smallG, mule.WithCenters(2))
				if err != nil {
					t.Fatal(err)
				}
				stats, err := q.Run(ctx, nil)
				return stats.Status, err
			},
		},
	}
}

// TestExtensionCancellationMatrix runs every extension query type through
// cancel {before, mid, after}: an already-dead context fails fast with
// StatusCanceled and no work; a deadline firing mid-run aborts with a
// wrapped context.DeadlineExceeded and no leaked goroutines; a cancel after
// a completed run changes nothing. The mirror of PR 3's clique matrix.
func TestExtensionCancellationMatrix(t *testing.T) {
	for _, m := range extensionMiners(t) {
		m := m
		t.Run(m.name+"/before", func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			status, err := m.run(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if status != mule.StatusCanceled {
				t.Fatalf("status = %v, want canceled", status)
			}
			waitNoExtraGoroutines(t, base)
		})
		t.Run(m.name+"/mid", func(t *testing.T) {
			base := runtime.NumGoroutine()
			// The slow inputs run for hundreds of milliseconds to seconds
			// (the budget leg below proves they expand ≥ tens of thousands
			// of charged work units), so a 10ms deadline lands mid-run.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			defer cancel()
			status, err := m.run(ctx)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
			}
			if status != mule.StatusDeadline {
				t.Fatalf("status = %v, want deadline", status)
			}
			waitNoExtraGoroutines(t, base)
		})
		t.Run(m.name+"/after", func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			status, err := m.fastRun(ctx)
			cancel()
			if err != nil {
				t.Fatalf("completed run returned %v", err)
			}
			if status != mule.StatusComplete {
				t.Fatalf("status = %v, want complete", status)
			}
			waitNoExtraGoroutines(t, base)
		})
		t.Run(m.name+"/budget", func(t *testing.T) {
			status, err := m.run(context.Background(), mule.WithBudget(m.budget))
			if !errors.Is(err, mule.ErrBudget) {
				t.Fatalf("err = %v, want wrapped ErrBudget", err)
			}
			if status != mule.StatusBudget {
				t.Fatalf("status = %v, want budget", status)
			}
		})
	}
}

// TestMaintainerCancellation covers the maintainer's corner of the matrix:
// a dead context fails SetEdgeContext fast; a mid-update deadline aborts
// with the wrapped cause AND rolls the mutation back, leaving the
// maintainer consistent with a fresh enumeration; Apply reports the
// committed prefix.
func TestMaintainerCancellation(t *testing.T) {
	g := slowGraph(t)
	const alpha = 1e-30
	m, err := mule.NewMaintainer(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	edgesBefore := m.NumEdges()
	cliquesBefore := m.NumCliques()

	// Dead context: fail fast, no mutation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, stats, err := m.SetEdgeContext(ctx, 0, 1, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context SetEdgeContext = %v (stats %+v), want wrapped context.Canceled", err, stats)
	}

	// Mid-update deadline: the dense neighborhood rebuild at α=1e-30 takes
	// far longer than 2ms, so the deadline lands inside the enumeration.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer dcancel()
	_, stats, err := m.SetEdgeContext(dctx, 0, 1, 0.12345)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-update SetEdgeContext = %v, want wrapped context.DeadlineExceeded", err)
	}
	if stats.Status != mule.StatusDeadline {
		t.Fatalf("per-op status = %v, want deadline", stats.Status)
	}
	// Rolled back: graph and clique set unchanged.
	if m.NumEdges() != edgesBefore || m.NumCliques() != cliquesBefore {
		t.Fatalf("aborted update mutated the maintainer: %d/%d edges, %d/%d cliques",
			m.NumEdges(), edgesBefore, m.NumCliques(), cliquesBefore)
	}
	if p, _ := m.Prob(0, 1); p == 0.12345 {
		t.Fatal("aborted SetEdgeContext left the new probability behind")
	}

	// Apply under a dead context: zero updates committed, empty diff.
	diff, stats, err := m.Apply(ctx, []mule.EdgeUpdate{{U: 0, V: 1, P: 0.5}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context Apply = %v, want wrapped context.Canceled", err)
	}
	if len(diff.Added) != 0 || len(diff.Removed) != 0 || stats.Updates != 0 {
		t.Fatalf("dead-context Apply committed work: diff %+v, stats %+v", diff, stats)
	}
}

// TestExtensionStreamBreak: breaking out of each extension Stream loop
// stops the miner on the spot, leaks no goroutines, and leaves the query
// reusable — the Query.Cliques contract.
func TestExtensionStreamBreak(t *testing.T) {
	ctx := context.Background()
	bigB := slowBipartite(t)
	bigG := slowDenseGraph(t, 150)
	quasiG := slowDenseGraph(t, 14)

	t.Run("biclique", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewBicliqueQuery(bigB, 1e-30)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for b, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if len(b.Left) == 0 && len(b.Right) == 0 {
				t.Fatal("empty biclique")
			}
			if n++; n == 5 {
				break
			}
		}
		if n != 5 {
			t.Fatalf("loop saw %d bicliques", n)
		}
		waitNoExtraGoroutines(t, base)
		// The query is reusable after an abandoned stream (the full count
		// would be expensive, so reuse is proven with an early stop).
		if _, err := q.Run(context.Background(), func(l, r []int, p float64) bool { return false }); !errors.Is(err, mule.ErrStopped) {
			t.Fatalf("reuse after break: %v", err)
		}
	})
	t.Run("quasi", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewQuasiQuery(quasiG, mule.WithGamma(0.6))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for s, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if len(s) == 0 {
				t.Fatal("empty set")
			}
			if n++; n == 2 {
				break
			}
		}
		waitNoExtraGoroutines(t, base)
	})
	t.Run("truss", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewTrussQuery(bigG, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for e, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if e.Truss < 2 {
				t.Fatalf("truss number %d below 2", e.Truss)
			}
			if n++; n == 5 {
				break
			}
		}
		if n != 5 {
			t.Fatalf("loop saw %d edges", n)
		}
		waitNoExtraGoroutines(t, base)
	})
	t.Run("core", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewCoreQuery(bigG, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for vc, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if vc.V < 0 || vc.V >= 150 {
				t.Fatalf("vertex %d out of range", vc.V)
			}
			if n++; n == 5 {
				break
			}
		}
		waitNoExtraGoroutines(t, base)
	})
	t.Run("densest", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewDensestQuery(bigG)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for c, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if len(c.Vertices) == 0 {
				t.Fatal("empty candidate")
			}
			if c.Probability < 0 || c.Probability > 1 {
				t.Fatalf("probability %g outside [0,1]", c.Probability)
			}
			if n++; n == 1 {
				break
			}
		}
		if n != 1 {
			t.Fatalf("loop saw %d candidates", n)
		}
		waitNoExtraGoroutines(t, base)
	})
	t.Run("cluster", func(t *testing.T) {
		base := runtime.NumGoroutine()
		q, err := mule.NewClusterQuery(bigG, mule.WithCenters(8))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for c, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if len(c.Members) == 0 {
				t.Fatal("empty cluster")
			}
			if n++; n == 2 {
				break
			}
		}
		if n != 2 {
			t.Fatalf("loop saw %d clusters", n)
		}
		waitNoExtraGoroutines(t, base)
	})
	t.Run("maintainer", func(t *testing.T) {
		base := runtime.NumGoroutine()
		g, err := mule.FromEdges(4, []mule.Edge{
			{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9}, {U: 2, V: 3, P: 0.8},
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := mule.NewMaintainer(g, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for c, err := range m.Stream(ctx) {
			if err != nil {
				t.Fatalf("stream error %v", err)
			}
			if len(c) == 0 {
				t.Fatal("empty clique")
			}
			if n++; n == 1 {
				break
			}
		}
		// A dead context surfaces through the stream.
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		var streamErr error
		for _, err := range m.Stream(dead) {
			streamErr = err
		}
		if !errors.Is(streamErr, context.Canceled) {
			t.Fatalf("dead-context maintainer stream = %v, want wrapped context.Canceled", streamErr)
		}
		waitNoExtraGoroutines(t, base)
	})
}

// TestExtensionStreamError: a canceled extension stream ends with exactly
// one zero-value error pair, mirroring TestQueryCliquesStreamError.
func TestExtensionStreamError(t *testing.T) {
	bigG := slowDenseGraph(t, 150)
	q, err := mule.NewTrussQuery(bigG, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var streamErr error
	n := 0
	for e, err := range q.Stream(ctx) {
		if err != nil {
			streamErr = err
			if e != (mule.EdgeTruss{}) {
				t.Fatalf("error pair carries an edge: %+v", e)
			}
			continue
		}
		if n++; n == 2 {
			cancel()
		}
	}
	cancel()
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error = %v, want wrapped context.Canceled", streamErr)
	}
}

// TestExtensionLimit: WithLimit truncates every extension miner with a nil
// error and StatusStopped, exactly like Query.
func TestExtensionLimit(t *testing.T) {
	ctx := context.Background()
	bigB := slowBipartite(t)
	bigG := slowDenseGraph(t, 60)

	bq, err := mule.NewBicliqueQuery(bigB, 1e-30, mule.WithLimit(7))
	if err != nil {
		t.Fatal(err)
	}
	var seen int64
	stats, err := bq.Run(ctx, func(l, r []int, p float64) bool { seen++; return true })
	if err != nil || seen != 7 || stats.Status != mule.StatusStopped {
		t.Fatalf("biclique limit: seen=%d err=%v status=%v", seen, err, stats.Status)
	}

	tq, err := mule.NewTrussQuery(bigG, 0.5, mule.WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	tEdges, err := tq.Collect(ctx)
	if err != nil || len(tEdges) != 3 {
		t.Fatalf("truss limit: %d edges, err=%v", len(tEdges), err)
	}

	cq, err := mule.NewCoreQuery(bigG, 0.5, mule.WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := cq.Collect(ctx)
	if err != nil || len(vcs) != 3 {
		t.Fatalf("core limit: %d vertices, err=%v", len(vcs), err)
	}

	rng := rand.New(rand.NewSource(61))
	quasiG := smallRandomGraph(rng, 14)
	qq, err := mule.NewQuasiQuery(quasiG, mule.WithGamma(0.5), mule.WithLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := qq.Collect(ctx)
	if err != nil || len(sets) > 1 {
		t.Fatalf("quasi limit: %d sets, err=%v", len(sets), err)
	}
}

// TestExtensionSentinelTable pins every typed sentinel per extension entry
// point — the errors.Is contract of the whole public surface.
func TestExtensionSentinelTable(t *testing.T) {
	ctx := context.Background()
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	bg, err := mule.BipartiteFromEdges(2, 2, []mule.BipartiteEdge{{L: 0, R: 0, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := mule.NewTrussQuery(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := mule.NewCoreQuery(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		err    func() error
		target error
	}{
		// Biclique query construction.
		{"biclique nil graph", func() error { _, err := mule.NewBicliqueQuery(nil, 0.5); return err }, mule.ErrNilGraph},
		{"biclique alpha 0", func() error { _, err := mule.NewBicliqueQuery(bg, 0); return err }, mule.ErrAlphaRange},
		{"biclique alpha >1", func() error { _, err := mule.NewBicliqueQuery(bg, 1.5); return err }, mule.ErrAlphaRange},
		{"biclique negative sides", func() error { _, err := mule.NewBicliqueQuery(bg, 0.5, mule.WithSides(-1, 0)); return err }, mule.ErrConfig},
		{"biclique negative limit", func() error { _, err := mule.NewBicliqueQuery(bg, 0.5, mule.WithLimit(-1)); return err }, mule.ErrConfig},
		{"biclique negative budget", func() error { _, err := mule.NewBicliqueQuery(bg, 0.5, mule.WithBudget(-1)); return err }, mule.ErrConfig},
		// Quasi query construction.
		{"quasi nil graph", func() error { _, err := mule.NewQuasiQuery(nil, mule.WithGamma(0.5)); return err }, mule.ErrNilGraph},
		{"quasi missing gamma", func() error { _, err := mule.NewQuasiQuery(g); return err }, mule.ErrGammaRange},
		{"quasi gamma low", func() error { _, err := mule.NewQuasiQuery(g, mule.WithGamma(0.4)); return err }, mule.ErrGammaRange},
		{"quasi gamma high", func() error { _, err := mule.NewQuasiQuery(g, mule.WithGamma(1.1)); return err }, mule.ErrGammaRange},
		{"quasi min size 1", func() error {
			_, err := mule.NewQuasiQuery(g, mule.WithGamma(0.5), mule.WithMinSize(1))
			return err
		}, mule.ErrConfig},
		{"quasi max below min", func() error {
			_, err := mule.NewQuasiQuery(g, mule.WithGamma(0.5), mule.WithMaxSize(2))
			return err
		}, mule.ErrConfig},
		{"quasi negative budget", func() error {
			_, err := mule.NewQuasiQuery(g, mule.WithGamma(0.5), mule.WithBudget(-1))
			return err
		}, mule.ErrConfig},
		// Truss query construction and methods.
		{"truss nil graph", func() error { _, err := mule.NewTrussQuery(nil, 0.5); return err }, mule.ErrNilGraph},
		{"truss eta 0", func() error { _, err := mule.NewTrussQuery(g, 0); return err }, mule.ErrEtaRange},
		{"truss eta >1", func() error { _, err := mule.NewTrussQuery(g, 1.5); return err }, mule.ErrEtaRange},
		{"truss k below 2", func() error { _, err := tq.Truss(ctx, 1); return err }, mule.ErrKRange},
		{"truss negative budget", func() error { _, err := mule.NewTrussQuery(g, 0.5, mule.WithBudget(-1)); return err }, mule.ErrConfig},
		// Core query construction and methods.
		{"core nil graph", func() error { _, err := mule.NewCoreQuery(nil, 0.5); return err }, mule.ErrNilGraph},
		{"core eta 0", func() error { _, err := mule.NewCoreQuery(g, 0); return err }, mule.ErrEtaRange},
		{"core eta NaN-like", func() error { _, err := mule.NewCoreQuery(g, 2); return err }, mule.ErrEtaRange},
		{"core negative k", func() error { _, err := cq.Core(ctx, -1); return err }, mule.ErrKRange},
		// Deprecated wrappers share the same validation.
		{"legacy quasi gamma", func() error {
			_, err := mule.CollectQuasiCliques(g, mule.QuasiConfig{Gamma: 0.2})
			return err
		}, mule.ErrGammaRange},
		{"legacy truss k", func() error { _, err := mule.Truss(g, 1, 0.5); return err }, mule.ErrKRange},
		{"legacy truss eta", func() error { _, err := mule.TrussDecompose(g, 0); return err }, mule.ErrEtaRange},
		{"legacy core eta", func() error { _, err := mule.CoreDecompose(g, -1); return err }, mule.ErrEtaRange},
		{"legacy core k", func() error { _, err := mule.Core(g, -2, 0.5); return err }, mule.ErrKRange},
		{"legacy bicliques sides", func() error {
			_, err := mule.EnumerateBicliquesWith(bg, 0.5, nil, mule.BicliqueConfig{MinLeft: -1})
			return err
		}, mule.ErrConfig},
		// Predicate helpers.
		{"support prob range", func() error { _, err := mule.TrussSupportProb(g, 0, 9, 1); return err }, mule.ErrVertexRange},
		{"support prob t", func() error { _, err := mule.TrussSupportProb(g, 0, 1, -1); return err }, mule.ErrConfig},
		{"world prob gamma", func() error { _, err := mule.QuasiCliqueWorldProb(g, []int{0, 1}, 0); return err }, mule.ErrGammaRange},
		{"world prob set", func() error { _, err := mule.QuasiCliqueWorldProb(g, []int{0}, 0.5); return err }, mule.ErrConfig},
		{"world prob MC samples", func() error {
			_, err := mule.QuasiCliqueWorldProbMC(g, []int{0, 1}, 0.5, 0, 1)
			return err
		}, mule.ErrConfig},
		// Option scoping: out-of-scope options are typed config errors.
		{"clique query with gamma", func() error { _, err := mule.NewQuery(g, 0.5, mule.WithGamma(0.5)); return err }, mule.ErrConfig},
		{"clique query with sides", func() error { _, err := mule.NewQuery(g, 0.5, mule.WithSides(1, 1)); return err }, mule.ErrConfig},
		{"truss query with workers", func() error { _, err := mule.NewTrussQuery(g, 0.5, mule.WithWorkers(2)); return err }, mule.ErrConfig},
		{"core query with ordering", func() error {
			_, err := mule.NewCoreQuery(g, 0.5, mule.WithOrdering(mule.OrderDegree))
			return err
		}, mule.ErrConfig},
		{"biclique query with minsize", func() error {
			_, err := mule.NewBicliqueQuery(bg, 0.5, mule.WithMinSize(3))
			return err
		}, mule.ErrConfig},
		{"quasi query with intersect", func() error {
			_, err := mule.NewQuasiQuery(g, mule.WithGamma(0.5), mule.WithIntersect(mule.IntersectSorted))
			return err
		}, mule.ErrConfig},
		{"zero option", func() error { _, err := mule.NewQuery(g, 0.5, mule.Option{}); return err }, mule.ErrConfig},
	}
	for _, tc := range cases {
		if err := tc.err(); !errors.Is(err, tc.target) {
			t.Errorf("%s: err = %v, want wrapped %v", tc.name, err, tc.target)
		}
	}
}

// TestQuasiEmittedCountsStoppingSet: a set delivered to a visitor that
// stops the run still counts in Stats.Emitted — the convention of every
// other miner.
func TestQuasiEmittedCountsStoppingSet(t *testing.T) {
	tri, err := mule.FromEdges(3, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := mule.NewQuasiQuery(tri, mule.WithGamma(0.5))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := q.Run(context.Background(), func([]int) bool { return false })
	if !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("err = %v, want wrapped ErrStopped", err)
	}
	if stats.Emitted != 1 {
		t.Fatalf("Emitted = %d, want 1 (the set that reached the visitor)", stats.Emitted)
	}
}

// TestMaintainerStatusFailed: a validation-rejected update reports
// StatusFailed, never StatusComplete, in both the single-op and Apply
// paths.
func TestMaintainerStatusFailed(t *testing.T) {
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mule.NewMaintainer(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, stats, err := m.SetEdgeContext(ctx, 0, 0, 0.5)
	if err == nil || stats.Status != mule.StatusFailed {
		t.Fatalf("self-loop SetEdgeContext: status %v err %v, want failed", stats.Status, err)
	}
	_, stats, err = m.RemoveEdgeContext(ctx, 1, 2)
	if err == nil || stats.Status != mule.StatusFailed {
		t.Fatalf("missing-edge RemoveEdgeContext: status %v err %v, want failed", stats.Status, err)
	}
	// Apply propagates the failing op's status, alongside the error and the
	// committed-prefix diff.
	diff, stats, err := m.Apply(ctx, []mule.EdgeUpdate{
		{U: 0, V: 2, P: 0.9},
		{U: 1, V: 2, Remove: true}, // does not exist
	})
	if err == nil || stats.Status != mule.StatusFailed {
		t.Fatalf("Apply with invalid update: status %v err %v, want failed", stats.Status, err)
	}
	if stats.Updates != 1 || len(diff.Added) == 0 {
		t.Fatalf("Apply committed prefix lost: stats %+v diff %+v", stats, diff)
	}
}

// TestExtensionRunErrStopped: a visitor returning false surfaces ErrStopped
// from every extension Run, while the deprecated wrappers swallow it.
func TestExtensionRunErrStopped(t *testing.T) {
	ctx := context.Background()
	g := slowDenseGraph(t, 40)
	bg := slowBipartite(t)

	bq, err := mule.NewBicliqueQuery(bg, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bq.Run(ctx, func(l, r []int, p float64) bool { return false }); !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("biclique Run = %v, want wrapped ErrStopped", err)
	}
	if _, err := mule.EnumerateBicliques(bg, 1e-30, func(l, r []int, p float64) bool { return false }); err != nil {
		t.Fatalf("legacy biclique wrapper surfaced the stop: %v", err)
	}

	tq, err := mule.NewTrussQuery(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tq.Run(ctx, func(mule.EdgeTruss) bool { return false }); !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("truss Run = %v, want wrapped ErrStopped", err)
	}

	cq, err := mule.NewCoreQuery(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Run(ctx, func(mule.VertexCore) bool { return false }); !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("core Run = %v, want wrapped ErrStopped", err)
	}

	tri, err := mule.FromEdges(3, []mule.Edge{
		{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	qq, err := mule.NewQuasiQuery(tri, mule.WithGamma(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qq.Run(ctx, func([]int) bool { return false }); !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("quasi Run = %v, want wrapped ErrStopped", err)
	}
}

// --- Oracle equivalence for the two PR-10 miners ---

// within reports |a-b| ≤ tol scaled by magnitude — the engines and the
// baseline oracles compute the same reals through different float
// evaluation orders, so comparisons are tolerant, not exact.
func within(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// TestDensestQueryMatchesOracle pins the densest-subgraph miner against
// internal/baseline on 50 small random graphs: every reported candidate's
// expected density and exact tail probability are recomputed independently
// (exhaustive subset maximization, divide-and-conquer Poisson-binomial),
// the family's champion density 2-approximates the true optimum, and the
// report order is the documented canonical sort.
func TestDensestQueryMatchesOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 50; i++ {
		g := smallRandomGraph(rng, 6+rng.Intn(7))
		q, err := mule.NewDensestQuery(g)
		if err != nil {
			t.Fatal(err)
		}
		var cands []mule.DenseSubgraph
		stats, err := q.Run(ctx, func(c mule.DenseSubgraph) bool {
			cands = append(cands, c)
			return true
		})
		if err != nil || stats.Status != mule.StatusComplete {
			t.Fatalf("graph %d: Run = (%+v, %v)", i, stats, err)
		}
		if len(cands) == 0 {
			t.Fatalf("graph %d: empty candidate family", i)
		}

		// The champion density d̂ is the family max; the scoring threshold
		// k = ⌈d̂·|S|⌉ below reuses the engine's reported floats so both
		// sides round the same way.
		dhat := 0.0
		for _, c := range cands {
			if c.ExpectedDensity > dhat {
				dhat = c.ExpectedDensity
			}
		}
		if dhat != stats.BestDensity {
			t.Fatalf("graph %d: family max density %g, stats.BestDensity %g", i, dhat, stats.BestDensity)
		}
		optSet, opt := baseline.DensestExact(g)
		if dhat < opt/2*(1-1e-9) {
			t.Fatalf("graph %d: champion density %g below half the optimum %g (set %v)", i, dhat, opt, optSet)
		}
		if dhat > opt*(1+1e-9) {
			t.Fatalf("graph %d: champion density %g exceeds the optimum %g", i, dhat, opt)
		}

		for j, c := range cands {
			if !sort.IntsAreSorted(c.Vertices) || len(c.Vertices) == 0 {
				t.Fatalf("graph %d cand %d: bad vertex set %v", i, j, c.Vertices)
			}
			if d := baseline.ExpectedDensity(g, c.Vertices); !within(c.ExpectedDensity, d, 1e-9) {
				t.Fatalf("graph %d cand %d: density %g, oracle %g", i, j, c.ExpectedDensity, d)
			}
			k := int(math.Ceil(dhat*float64(len(c.Vertices)) - 1e-9))
			if k < 0 {
				k = 0
			}
			p := baseline.TailAtLeast(baseline.InternalEdgeProbs(g, c.Vertices), k)
			if !within(c.Probability, p, 1e-9) {
				t.Fatalf("graph %d cand %d (%v, k=%d): probability %g, oracle %g", i, j, c.Vertices, k, c.Probability, p)
			}
		}

		// Canonical report order: descending probability, then descending
		// density, then smaller size.
		for j := 1; j < len(cands); j++ {
			a, b := cands[j-1], cands[j]
			if a.Probability < b.Probability ||
				(a.Probability == b.Probability && a.ExpectedDensity < b.ExpectedDensity) {
				t.Fatalf("graph %d: candidates %d,%d out of canonical order", i, j-1, j)
			}
		}
	}
}

// TestClusterQueryMatchesOracle pins the clustering miner against the
// Floyd–Warshall reliability oracle on 50 small random graphs: the output
// is a true k-partition, every member sits with a center achieving its
// maximum most-reliable-path connection probability, and each cluster's
// probability is the mean of its members' connections.
func TestClusterQueryMatchesOracle(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 50; i++ {
		n := 8 + rng.Intn(9)
		g := smallRandomGraph(rng, n)
		k := 1 + rng.Intn(4)
		q, err := mule.NewClusterQuery(g, mule.WithCenters(k))
		if err != nil {
			t.Fatal(err)
		}
		clusters, err := q.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) != k {
			t.Fatalf("graph %d: %d clusters, want k=%d", i, len(clusters), k)
		}
		r := baseline.Reliability(g)

		centers := make(map[int]bool, k)
		seen := make([]bool, n)
		for ci, c := range clusters {
			if ci > 0 && clusters[ci-1].Center >= c.Center {
				t.Fatalf("graph %d: centers not ascending", i)
			}
			if centers[c.Center] {
				t.Fatalf("graph %d: duplicate center %d", i, c.Center)
			}
			centers[c.Center] = true
			if !sort.IntsAreSorted(c.Members) {
				t.Fatalf("graph %d cluster %d: members not ascending: %v", i, ci, c.Members)
			}
			inCluster := false
			for _, u := range c.Members {
				if seen[u] {
					t.Fatalf("graph %d: vertex %d in two clusters", i, u)
				}
				seen[u] = true
				inCluster = inCluster || u == c.Center
			}
			if !inCluster {
				t.Fatalf("graph %d cluster %d: center %d not among members %v", i, ci, c.Center, c.Members)
			}
		}
		for u := 0; u < n; u++ {
			if !seen[u] {
				t.Fatalf("graph %d: vertex %d unassigned", i, u)
			}
		}

		for ci, c := range clusters {
			sum := 0.0
			for _, u := range c.Members {
				conn := r[c.Center][u]
				sum += conn
				// The owner must achieve u's best connection over the
				// chosen centers (ties and unreachable vertices may land
				// anywhere the engine's deterministic order put them).
				best := 0.0
				for _, d := range clusters {
					if p := r[d.Center][u]; p > best {
						best = p
					}
				}
				if best > 0 && !within(conn, best, 1e-9) {
					t.Fatalf("graph %d cluster %d: member %d connects at %g, best center offers %g",
						i, ci, u, conn, best)
				}
			}
			if mean := sum / float64(len(c.Members)); !within(c.Probability, mean, 1e-9) {
				t.Fatalf("graph %d cluster %d: probability %g, oracle mean %g", i, ci, c.Probability, mean)
			}
		}

		// Count and Stream agree with Collect.
		if cnt, err := q.Count(ctx); err != nil || cnt != int64(k) {
			t.Fatalf("graph %d: Count = (%d, %v), want %d", i, cnt, err, k)
		}
		var streamed []mule.ClusterSet
		for c, err := range q.Stream(ctx) {
			if err != nil {
				t.Fatalf("graph %d: stream error %v", i, err)
			}
			streamed = append(streamed, c)
		}
		if !reflect.DeepEqual(streamed, clusters) {
			t.Fatalf("graph %d: Stream disagrees with Collect", i)
		}
	}
}
