package mule_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/gen"
)

// slowGraph returns a dense graph whose full enumeration takes hundreds of
// milliseconds — room to cancel mid-run on every engine.
func slowGraph(t testing.TB) *mule.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	edges := gen.GNP(110, 0.6, rng)
	g, err := gen.BuildUncertain(110, edges, gen.ConstProb(0.95), rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// randomGraph returns a small random uncertain graph for equivalence tests.
func randomGraph(rng *rand.Rand) *mule.Graph {
	n := 15 + rng.Intn(25)
	edges := gen.GNP(n, 0.2+0.4*rng.Float64(), rng)
	g, err := gen.BuildUncertain(n, edges, gen.UniformRangeProb(0.3, 1.0), rng)
	if err != nil {
		panic(err)
	}
	return g
}

// engineOpts names the three engines of the cancellation matrix.
var engineOpts = []struct {
	name string
	opts []mule.Option
}{
	{"serial", nil},
	{"worksteal", []mule.Option{mule.WithWorkers(4), mule.WithParallelMode(mule.ParallelWorkStealing)}},
	{"toplevel", []mule.Option{mule.WithWorkers(4), mule.WithParallelMode(mule.ParallelTopLevel)}},
}

func collectStream(t *testing.T, q *mule.Query, ctx context.Context) []mule.Clique {
	t.Helper()
	var out []mule.Clique
	for c, err := range q.Cliques(ctx) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Vertices, out[j].Vertices
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestQueryCliquesMatchesCollect checks the acceptance property: on 50
// random graphs, ranging over q.Cliques yields exactly the clique set of
// Collect — for the serial stream and the channel-bridged parallel stream.
func TestQueryCliquesMatchesCollect(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		g := randomGraph(rng)
		alpha := []float64{0.05, 0.2, 0.5}[i%3]
		want, err := mule.Collect(g, alpha) // legacy wrapper, canonical order
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range engineOpts {
			q, err := mule.NewQuery(g, alpha, eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := collectStream(t, q, ctx)
			if len(got) != len(want) {
				t.Fatalf("graph %d %s: stream yielded %d cliques, Collect %d", i, eng.name, len(got), len(want))
			}
			for j := range got {
				if !reflect.DeepEqual(got[j].Vertices, want[j]) {
					t.Fatalf("graph %d %s: clique %d = %v, want %v", i, eng.name, j, got[j].Vertices, want[j])
				}
				// The incremental kernel multiplies edge probabilities in a
				// different order than the reference predicate; allow float
				// rounding.
				if p := g.CliqueProb(got[j].Vertices); abs(p-got[j].Prob) > 1e-12*p {
					t.Fatalf("graph %d %s: clique %v prob %v, want %v", i, eng.name, got[j].Vertices, got[j].Prob, p)
				}
			}
			// Query.Collect agrees too, probabilities included.
			qc, err := q.Collect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(qc, got) {
				t.Fatalf("graph %d %s: Query.Collect disagrees with the stream", i, eng.name)
			}
		}
	}
}

// waitNoExtraGoroutines fails the test if the goroutine count does not
// return to the baseline — the leak check of the cancellation matrix.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startSharedExecutor runs one tiny work-stealing query, which starts the
// process-wide executor's long-lived workers. The leak checks take their
// goroutine baselines afterwards, so those workers are not counted against
// whichever cell happens to run first.
func startSharedExecutor(t *testing.T) {
	t.Helper()
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	q, err := mule.NewQuery(g, 0.5, mule.WithWorkers(2), mule.WithParallelMode(mule.ParallelWorkStealing))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueryCancellationMatrix runs every engine × {cancel before start,
// cancel mid-run, cancel after completion} and checks the contract: an
// already-dead context fails fast with zero work; a mid-run cancel stops
// the engine promptly with a wrapped context.Canceled, a truncated clique
// set, and no leaked goroutines; a cancel after the run changes nothing.
func TestQueryCancellationMatrix(t *testing.T) {
	g := slowGraph(t)
	const alpha = 1e-30
	full, err := mule.Count(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if full < 1000 {
		t.Fatalf("slow graph too easy: %d cliques", full)
	}
	startSharedExecutor(t)
	for _, eng := range engineOpts {
		eng := eng
		t.Run(eng.name+"/before", func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, err := mule.NewQuery(g, alpha, eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			stats, err := q.Run(ctx, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if stats.Status != mule.StatusCanceled {
				t.Fatalf("status = %v, want canceled", stats.Status)
			}
			if stats.Calls != 0 || stats.Emitted != 0 {
				t.Fatalf("pre-canceled run did work: %+v", stats)
			}
			waitNoExtraGoroutines(t, base)
		})
		t.Run(eng.name+"/mid", func(t *testing.T) {
			base := runtime.NumGoroutine()
			q, err := mule.NewQuery(g, alpha, eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var emitted int64
			stats, err := q.Run(ctx, func(c []int, p float64) bool {
				emitted++
				if emitted == 1 {
					cancel()
				}
				return true
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want wrapped context.Canceled", err)
			}
			if stats.Status != mule.StatusCanceled {
				t.Fatalf("status = %v, want canceled", stats.Status)
			}
			if stats.Emitted >= full {
				t.Fatalf("cancel did not truncate the run: %d of %d cliques", stats.Emitted, full)
			}
			waitNoExtraGoroutines(t, base)
		})
		t.Run(eng.name+"/after", func(t *testing.T) {
			base := runtime.NumGoroutine()
			// A small graph that completes: cancel after Run returns.
			small, err := mule.FromEdges(4, []mule.Edge{
				{U: 0, V: 1, P: 0.9}, {U: 1, V: 2, P: 0.9}, {U: 0, V: 2, P: 0.9},
			})
			if err != nil {
				t.Fatal(err)
			}
			q, err := mule.NewQuery(small, 0.5, eng.opts...)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			stats, err := q.Run(ctx, nil)
			cancel()
			if err != nil {
				t.Fatalf("completed run returned %v", err)
			}
			if stats.Status != mule.StatusComplete {
				t.Fatalf("status = %v, want complete", stats.Status)
			}
			waitNoExtraGoroutines(t, base)
		})
	}
}

// TestQueryDeadline bounds a heavy run with a context deadline; the run
// must abort with a wrapped context.DeadlineExceeded and StatusDeadline.
func TestQueryDeadline(t *testing.T) {
	g := slowGraph(t)
	for _, eng := range engineOpts {
		q, err := mule.NewQuery(g, 1e-30, eng.opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		stats, err := q.Run(ctx, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want wrapped context.DeadlineExceeded", eng.name, err)
		}
		if stats.Status != mule.StatusDeadline {
			t.Fatalf("%s: status = %v, want deadline", eng.name, stats.Status)
		}
	}
}

// TestQueryBudget caps a heavy run by search nodes.
func TestQueryBudget(t *testing.T) {
	g := slowGraph(t)
	for _, eng := range engineOpts {
		opts := append([]mule.Option{mule.WithBudget(5000)}, eng.opts...)
		q, err := mule.NewQuery(g, 1e-30, opts...)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := q.Run(context.Background(), nil)
		if !errors.Is(err, mule.ErrBudget) {
			t.Fatalf("%s: err = %v, want wrapped ErrBudget", eng.name, err)
		}
		if stats.Status != mule.StatusBudget {
			t.Fatalf("%s: status = %v, want budget", eng.name, stats.Status)
		}
		// The budget is charged in per-worker interval batches; the
		// overshoot is bounded by workers × interval.
		if stats.Calls > 5000+5*2048 {
			t.Fatalf("%s: budget 5000 but %d calls", eng.name, stats.Calls)
		}
	}
}

// TestQueryLimit stops after n cliques with a nil error.
func TestQueryLimit(t *testing.T) {
	g := slowGraph(t)
	for _, eng := range engineOpts {
		opts := append([]mule.Option{mule.WithLimit(10)}, eng.opts...)
		q, err := mule.NewQuery(g, 1e-30, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var seen int64
		stats, err := q.Run(context.Background(), func(c []int, p float64) bool {
			seen++
			return true
		})
		if err != nil {
			t.Fatalf("%s: limit run returned %v", eng.name, err)
		}
		if seen != 10 || stats.Emitted != 10 {
			t.Fatalf("%s: limit 10 delivered %d cliques (stats %d)", eng.name, seen, stats.Emitted)
		}
		if stats.Status != mule.StatusStopped {
			t.Fatalf("%s: status = %v, want stopped", eng.name, stats.Status)
		}
	}
}

// TestQueryRunErrStopped: a visitor returning false surfaces ErrStopped
// from Query.Run, while the deprecated Enumerate wrapper still reports nil.
func TestQueryRunErrStopped(t *testing.T) {
	g := slowGraph(t)
	q, err := mule.NewQuery(g, 1e-30)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := q.Run(context.Background(), func(c []int, p float64) bool { return false })
	if !errors.Is(err, mule.ErrStopped) {
		t.Fatalf("Run err = %v, want wrapped ErrStopped", err)
	}
	if stats.Emitted != 1 || stats.Status != mule.StatusStopped {
		t.Fatalf("stopped run stats: %+v", stats)
	}
	if _, err := mule.Enumerate(g, 1e-30, func(c []int, p float64) bool { return false }); err != nil {
		t.Fatalf("legacy Enumerate surfaced the stop: %v", err)
	}
}

// TestQueryCliquesBreak: breaking out of the range loop stops the engines
// and leaks nothing, on the serial and the channel-bridged parallel path.
func TestQueryCliquesBreak(t *testing.T) {
	g := slowGraph(t)
	for _, eng := range engineOpts {
		base := runtime.NumGoroutine()
		q, err := mule.NewQuery(g, 1e-30, eng.opts...)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for c, err := range q.Cliques(context.Background()) {
			if err != nil {
				t.Fatalf("%s: stream error %v", eng.name, err)
			}
			if len(c.Vertices) == 0 {
				t.Fatalf("%s: empty clique", eng.name)
			}
			if n++; n == 5 {
				break
			}
		}
		if n != 5 {
			t.Fatalf("%s: loop saw %d cliques", eng.name, n)
		}
		waitNoExtraGoroutines(t, base)
		// The query is reusable after an abandoned stream.
		if _, err := q.TopK(context.Background(), 3, mule.ByProb); err != nil {
			t.Fatalf("%s: reuse after break: %v", eng.name, err)
		}
	}
}

// TestQueryCliquesStreamError: a canceled stream ends with one (Clique{},
// err) pair.
func TestQueryCliquesStreamError(t *testing.T) {
	g := slowGraph(t)
	for _, eng := range engineOpts {
		q, err := mule.NewQuery(g, 1e-30, eng.opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var streamErr error
		n := 0
		for c, err := range q.Cliques(ctx) {
			if err != nil {
				streamErr = err
				if len(c.Vertices) != 0 {
					t.Fatalf("%s: error pair carries a clique: %v", eng.name, c)
				}
				continue
			}
			if n++; n == 3 {
				cancel()
			}
		}
		cancel()
		if !errors.Is(streamErr, context.Canceled) {
			t.Fatalf("%s: stream error = %v, want wrapped context.Canceled", eng.name, streamErr)
		}
	}
}

// TestQueryTopK agrees with the deprecated top-level helpers.
func TestQueryTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng)
	q, err := mule.NewQuery(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 3, 10} {
		got, err := q.TopK(ctx, k, mule.ByProb)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mule.TopKByProb(g, 0.1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%d, ByProb) = %v, want %v", k, got, want)
		}
		gotS, err := q.TopK(ctx, k, mule.BySize)
		if err != nil {
			t.Fatal(err)
		}
		wantS, err := mule.TopKBySize(g, 0.1, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("TopK(%d, BySize) = %v, want %v", k, gotS, wantS)
		}
	}
	if _, err := q.TopK(ctx, 0, mule.ByProb); err == nil {
		t.Fatal("TopK(0) should fail")
	}
}

// TestQueryMaximum agrees with the deprecated MaximumClique and honors ctx.
func TestQueryMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng)
	q, err := mule.NewQuery(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gotC, gotP, err := q.Maximum(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantP, err := mule.MaximumClique(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC, wantC) || gotP != wantP {
		t.Fatalf("Maximum = (%v, %v), want (%v, %v)", gotC, gotP, wantC, wantP)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := q.Maximum(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Maximum under dead ctx = %v, want wrapped context.Canceled", err)
	}
}

// TestNewQueryValidation: construction fails eagerly with typed sentinels.
func TestNewQueryValidation(t *testing.T) {
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		g      *mule.Graph
		alpha  float64
		opts   []mule.Option
		target error
	}{
		{"nil graph", nil, 0.5, nil, mule.ErrNilGraph},
		{"alpha zero", g, 0, nil, mule.ErrAlphaRange},
		{"alpha big", g, 1.5, nil, mule.ErrAlphaRange},
		{"negative workers", g, 0.5, []mule.Option{mule.WithWorkers(-1)}, mule.ErrConfig},
		{"negative minsize", g, 0.5, []mule.Option{mule.WithMinSize(-2)}, mule.ErrConfig},
		{"negative limit", g, 0.5, []mule.Option{mule.WithLimit(-1)}, mule.ErrConfig},
		{"negative budget", g, 0.5, []mule.Option{mule.WithBudget(-1)}, mule.ErrConfig},
		{"negative granularity", g, 0.5, []mule.Option{mule.WithStealGranularity(-1)}, mule.ErrConfig},
		{"bad ordering", g, 0.5, []mule.Option{mule.WithOrdering(mule.Ordering(99))}, mule.ErrConfig},
		{"bad engine", g, 0.5, []mule.Option{mule.WithParallelMode(mule.ParallelMode(9))}, mule.ErrConfig},
		{"bad intersect", g, 0.5, []mule.Option{mule.WithIntersect(mule.IntersectMode(9))}, mule.ErrConfig},
	}
	for _, tc := range cases {
		_, err := mule.NewQuery(tc.g, tc.alpha, tc.opts...)
		if !errors.Is(err, tc.target) {
			t.Errorf("%s: err = %v, want wrapped %v", tc.name, err, tc.target)
		}
	}
	if _, err := mule.NewQuery(g, 0.5, mule.WithWorkers(2), mule.WithMinSize(3), mule.WithSeed(1)); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// TestLegacyWrappersShareQueryValidation pins that the deprecated flat
// functions funnel through the same constructor as NewQuery: every Config
// a NewQuery would reject is rejected by the wrappers with the same
// sentinel, so no entry point can run an invalid Query.
func TestLegacyWrappersShareQueryValidation(t *testing.T) {
	g, err := mule.FromEdges(3, []mule.Edge{{U: 0, V: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	bad := []mule.Config{
		{MinSize: -1},
		{Workers: -2},
		{Budget: -5},
		{StealGranularity: -1},
		{Parallel: mule.ParallelMode(9)},
		{Ordering: mule.Ordering(99)},
		{Intersect: mule.IntersectMode(9)},
	}
	for i, cfg := range bad {
		if _, err := mule.EnumerateWith(g, 0.5, nil, cfg); !errors.Is(err, mule.ErrConfig) {
			t.Errorf("bad config %d: EnumerateWith err = %v, want wrapped ErrConfig", i, err)
		}
	}
	if _, err := mule.Enumerate(nil, 0.5, nil); !errors.Is(err, mule.ErrNilGraph) {
		t.Errorf("Enumerate(nil): err = %v, want wrapped ErrNilGraph", err)
	}
	if _, err := mule.Count(g, 0); !errors.Is(err, mule.ErrAlphaRange) {
		t.Errorf("Count(α=0): err = %v, want wrapped ErrAlphaRange", err)
	}
	if _, err := mule.Collect(g, 1.01); !errors.Is(err, mule.ErrAlphaRange) {
		t.Errorf("Collect(α>1): err = %v, want wrapped ErrAlphaRange", err)
	}
	if _, err := mule.EnumerateLarge(g, 0.5, -3, nil); !errors.Is(err, mule.ErrConfig) {
		t.Errorf("EnumerateLarge(minSize<0): err = %v, want wrapped ErrConfig", err)
	}
}

// TestQueryOptionEquivalence: every option reproduces its Config-era
// semantics — same clique sets as the deprecated EnumerateWith.
func TestQueryOptionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		g := randomGraph(rng)
		cfgs := []struct {
			opts []mule.Option
			cfg  mule.Config
		}{
			{[]mule.Option{mule.WithMinSize(3)}, mule.Config{MinSize: 3}},
			{[]mule.Option{mule.WithOrdering(mule.OrderDegeneracy)}, mule.Config{Ordering: mule.OrderDegeneracy}},
			{[]mule.Option{mule.WithOrdering(mule.OrderRandom), mule.WithSeed(42)}, mule.Config{Ordering: mule.OrderRandom, Seed: 42}},
			{[]mule.Option{mule.WithWorkers(3), mule.WithStealGranularity(2)}, mule.Config{Workers: 3, StealGranularity: 2}},
			{[]mule.Option{mule.WithIntersect(mule.IntersectBitset)}, mule.Config{Intersect: mule.IntersectBitset}},
			{[]mule.Option{mule.WithIntersect(mule.IntersectSorted)}, mule.Config{Intersect: mule.IntersectSorted}},
		}
		for ci, tc := range cfgs {
			q, err := mule.NewQuery(g, 0.2, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Collect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]int
			_, err = mule.EnumerateWith(g, 0.2, func(c []int, _ float64) bool {
				want = append(want, append([]int(nil), c...))
				return true
			}, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(want, func(a, b int) bool {
				x, y := want[a], want[b]
				for k := 0; k < len(x) && k < len(y); k++ {
					if x[k] != y[k] {
						return x[k] < y[k]
					}
				}
				return len(x) < len(y)
			})
			if len(got) != len(want) {
				t.Fatalf("graph %d cfg %d: %d cliques vs %d", i, ci, len(got), len(want))
			}
			for j := range got {
				if !reflect.DeepEqual(got[j].Vertices, want[j]) {
					t.Fatalf("graph %d cfg %d clique %d: %v vs %v", i, ci, j, got[j].Vertices, want[j])
				}
			}
		}
	}
}

// TestQueryCountAndStats: Count matches Collect length; Status is recorded.
func TestQueryCountAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng)
	q, err := mule.NewQuery(g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n, err := q.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := q.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(cs)) != n {
		t.Fatalf("Count = %d, Collect = %d", n, len(cs))
	}
	stats, err := q.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Status != mule.StatusComplete || stats.Emitted != n {
		t.Fatalf("Run stats %+v, want complete with %d cliques", stats, n)
	}
}

// TestQueryTopKIgnoresLimit: a WithLimit bound must not truncate the family
// TopK ranks over — the best of a prefix is not the best of the family.
func TestQueryTopKIgnoresLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng)
	ctx := context.Background()
	full, err := mule.NewQuery(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.TopK(ctx, 5, mule.ByProb)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := mule.NewQuery(g, 0.1, mule.WithLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := limited.TopK(ctx, 5, mule.ByProb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK under WithLimit(1) = %v, want the full-family answer %v", got, want)
	}
	// The limit still applies to the streaming methods of the same query.
	n, err := limited.Count(ctx)
	if err != nil || n != 1 {
		t.Fatalf("Count under WithLimit(1) = (%d, %v), want (1, nil)", n, err)
	}
}

// TestQueryMaximumHonorsBudget: WithBudget caps the branch-and-bound search
// too.
func TestQueryMaximumHonorsBudget(t *testing.T) {
	g := slowGraph(t)
	q, err := mule.NewQuery(g, 1e-30, mule.WithBudget(500))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Maximum(context.Background()); !errors.Is(err, mule.ErrBudget) {
		t.Fatalf("Maximum under budget returned %v, want wrapped ErrBudget", err)
	}
}

// TestExtensionSentinels: the biclique and maintainer surfaces classify
// invalid input with the same typed sentinels as the query surface.
func TestExtensionSentinels(t *testing.T) {
	if _, err := mule.EnumerateBicliques(nil, 0.5, nil); !errors.Is(err, mule.ErrNilGraph) {
		t.Fatalf("nil bipartite: %v", err)
	}
	bb := mule.NewBipartiteBuilder(2, 2)
	if err := bb.AddEdge(5, 0, 0.5); !errors.Is(err, mule.ErrVertexRange) {
		t.Fatalf("bipartite vertex range: %v", err)
	}
	if err := bb.AddEdge(0, 0, 7); !errors.Is(err, mule.ErrProbRange) {
		t.Fatalf("bipartite prob range: %v", err)
	}
	g := bb.Build()
	if _, err := mule.EnumerateBicliques(g, 0, nil); !errors.Is(err, mule.ErrAlphaRange) {
		t.Fatalf("bipartite alpha: %v", err)
	}
	if _, err := mule.NewMaintainer(nil, 0.5); !errors.Is(err, mule.ErrNilGraph) {
		t.Fatalf("maintainer nil graph: %v", err)
	}
	small, err := mule.FromEdges(2, []mule.Edge{{U: 0, V: 1, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mule.NewMaintainer(small, 9); !errors.Is(err, mule.ErrAlphaRange) {
		t.Fatalf("maintainer alpha: %v", err)
	}
	m, err := mule.NewMaintainer(small, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetEdge(0, 0, 0.5); !errors.Is(err, mule.ErrSelfLoop) {
		t.Fatalf("maintainer self-loop: %v", err)
	}
	if _, err := m.SetEdge(0, 5, 0.5); !errors.Is(err, mule.ErrVertexRange) {
		t.Fatalf("maintainer vertex range: %v", err)
	}
	if _, err := m.SetEdge(0, 1, 2); !errors.Is(err, mule.ErrProbRange) {
		t.Fatalf("maintainer prob range: %v", err)
	}
}
