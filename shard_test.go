package mule_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	mule "github.com/uncertain-graphs/mule"
)

// multiComponentGraph builds a graph of several random connected components
// whose vertex IDs are scattered across the ID space, so the sharded path's
// relabeling and remapping is exercised non-trivially.
func multiComponentGraph(t testing.TB, rng *rand.Rand) *mule.Graph {
	t.Helper()
	parts := 2 + rng.Intn(5)
	sizes := make([]int, parts)
	n := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(9)
		n += sizes[i]
	}
	perm := rng.Perm(n)
	b := mule.NewBuilder(n)
	at := 0
	for _, sz := range sizes {
		ids := perm[at : at+sz]
		at += sz
		for j := 1; j < sz; j++ {
			k := rng.Intn(j)
			if err := b.AddEdge(ids[j], ids[k], 0.3+0.7*rng.Float64()); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
		for extra := rng.Intn(2 * sz); extra > 0; extra-- {
			j, k := rng.Intn(sz), rng.Intn(sz)
			if j != k {
				_ = b.UpsertEdge(ids[j], ids[k], 0.3+0.7*rng.Float64())
			}
		}
	}
	return b.Build()
}

// multiComponentBipartite builds a bipartite graph with several components
// (including, often, isolated vertices on either side).
func multiComponentBipartite(t testing.TB, rng *rand.Rand) *mule.Bipartite {
	t.Helper()
	nL, nR := 2+rng.Intn(9), 2+rng.Intn(9)
	b := mule.NewBipartiteBuilder(nL, nR)
	for l := 0; l < nL; l++ {
		for r := 0; r < nR; r++ {
			if rng.Float64() < 0.18 {
				_ = b.AddEdge(l, r, 0.3+0.7*rng.Float64())
			}
		}
	}
	return b.Build()
}

// shardSettings is the matrix every equivalence test runs: sequential,
// fixed concurrency, and auto.
var shardSettings = []struct {
	name string
	opt  mule.Option
}{
	{"shards=1", mule.WithShards(1)},
	{"shards=3", mule.WithShards(3)},
	{"auto", mule.WithAutoShard()},
}

// TestShardedEquivalence proves the headline contract on 50 random
// multi-component graphs: for cliques, trusses, cores, densest subgraphs,
// and clusterings, every WithShards setting collects exactly what the
// unsharded run collects; for the last two, Count agrees and every
// WithLimit(1..3) prefix equals the unsharded prefix.
func TestShardedEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 50; trial++ {
		g := multiComponentGraph(t, rng)

		base, err := mule.NewQuery(g, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		wantCliques, err := base.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		baseTruss, err := mule.NewTrussQuery(g, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		wantTruss, err := baseTruss.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantMaxTruss, err := baseTruss.MaxTruss(ctx)
		if err != nil {
			t.Fatal(err)
		}
		baseCore, err := mule.NewCoreQuery(g, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		wantCore, err := baseCore.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// The center count is derived from the trial, not drawn from rng,
		// so the graph sequence stays that of the rows above.
		centers := min(1+trial%3, g.NumVertices())
		wantDensest, err := collectDensest(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		wantCluster, err := collectCluster(ctx, g, centers)
		if err != nil {
			t.Fatal(err)
		}

		for _, s := range shardSettings {
			q, err := mule.NewQuery(g, 0.1, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := q.Collect(ctx)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.name, err)
			}
			if !reflect.DeepEqual(got, wantCliques) {
				t.Fatalf("trial %d %s: cliques %v, want %v", trial, s.name, got, wantCliques)
			}
			count, err := q.Count(ctx)
			if err != nil || count != int64(len(wantCliques)) {
				t.Fatalf("trial %d %s: Count = %d, %v; want %d", trial, s.name, count, err, len(wantCliques))
			}

			tq, err := mule.NewTrussQuery(g, 0.3, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			gotTruss, err := tq.Collect(ctx)
			if err != nil {
				t.Fatalf("trial %d %s truss: %v", trial, s.name, err)
			}
			if !reflect.DeepEqual(gotTruss, wantTruss) {
				t.Fatalf("trial %d %s: truss %v, want %v", trial, s.name, gotTruss, wantTruss)
			}
			gotMax, err := tq.MaxTruss(ctx)
			if err != nil || gotMax != wantMaxTruss {
				t.Fatalf("trial %d %s: MaxTruss = %d, %v; want %d", trial, s.name, gotMax, err, wantMaxTruss)
			}

			cq, err := mule.NewCoreQuery(g, 0.3, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			gotCore, err := cq.Collect(ctx)
			if err != nil {
				t.Fatalf("trial %d %s core: %v", trial, s.name, err)
			}
			if !reflect.DeepEqual(gotCore, wantCore) {
				t.Fatalf("trial %d %s: cores %v, want %v", trial, s.name, gotCore, wantCore)
			}

			for _, limit := range []int64{0, 1, 2, 3} {
				opts := []mule.Option{s.opt}
				want := wantDensest
				if limit > 0 {
					opts = append(opts, mule.WithLimit(limit))
					want = want[:min(int(limit), len(want))]
				}
				got, err := collectDensest(ctx, g, opts...)
				if err != nil {
					t.Fatalf("trial %d %s densest limit %d: %v", trial, s.name, limit, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s densest limit %d: %v, want %v", trial, s.name, limit, got, want)
				}
				dq, err := mule.NewDensestQuery(g, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := dq.Count(ctx); err != nil || n != int64(len(want)) {
					t.Fatalf("trial %d %s densest limit %d: Count = %d, %v; want %d", trial, s.name, limit, n, err, len(want))
				}
				if got, want := densestStatus(ctx, t, g, opts...), densestStatus(ctx, t, g, opts[1:]...); got != want {
					t.Fatalf("trial %d %s densest limit %d: status %v, want %v", trial, s.name, limit, got, want)
				}

				wantC := wantCluster
				if limit > 0 {
					wantC = wantC[:min(int(limit), len(wantC))]
				}
				gotC, err := collectCluster(ctx, g, centers, opts...)
				if err != nil {
					t.Fatalf("trial %d %s cluster limit %d: %v", trial, s.name, limit, err)
				}
				if !reflect.DeepEqual(gotC, wantC) {
					t.Fatalf("trial %d %s cluster limit %d: %v, want %v", trial, s.name, limit, gotC, wantC)
				}
				kq, err := mule.NewClusterQuery(g, append(opts, mule.WithCenters(centers))...)
				if err != nil {
					t.Fatal(err)
				}
				if n, err := kq.Count(ctx); err != nil || n != int64(len(wantC)) {
					t.Fatalf("trial %d %s cluster limit %d: Count = %d, %v; want %d", trial, s.name, limit, n, err, len(wantC))
				}
			}
		}
	}
}

// collectDensest collects a densest query's scored candidate family.
func collectDensest(ctx context.Context, g *mule.Graph, opts ...mule.Option) ([]mule.DenseSubgraph, error) {
	q, err := mule.NewDensestQuery(g, opts...)
	if err != nil {
		return nil, err
	}
	return q.Collect(ctx)
}

// densestStatus reports a densest query's terminal status.
func densestStatus(ctx context.Context, t *testing.T, g *mule.Graph, opts ...mule.Option) mule.RunStatus {
	t.Helper()
	q, err := mule.NewDensestQuery(g, opts...)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := q.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats.Status
}

// collectCluster collects a cluster query's partition around k centers.
func collectCluster(ctx context.Context, g *mule.Graph, k int, opts ...mule.Option) ([]mule.ClusterSet, error) {
	q, err := mule.NewClusterQuery(g, append(opts, mule.WithCenters(k))...)
	if err != nil {
		return nil, err
	}
	return q.Collect(ctx)
}

// TestShardedBicliqueQuasiEquivalence extends the equivalence matrix to the
// remaining two prepared-query families.
func TestShardedBicliqueQuasiEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(277))
	for trial := 0; trial < 20; trial++ {
		bg := multiComponentBipartite(t, rng)
		baseB, err := mule.NewBicliqueQuery(bg, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := baseB.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}

		g := multiComponentGraph(t, rng)
		baseQ, err := mule.NewQuasiQuery(g, mule.WithGamma(0.6))
		if err != nil {
			t.Fatal(err)
		}
		wantQ, err := baseQ.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}

		for _, s := range shardSettings {
			qb, err := mule.NewBicliqueQuery(bg, 0.05, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := qb.Collect(ctx)
			if err != nil {
				t.Fatalf("trial %d %s biclique: %v", trial, s.name, err)
			}
			if !reflect.DeepEqual(gotB, wantB) {
				t.Fatalf("trial %d %s: bicliques %v, want %v", trial, s.name, gotB, wantB)
			}

			qq, err := mule.NewQuasiQuery(g, mule.WithGamma(0.6), s.opt)
			if err != nil {
				t.Fatal(err)
			}
			gotQ, err := qq.Collect(ctx)
			if err != nil {
				t.Fatalf("trial %d %s quasi: %v", trial, s.name, err)
			}
			if !reflect.DeepEqual(gotQ, wantQ) {
				t.Fatalf("trial %d %s: quasi %v, want %v", trial, s.name, gotQ, wantQ)
			}
		}
	}
}

// shardedRunOrder collects a sharded run's delivery order.
func shardedRunOrder(t *testing.T, g *mule.Graph, opts ...mule.Option) ([]mule.Clique, mule.Stats, error) {
	t.Helper()
	q, err := mule.NewQuery(g, 0.1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var out []mule.Clique
	stats, err := q.Run(context.Background(), func(c []int, p float64) bool {
		out = append(out, mule.Clique{Vertices: append([]int(nil), c...), Prob: p})
		return true
	})
	return out, stats, err
}

// TestShardedStreamOrderDeterministic: the delivered order is component
// order and does not depend on the shard concurrency, so a WithLimit bound
// keeps the same prefix under every setting.
func TestShardedStreamOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	for trial := 0; trial < 10; trial++ {
		g := multiComponentGraph(t, rng)
		ref, stats, err := shardedRunOrder(t, g, mule.WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Status != mule.StatusComplete {
			t.Fatalf("trial %d: status %v", trial, stats.Status)
		}
		for _, s := range shardSettings[1:] {
			got, _, err := shardedRunOrder(t, g, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("trial %d %s: stream order differs from shards=1", trial, s.name)
			}
		}
		if len(ref) < 2 {
			continue
		}
		limit := 1 + rng.Intn(len(ref)-1)
		for _, s := range shardSettings {
			got, stats, err := shardedRunOrder(t, g, s.opt, mule.WithLimit(int64(limit)))
			if err != nil {
				t.Fatal(err)
			}
			if stats.Status != mule.StatusStopped || stats.Emitted != int64(limit) {
				t.Fatalf("trial %d %s: limited run status %v emitted %d, want stopped/%d",
					trial, s.name, stats.Status, stats.Emitted, limit)
			}
			if !reflect.DeepEqual(got, ref[:limit]) {
				t.Fatalf("trial %d %s: limited prefix differs", trial, s.name)
			}
		}
	}
}

// TestShardedBudget: a tiny budget aborts a sharded run with ErrBudget; a
// generous one completes with the unsharded answer. The budget is shared
// across components, not per component.
func TestShardedBudget(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(293))
	g := multiComponentGraph(t, rng)
	for _, s := range shardSettings {
		q, err := mule.NewQuery(g, 0.1, s.opt, mule.WithBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		stats, err := q.Run(ctx, nil)
		if !errors.Is(err, mule.ErrBudget) {
			t.Fatalf("%s: tiny budget err = %v, want ErrBudget", s.name, err)
		}
		if stats.Status != mule.StatusBudget {
			t.Fatalf("%s: tiny budget status %v", s.name, stats.Status)
		}

		base, err := mule.NewQuery(g, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		qBig, err := mule.NewQuery(g, 0.1, s.opt, mule.WithBudget(1<<40))
		if err != nil {
			t.Fatal(err)
		}
		got, err := qBig.Collect(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: budgeted sharded collect differs", s.name)
		}
	}
}

// TestShardedVisitorStop: a visitor stop surfaces as ErrStopped with
// StatusStopped, the delivered prefix matches the deterministic order, and
// no goroutines leak from the concurrent driver.
func TestShardedVisitorStop(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	g := multiComponentGraph(t, rng)
	ref, _, err := shardedRunOrder(t, g, mule.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < 2 {
		t.Skip("graph draw too small")
	}
	stop := len(ref) / 2
	for _, s := range shardSettings {
		base := runtime.NumGoroutine()
		q, err := mule.NewQuery(g, 0.1, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		var got []mule.Clique
		stats, err := q.Run(context.Background(), func(c []int, p float64) bool {
			got = append(got, mule.Clique{Vertices: append([]int(nil), c...), Prob: p})
			return len(got) < stop
		})
		if !errors.Is(err, mule.ErrStopped) {
			t.Fatalf("%s: err = %v, want ErrStopped", s.name, err)
		}
		if stats.Status != mule.StatusStopped || stats.Emitted != int64(stop) {
			t.Fatalf("%s: status %v emitted %d, want stopped/%d", s.name, stats.Status, stats.Emitted, stop)
		}
		if !reflect.DeepEqual(got, ref[:stop]) {
			t.Fatalf("%s: stopped prefix differs", s.name)
		}
		waitNoExtraGoroutines(t, base)
	}
}

// TestShardedCancellation: a context canceled mid-run aborts every shard
// and joins the driver's goroutines.
func TestShardedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	g := multiComponentGraph(t, rng)
	for _, s := range shardSettings {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		q, err := mule.NewQuery(g, 0.1, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		first := true
		_, err = q.Run(ctx, func(c []int, p float64) bool {
			if first {
				first = false
				cancel()
			}
			return true
		})
		cancel()
		// A run that finished its last component before noticing the cancel
		// may legitimately return nil; anything else must wrap the context.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled or nil", s.name, err)
		}
		waitNoExtraGoroutines(t, base)
	}
}

// TestShardedPanicContainment: a panicking visitor is contained to the run
// and reported as a wrapped ErrPanic with StatusPanicked, matching the
// unsharded surfaces; the driver's goroutines are joined on the way out.
// The other six kinds are checked unsharded and with WithShards(2).
func TestShardedPanicContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	g := multiComponentGraph(t, rng)
	for _, s := range shardSettings {
		base := runtime.NumGoroutine()
		q, err := mule.NewQuery(g, 0.1, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := q.Run(context.Background(), func(c []int, p float64) bool {
			panic("visitor boom")
		})
		if !errors.Is(err, mule.ErrPanic) {
			t.Fatalf("%s: err = %v, want ErrPanic", s.name, err)
		}
		if stats.Status != mule.StatusPanicked {
			t.Fatalf("%s: status %v, want StatusPanicked", s.name, stats.Status)
		}
		waitNoExtraGoroutines(t, base)
	}

	bg, err := mule.BipartiteFromEdges(3, 3, []mule.BipartiteEdge{
		{L: 0, R: 0, P: 0.9}, {L: 1, R: 1, P: 0.8}, {L: 2, R: 2, P: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	boom := func() bool { panic("visitor boom") }
	kinds := []struct {
		name string
		run  func(opts ...mule.Option) (mule.RunStatus, error)
	}{
		{"biclique", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewBicliqueQuery(bg, 0.05, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func(l, r []int, p float64) bool { return boom() })
			return stats.Status, err
		}},
		{"quasi", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewQuasiQuery(g, append(opts, mule.WithGamma(0.5), mule.WithMinSize(2))...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func([]int) bool { return boom() })
			return stats.Status, err
		}},
		{"truss", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewTrussQuery(g, 0.3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func(mule.EdgeTruss) bool { return boom() })
			return stats.Status, err
		}},
		{"core", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewCoreQuery(g, 0.3, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func(mule.VertexCore) bool { return boom() })
			return stats.Status, err
		}},
		{"densest", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewDensestQuery(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func(mule.DenseSubgraph) bool { return boom() })
			return stats.Status, err
		}},
		{"cluster", func(opts ...mule.Option) (mule.RunStatus, error) {
			q, err := mule.NewClusterQuery(g, append(opts, mule.WithCenters(2))...)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := q.Run(ctx, func(mule.ClusterSet) bool { return boom() })
			return stats.Status, err
		}},
	}
	for _, k := range kinds {
		for _, shard := range []struct {
			name string
			opts []mule.Option
		}{{"unsharded", nil}, {"shards=2", []mule.Option{mule.WithShards(2)}}} {
			base := runtime.NumGoroutine()
			status, err := k.run(shard.opts...)
			if !errors.Is(err, mule.ErrPanic) {
				t.Fatalf("%s %s: err = %v, want ErrPanic", k.name, shard.name, err)
			}
			if status != mule.StatusPanicked {
				t.Fatalf("%s %s: status %v, want StatusPanicked", k.name, shard.name, status)
			}
			waitNoExtraGoroutines(t, base)
		}
	}
}

// TestShardedProgress: the progress callback fires (0, total) first, then
// once per component in order, ending at (total, total) on a complete run.
func TestShardedProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	g := multiComponentGraph(t, rng)
	total := g.NumComponents()
	for _, s := range shardSettings {
		var calls [][2]int
		q, err := mule.NewQuery(g, 0.1, s.opt,
			mule.WithShardProgress(func(done, tot int) { calls = append(calls, [2]int{done, tot}) }))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Run(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if len(calls) != total+1 {
			t.Fatalf("%s: %d progress calls, want %d", s.name, len(calls), total+1)
		}
		for i, c := range calls {
			if c != [2]int{i, total} {
				t.Fatalf("%s: call %d = %v, want {%d, %d}", s.name, i, c, i, total)
			}
		}
	}
}

// TestShardOptionValidation: option misuse is rejected eagerly at
// construction with wrapped ErrConfig, on every query family.
func TestShardOptionValidation(t *testing.T) {
	g := mule.NewBuilder(2)
	_ = g.AddEdge(0, 1, 0.5)
	graph := g.Build()
	for _, n := range []int{0, -2} {
		if _, err := mule.NewQuery(graph, 0.5, mule.WithShards(n)); !errors.Is(err, mule.ErrConfig) {
			t.Fatalf("WithShards(%d): err = %v, want ErrConfig", n, err)
		}
	}
	if _, err := mule.NewQuery(graph, 0.5, mule.WithShardProgress(func(int, int) {})); !errors.Is(err, mule.ErrConfig) {
		t.Fatalf("lone WithShardProgress: err = %v, want ErrConfig", err)
	}
	if _, err := mule.NewTrussQuery(graph, 0.5, mule.WithShards(0)); !errors.Is(err, mule.ErrConfig) {
		t.Fatal("truss query accepted WithShards(0)")
	}
	if _, err := mule.NewCoreQuery(graph, 0.5, mule.WithShards(-1)); !errors.Is(err, mule.ErrConfig) {
		t.Fatal("core query accepted WithShards(-1)")
	}
}

// TestShardedStreamBreak: breaking a sharded range-over-func stream stops
// the run and leaks nothing.
func TestShardedStreamBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	g := multiComponentGraph(t, rng)
	for _, s := range shardSettings {
		base := runtime.NumGoroutine()
		q, err := mule.NewQuery(g, 0.1, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		seen := 0
		for _, err := range q.Cliques(context.Background()) {
			if err != nil {
				t.Fatalf("%s: stream error %v", s.name, err)
			}
			seen++
			break
		}
		if seen != 1 {
			t.Fatalf("%s: saw %d cliques after break", s.name, seen)
		}
		waitNoExtraGoroutines(t, base)
	}
}

// ExampleWithShards demonstrates component-sharded mining: the collected
// result set is identical to an unsharded run.
func ExampleWithShards() {
	b := mule.NewBuilder(6)
	_ = b.AddEdge(0, 1, 0.9)
	_ = b.AddEdge(1, 2, 0.9)
	_ = b.AddEdge(0, 2, 0.9)
	_ = b.AddEdge(3, 4, 0.8) // second component
	g := b.Build()
	q, _ := mule.NewQuery(g, 0.5, mule.WithShards(2))
	cliques, _ := q.Collect(context.Background())
	for _, c := range cliques {
		fmt.Println(c.Vertices)
	}
	// Output:
	// [0 1 2]
	// [3 4]
	// [5]
}
