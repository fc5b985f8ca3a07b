package ubiclique

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/uncertain-graphs/mule/internal/core"
)

// cohortBipartite is the benchmark's planted-cohort user-product graph:
// blocks disjoint cohorts of 6 users x 4 products at probabilities in
// [0.8, 0.99], in uniform background noise of 4 edges per user at
// [0.1, 0.8].
func cohortBipartite(nUsers, nProducts, blocks int, seed int64) *Bipartite {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(nUsers, nProducts)
	for blk := 0; blk < blocks; blk++ {
		u0, p0 := blk*(nUsers/blocks), blk*(nProducts/blocks)
		for u := u0; u < u0+6; u++ {
			for p := p0; p < p0+4; p++ {
				_ = b.UpsertEdge(u, p, 0.8+rng.Float64()*0.19)
			}
		}
	}
	for i := 0; i < 4*nUsers; i++ {
		_ = b.UpsertEdge(rng.Intn(nUsers), rng.Intn(nProducts), 0.1+rng.Float64()*0.7)
	}
	return b.Build()
}

// bicliqueRun is one run's emission stream, Stats and error text.
type bicliqueRun struct {
	stream []string
	stats  Stats
	err    string
}

type bicliqueRunner func(context.Context, *Bipartite, float64, Visitor, Config) (Stats, error)

func recordBicliques(run bicliqueRunner, g *Bipartite, alpha float64, cfg Config, stopAfter int) bicliqueRun {
	var r bicliqueRun
	stats, err := run(context.Background(), g, alpha, func(l, rt []int, p float64) bool {
		r.stream = append(r.stream, fmt.Sprintf("%v|%v|%x", l, rt, math.Float64bits(p)))
		return stopAfter <= 0 || len(r.stream) < stopAfter
	}, cfg)
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func diffBicliqueRuns(t *testing.T, label string, got, want bicliqueRun) {
	t.Helper()
	if got.stats != want.stats || got.err != want.err {
		t.Fatalf("%s: stats %+v err %q, reference %+v err %q", label, got.stats, got.err, want.stats, want.err)
	}
	if len(got.stream) != len(want.stream) {
		t.Fatalf("%s: %d emissions, reference %d", label, len(got.stream), len(want.stream))
	}
	for i := range got.stream {
		if got.stream[i] != want.stream[i] {
			t.Fatalf("%s: emission %d = %s, reference %s", label, i, got.stream[i], want.stream[i])
		}
	}
}

// diffBicliqueGraph compares a complete run, budget-aborted runs (cut at a
// half and a third of the full run's search calls) and a visitor stop
// against the reference, returning how many runs the budget cut.
func diffBicliqueGraph(t *testing.T, label string, g *Bipartite, alpha float64, cfg Config) (cut int) {
	t.Helper()
	want := recordBicliques(refEnumerateContext, g, alpha, cfg, 0)
	diffBicliqueRuns(t, label, recordBicliques(EnumerateContext, g, alpha, cfg, 0), want)
	for _, budget := range []int64{want.stats.Calls / 2, want.stats.Calls/3 + 1} {
		bcfg := cfg
		bcfg.Budget = budget
		ref := recordBicliques(refEnumerateContext, g, alpha, bcfg, 0)
		if ref.stats.Status == core.StatusBudget {
			cut++
		}
		diffBicliqueRuns(t, fmt.Sprintf("%s budget %d", label, budget), recordBicliques(EnumerateContext, g, alpha, bcfg, 0), ref)
	}
	if stop := len(want.stream) / 2; stop > 0 {
		diffBicliqueRuns(t, fmt.Sprintf("%s stop %d", label, stop),
			recordBicliques(EnumerateContext, g, alpha, cfg, stop),
			recordBicliques(refEnumerateContext, g, alpha, cfg, stop))
	}
	return cut
}

// TestSearchMatchesReference pins the buffer-reusing search to the
// allocating search it replaced: the same bicliques with the same bits in
// the same order and the same Stats, for complete runs, budget-aborted
// runs and visitor stops. The 60 random graphs (dyadic and arbitrary
// probabilities, side minima 1–3) run under CheckInvariants, so every node's
// I and X are also checked from scratch; the cohort graphs are the
// benchmark's shape at its α and side minima.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cut := 0
	for i := 0; i < 60; i++ {
		nL, nR := 1+rng.Intn(12), 1+rng.Intn(12)
		var g *Bipartite
		if i%2 == 0 {
			g = randomBipartite(nL, nR, 0.2+0.7*rng.Float64(), rng)
		} else {
			b := NewBuilder(nL, nR)
			density := 0.2 + 0.7*rng.Float64()
			for l := 0; l < nL; l++ {
				for r := 0; r < nR; r++ {
					if rng.Float64() < density {
						_ = b.AddEdge(l, r, 1-0.9*rng.Float64())
					}
				}
			}
			g = b.Build()
		}
		alpha := []float64{0.5, 0.1, 0.01, 1e-4}[i%4]
		cfg := Config{MinLeft: 1 + i%3, MinRight: 1 + (i/3)%3, CheckInvariants: true}
		cut += diffBicliqueGraph(t, fmt.Sprintf("random%d α=%v", i, alpha), g, alpha, cfg)
	}
	for _, seed := range []int64{1, 2} {
		g := cohortBipartite(200, 150, 6, seed)
		for _, alpha := range []float64{0.5, 0.2} {
			cut += diffBicliqueGraph(t, fmt.Sprintf("cohort200x150/%d α=%v", seed, alpha), g, alpha, Config{MinLeft: 2, MinRight: 2})
		}
	}
	// The budget is charged per poll interval, so small runs finish under
	// any budget; the large graphs must still produce cut runs.
	if cut < 8 {
		t.Fatalf("only %d budget-aborted runs compared", cut)
	}
}

// TestSearchAllocatesUnderOneMB pins the search's allocation to a small
// bound on the benchmark's cohort graph, where the allocating reference
// search takes ~183 MB per run, two slices per search node.
func TestSearchAllocatesUnderOneMB(t *testing.T) {
	g := cohortBipartite(200, 150, 6, 1)
	ctx := context.Background()
	cfg := Config{MinLeft: 2, MinRight: 2}
	if _, err := EnumerateContext(ctx, g, 0.5, nil, cfg); err != nil { // warm up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats, err := EnumerateContext(ctx, g, 0.5, nil, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Calls < 20000 {
		t.Fatalf("cohort run made only %d search calls", stats.Calls)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	if bytes >= 1<<20 {
		t.Fatalf("cohort run allocated %d bytes over %d search calls, want < 1 MiB", bytes, stats.Calls)
	}
	t.Logf("%d bytes over %d search calls", bytes, stats.Calls)
}
