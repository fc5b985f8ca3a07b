package ucore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

type namedGraph struct {
	name string
	g    *uncertain.Graph
}

// diffCorpus returns the differential suite's graphs: 50 random graphs of
// varied size, density and probability spread (quantized probabilities,
// certain edges and tiny ones among them, so ties and boundary values
// occur), plus the benchmark's shapes: BA800, a collaboration-like graph,
// planted communities and a dense G(n, m).
func diffCorpus() []namedGraph {
	rng := rand.New(rand.NewSource(15))
	var out []namedGraph
	for i := 0; i < 50; i++ {
		n := 2 + rng.Intn(45)
		density := 0.05 + 0.85*rng.Float64()
		prob := func() float64 {
			switch i % 4 {
			case 0:
				return float64(1+rng.Intn(4)) / 4
			case 1:
				return 0.01 + 0.2*rng.Float64()
			default:
				return 1 - 0.999*rng.Float64()
			}
		}
		b := uncertain.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < density {
					_ = b.AddEdge(u, v, prob())
				}
			}
		}
		out = append(out, namedGraph{fmt.Sprintf("random%d", i), b.Build()})
	}
	community := uncertain.NewBuilder(150)
	edges, _ := gen.PlantedCliques(150, 8, 7, 0.01, rng)
	for _, e := range edges {
		_ = community.UpsertEdge(e[0], e[1], 0.6+0.39*rng.Float64())
	}
	dense := uncertain.NewBuilder(300)
	for _, e := range gen.GNM(300, 13455, rng) {
		_ = dense.AddEdge(e[0], e[1], 0.85+0.14*rng.Float64())
	}
	return append(out,
		namedGraph{"ba800", gen.BA(800, 41)},
		namedGraph{"ca-grqc", gen.CollaborationLikeN(1310, 7245, 41)},
		namedGraph{"community150", community.Build()},
		namedGraph{"dense-gnm300", dense.Build()},
	)
}

// coreRun is one run's emission stream, Stats and error text.
type coreRun struct {
	stream []VertexCore
	stats  Stats
	err    string
}

type coreRunner func(context.Context, *uncertain.Graph, float64, Config, Visitor) (Stats, error)

func recordCore(run coreRunner, g *uncertain.Graph, eta float64, cfg Config, stopAfter int) coreRun {
	var r coreRun
	stats, err := run(context.Background(), g, eta, cfg, func(vc VertexCore) bool {
		r.stream = append(r.stream, vc)
		return stopAfter <= 0 || len(r.stream) < stopAfter
	})
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func diffCoreRuns(t *testing.T, label string, got, want coreRun) {
	t.Helper()
	if got.stats != want.stats || got.err != want.err {
		t.Fatalf("%s: stats %+v err %q, reference %+v err %q", label, got.stats, got.err, want.stats, want.err)
	}
	if len(got.stream) != len(want.stream) {
		t.Fatalf("%s: %d emissions, reference %d", label, len(got.stream), len(want.stream))
	}
	for i := range got.stream {
		if got.stream[i] != want.stream[i] {
			t.Fatalf("%s: emission %d = %+v, reference %+v", label, i, got.stream[i], want.stream[i])
		}
	}
}

// TestPeelMatchesReference pins the CSR peeler to the map-based peeler it
// replaced: the same emissions in the same order and the same Stats on
// every corpus graph and η, for complete runs, budget-aborted runs (cut at
// a half and at a third of the full run's recomputes) and visitor stops
// (the large shapes run their partial cases at η 0.3 only).
func TestPeelMatchesReference(t *testing.T) {
	cut := 0
	for _, ng := range diffCorpus() {
		for _, eta := range []float64{0.1, 0.3, 0.5, 0.9} {
			label := fmt.Sprintf("%s η=%v", ng.name, eta)
			want := recordCore(refRunContext, ng.g, eta, Config{}, 0)
			diffCoreRuns(t, label, recordCore(RunContext, ng.g, eta, Config{}, 0), want)
			if ng.g.NumEdges() > 2000 && eta != 0.3 {
				continue // partial runs of the large shapes at one η keep the suite quick
			}
			for _, budget := range []int64{want.stats.Recomputes / 2, want.stats.Recomputes/3 + 1} {
				cfg := Config{Budget: budget}
				ref := recordCore(refRunContext, ng.g, eta, cfg, 0)
				if ref.stats.Status == core.StatusBudget {
					cut++
				}
				diffCoreRuns(t, fmt.Sprintf("%s budget %d", label, budget), recordCore(RunContext, ng.g, eta, cfg, 0), ref)
			}
			if stop := len(want.stream) / 2; stop > 0 {
				diffCoreRuns(t, fmt.Sprintf("%s stop %d", label, stop),
					recordCore(RunContext, ng.g, eta, Config{}, stop),
					recordCore(refRunContext, ng.g, eta, Config{}, stop))
			}
		}
	}
	// The budget is charged per poll interval, so small runs finish under
	// any budget; the large graphs must still produce cut runs.
	if cut < 20 {
		t.Fatalf("only %d budget-aborted runs compared", cut)
	}
}

// TestEtaDegreeMatchesReference checks the exported wrappers against the
// reference DP bit for bit, including the scratch path with a dirty buffer.
func TestEtaDegreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dirty := make([]float64, 64)
	for trial := 0; trial < 500; trial++ {
		probs := make([]float64, rng.Intn(40))
		for i := range probs {
			probs[i] = 1 - rng.Float64()
		}
		eta := 1 - rng.Float64()
		for i := range dirty {
			dirty[i] = rng.Float64()
		}
		want := refEtaDegree(probs, eta)
		if got := EtaDegree(probs, eta); got != want {
			t.Fatalf("EtaDegree(%v, %v) = %d, reference %d", probs, eta, got, want)
		}
		if got := etaDegree(dirty, probs, eta); got != want {
			t.Fatalf("etaDegree on a dirty buffer = %d, reference %d", got, want)
		}
	}
}

// TestRunAllocationsIndependentOfRecomputes pins the peel's allocations to
// a constant; the map-based reference allocates a map per vertex and a
// sorted copy per recompute (~47k objects on BA800 at η 0.3).
func TestRunAllocationsIndependentOfRecomputes(t *testing.T) {
	g := gen.BA(800, 41)
	var stats Stats
	allocs := testing.AllocsPerRun(3, func() {
		stats, _ = RunContext(context.Background(), g, 0.3, Config{}, nil)
	})
	if stats.Recomputes < 5000 {
		t.Fatalf("BA800 ran only %d recomputes", stats.Recomputes)
	}
	if allocs > 16 {
		t.Fatalf("core run on BA800 allocated %.0f objects for %d recomputes, want ≤ 16", allocs, stats.Recomputes)
	}
}
