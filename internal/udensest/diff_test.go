package udensest

import (
	"context"
	"fmt"
	"math"
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
// occur; sparse ones split into several components), plus the benchmark's
// shapes: BA800, a collaboration-like graph, planted communities and a
// dense G(n, m).
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

// emission is one reported candidate with its floats as bits.
type emission struct {
	vertices              string
	densityBits, probBits uint64
}

func emissionOf(c Candidate) emission {
	return emission{fmt.Sprint(c.Vertices), math.Float64bits(c.ExpectedDensity), math.Float64bits(c.Probability)}
}

// densestRun is one run's emission stream, Stats and error text.
type densestRun struct {
	stream []emission
	stats  Stats
	err    string
}

type densestRunner func(context.Context, *uncertain.Graph, Config, Visitor) (Stats, error)

func recordDensest(run densestRunner, g *uncertain.Graph, cfg Config, stopAfter int) densestRun {
	var r densestRun
	stats, err := run(context.Background(), g, cfg, func(c Candidate) bool {
		r.stream = append(r.stream, emissionOf(c))
		return stopAfter <= 0 || len(r.stream) < stopAfter
	})
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func sameStats(a, b Stats) bool {
	return a == b && math.Float64bits(a.BestDensity) == math.Float64bits(b.BestDensity)
}

func diffDensestRuns(t *testing.T, label string, got, want densestRun) {
	t.Helper()
	if !sameStats(got.stats, want.stats) || got.err != want.err {
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

// TestMinerMatchesReference pins the CSR peel and the band-limited scorer
// to the map-based miner they replaced: the same candidates with the same
// bits in the same order and the same Stats on every corpus graph, for
// complete runs, budget-aborted runs (cut at a half and a third of the
// full run's peel steps) and visitor stops.
func TestMinerMatchesReference(t *testing.T) {
	cut := 0
	for _, ng := range diffCorpus() {
		want := recordDensest(refRunContext, ng.g, Config{}, 0)
		diffDensestRuns(t, ng.name, recordDensest(RunContext, ng.g, Config{}, 0), want)
		for _, budget := range []int64{want.stats.PeelSteps / 2, want.stats.PeelSteps/3 + 1} {
			cfg := Config{Budget: budget}
			ref := recordDensest(refRunContext, ng.g, cfg, 0)
			if ref.stats.Status == core.StatusBudget {
				cut++
			}
			diffDensestRuns(t, fmt.Sprintf("%s budget %d", ng.name, budget), recordDensest(RunContext, ng.g, cfg, 0), ref)
		}
		if stop := len(want.stream) / 2; stop > 0 {
			diffDensestRuns(t, fmt.Sprintf("%s stop %d", ng.name, stop),
				recordDensest(RunContext, ng.g, Config{}, stop),
				recordDensest(refRunContext, ng.g, Config{}, stop))
		}
	}
	// The budget is charged per poll interval, so small runs finish under
	// any budget; the large graphs must still produce cut runs.
	if cut < 6 {
		t.Fatalf("only %d budget-aborted runs compared", cut)
	}
}

// TestShardedScoringMatchesReference drives the sharded driver's split
// phases: PeelContext must return the reference family, and ScoreContext
// must score it bit for bit when the components' chains arrive in reverse
// order, as a completion-order concatenation may deliver them. The family
// is passed twice in one call, so every chain's vertices are scored a
// second time after their first chain completed.
func TestShardedScoringMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, ng := range diffCorpus() {
		cands, stats, err := PeelContext(ctx, ng.g, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var refStats Stats
		ref, _ := refPeelAll(ng.g, &refStats, core.NewRunControl(ctx, 0))
		if len(cands) != len(ref) || stats.PeelSteps != refStats.PeelSteps || stats.Candidates != refStats.Candidates {
			t.Fatalf("%s: peel family %d (stats %+v), reference %d (%+v)", ng.name, len(cands), stats, len(ref), refStats)
		}
		for i := range cands {
			if emissionOf(cands[i]) != emissionOf(ref[i]) {
				t.Fatalf("%s: candidate %d = %+v, reference %+v", ng.name, i, cands[i], ref[i])
			}
		}
		reversed := append(reverseChains(cands), reverseChains(cands)...)
		refReversed := append(reverseChains(ref), reverseChains(ref)...)
		dstar := BestDensity(cands)
		got, err := ScoreContext(ctx, ng.g, reversed, dstar, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want Stats
		refScoreAll(ng.g, refReversed, dstar, &want, core.NewRunControl(ctx, 0))
		if got.Scored != want.Scored {
			t.Fatalf("%s: scored %d, reference %d", ng.name, got.Scored, want.Scored)
		}
		for i := range reversed {
			if emissionOf(reversed[i]) != emissionOf(refReversed[i]) {
				t.Fatalf("%s: scored candidate %d = %+v, reference %+v", ng.name, i, reversed[i], refReversed[i])
			}
		}
	}
}

// reverseChains returns the family with its nested chains in reverse order
// (each chain's own order kept), on fresh vertex slices.
func reverseChains(cands []Candidate) []Candidate {
	var chains [][]Candidate
	for start := 0; start < len(cands); {
		end := start + 1
		for end < len(cands) && isSubsetSorted(cands[end].Vertices, cands[end-1].Vertices) {
			end++
		}
		chains = append(chains, cands[start:end])
		start = end
	}
	var out []Candidate
	for i := len(chains) - 1; i >= 0; i-- {
		for _, c := range chains[i] {
			out = append(out, Candidate{Vertices: append([]int(nil), c.Vertices...), ExpectedDensity: c.ExpectedDensity})
		}
	}
	return out
}

// TestRunAllocatesPerCandidate pins the miner's allocations to one vertex
// slice per candidate plus a constant; the map-based reference also
// allocates a map per vertex and a member map per chain.
func TestRunAllocatesPerCandidate(t *testing.T) {
	g := gen.BA(800, 41)
	if g.NumComponents() != 1 {
		t.Fatalf("BA800 has %d components", g.NumComponents())
	}
	var stats Stats
	allocs := testing.AllocsPerRun(3, func() {
		stats, _ = RunContext(context.Background(), g, Config{}, nil)
	})
	if limit := float64(stats.Candidates + 32); allocs > limit {
		t.Fatalf("densest run on BA800 allocated %.0f objects for %d candidates, want ≤ %.0f", allocs, stats.Candidates, limit)
	}
	t.Logf("%.0f allocations, %d candidates", allocs, stats.Candidates)
}
