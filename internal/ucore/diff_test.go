package ucore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
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

// TestPeelCorpusTakesTheUnchargedPaths requires the differential corpus to
// drive the peel through both of its uncharged paths, refinements of popped
// lower bounds and guard-band fallbacks, so TestPeelMatchesReference
// compares them with the reference too.
func TestPeelCorpusTakesTheUnchargedPaths(t *testing.T) {
	var total peelWork
	for _, ng := range diffCorpus() {
		for _, eta := range []float64{0.1, 0.3, 0.5, 0.9} {
			_, work, err := run(context.Background(), ng.g, eta, Config{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			total.refines += work.refines
			total.fallbacks += work.fallbacks
		}
	}
	if total.refines == 0 || total.fallbacks == 0 {
		t.Fatalf("corpus took %d refinements and %d band fallbacks, want some of each", total.refines, total.fallbacks)
	}
}

// cancelAtPoll reads as canceled from its at-th Err call on. RunControl.Poll
// calls Err once per poll, so this cancels a run at a chosen poll.
type cancelAtPoll struct {
	context.Context
	calls, at int
}

func (c *cancelAtPoll) Err() error {
	c.calls++
	if c.calls >= c.at {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestRefinementsPoll cancels a run on the cancellation matrix's dense core
// input at its first poll after the initial pass. Every vertex leaves that
// pass under a lower bound, so the first popMin refines hundreds of them,
// one DP each, before an exact key surfaces. The run must see the cancel
// among those refinements and return before its first emission, and at most
// abortCheckInterval DPs, charged or not, may separate two polls.
func TestRefinementsPoll(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := gen.BuildUncertain(300, gen.GNP(300, 0.5, rng), gen.ConstProb(0.9), rng)
	if err != nil {
		t.Fatal(err)
	}
	_, first, _ := run(context.Background(), g, 0.9, Config{}, func(VertexCore) bool { return false })
	if first.refines <= 2*abortCheckInterval {
		t.Fatalf("only %d refinements before the first emission; the input no longer tests the polls between them", first.refines)
	}
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The run polls once before it starts, then every abortCheckInterval
	// charged recomputes of the initial pass, one per vertex.
	n := g.NumVertices()
	ctx := &cancelAtPoll{Context: base, at: 2 + n/abortCheckInterval}
	stats, work, err := run(ctx, g, 0.9, Config{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if stats.Recomputes != int64(n) || stats.Emitted != 0 {
		t.Fatalf("canceled after %d recomputes and %d emissions, want %d and none", stats.Recomputes, stats.Emitted, n)
	}
	// The last charged poll came at the last multiple of the interval.
	if since := stats.Recomputes%abortCheckInterval + work.refines; since > abortCheckInterval {
		t.Fatalf("%d DPs ran between the last poll and the cancel, want ≤ %d", since, abortCheckInterval)
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

// FuzzCoreMatchesReference decodes a small uncertain graph, η and a
// budget from the fuzz input and compares the capped peel with the
// reference: emissions, Stats and error text. The first byte picks n ≤ 40,
// the second η, the third the budget (0 for none, else 8 recomputes a
// unit); each following byte triple is an edge (u, v, p), later duplicates
// replacing earlier ones. Even bytes give η a multiple of 1/64 and p a
// quarter, so Poisson-binomial tails can land exactly on η; odd bytes give
// multiples of 1/100.
func FuzzCoreMatchesReference(f *testing.F) {
	f.Add([]byte{4, 62, 0, 0, 1, 2, 0, 2, 2, 0, 3, 2, 1, 2, 2, 1, 3, 2, 2, 3, 2})
	f.Add([]byte{6, 30, 0, 0, 1, 6, 0, 2, 4, 0, 3, 2, 1, 2, 6, 1, 3, 99, 2, 3, 4, 3, 4, 0, 4, 5, 6, 0, 5, 2})
	f.Add([]byte{40, 127, 9, 0, 1, 181, 0, 2, 6, 1, 2, 33, 2, 3, 6, 3, 4, 200, 4, 0, 6, 5, 6, 2, 6, 7, 4})
	fraction := func(b byte, den int) float64 {
		if b%2 == 0 {
			return float64(1+int(b/2)%den) / float64(den)
		}
		return float64(1+int(b/2)%100) / 100
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%39
		eta := fraction(data[1], 64)
		cfg := Config{Budget: 8 * int64(data[2])}
		b := uncertain.NewBuilder(n)
		for i := 3; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				_ = b.UpsertEdge(u, v, fraction(data[i+2], 4))
			}
		}
		g := b.Build()
		label := fmt.Sprintf("n=%d η=%v budget %d", n, eta, cfg.Budget)
		diffCoreRuns(t, label, recordCore(RunContext, g, eta, cfg, 0), recordCore(refRunContext, g, eta, cfg, 0))
	})
}

// TestEtaDegreeUpToGuardBand sets η to the reference's own top-down tail
// T_k, and to one ulp above it, so the reference decides exactly on the
// boundary and the capped path's bottom-up tail may round to either side.
// The capped path must hand that decision to the full DP (the fallback
// counter moves) and return the reference's η-degree, or a bound below it.
func TestEtaDegreeUpToGuardBand(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dist := make([]float64, 81)
	checked := 0
	for trial := 0; trial < 3000; trial++ {
		probs := make([]float64, 4+rng.Intn(77))
		for i := range probs {
			if trial%2 == 0 {
				probs[i] = float64(1+rng.Intn(4)) / 4
			} else {
				probs[i] = 1 - rng.Float64()
			}
		}
		d := len(probs)
		// The capped path runs when 2·limit < d, and decides T_k when
		// k ≤ limit + 1.
		k := 1 + rng.Intn((d-1)/2)
		limit := max(k-1, 1) + rng.Intn((d-1)/2-max(k-1, 1)+1)
		tk := refTails(probs)[k]
		for _, eta := range []float64{tk, math.Nextafter(tk, 2)} {
			if !(eta > 0 && eta <= 1) {
				continue
			}
			checked++
			var work peelWork
			got, exact := etaDegreeUpTo(dist, probs, eta, limit, &work)
			want := refEtaDegree(probs, eta)
			if exact && got != want || !exact && (got != limit+1 || want <= limit) {
				t.Fatalf("d=%d k=%d limit %d η=%v: got %d (exact %v), reference %d", d, k, limit, eta, got, exact, want)
			}
			if work.fallbacks != 1 {
				t.Fatalf("d=%d k=%d limit %d η=%v: %d fallbacks to the full DP, want 1", d, k, limit, eta, work.fallbacks)
			}
		}
	}
	if checked < 4000 {
		t.Fatalf("only %d boundary values of η checked", checked)
	}
}

// TestRunAllocationsIndependentOfRecomputes pins the peel's allocations to
// a constant; the map-based reference allocates a map per vertex and a
// sorted copy per recompute (~47k objects on BA800 at η 0.3). The
// collector stays off while counting, because AllocsPerRun also counts the
// runtime's own allocations during a GC cycle.
func TestRunAllocationsIndependentOfRecomputes(t *testing.T) {
	g := gen.BA(800, 41)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
