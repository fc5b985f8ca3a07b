package utruss

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

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
// planted communities and a dense G(n, m) at the benchmark's density (150
// vertices rather than 300: its truss peel runs sixteen levels deep).
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
	dense := uncertain.NewBuilder(150)
	for _, e := range gen.GNM(150, 3353, rng) {
		_ = dense.AddEdge(e[0], e[1], 0.85+0.14*rng.Float64())
	}
	return append(out,
		namedGraph{"ba800", gen.BA(800, 41)},
		namedGraph{"ca-grqc", gen.CollaborationLikeN(1310, 7245, 41)},
		namedGraph{"community150", community.Build()},
		namedGraph{"dense-gnm150", dense.Build()},
	)
}

// trussRun is one run's emission stream, Stats and error text.
type trussRun struct {
	stream []EdgeTruss
	stats  Stats
	err    string
}

type trussRunner func(context.Context, *uncertain.Graph, float64, Config, Visitor) (Stats, error)

func recordTruss(run trussRunner, g *uncertain.Graph, eta float64, cfg Config, stopAfter int) trussRun {
	var r trussRun
	stats, err := run(context.Background(), g, eta, cfg, func(e EdgeTruss) bool {
		r.stream = append(r.stream, e)
		return stopAfter <= 0 || len(r.stream) < stopAfter
	})
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func diffTrussRuns(t testing.TB, label string, got, want trussRun) {
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

// diffTrussGraph compares the decomposition stream against the reference
// on one graph and η; with thorough set it also compares the (k,η)-truss
// of every level k ≤ 5, budget-aborted runs (cut at a half and a third of
// the full run's checks) and a visitor stop. It returns how many of the
// compared runs the budget cut.
func diffTrussGraph(t testing.TB, label string, g *uncertain.Graph, eta float64, thorough bool) (cut int) {
	t.Helper()
	want := recordTruss(refRunContext, g, eta, Config{}, 0)
	diffTrussRuns(t, label, recordTruss(RunContext, g, eta, Config{}, 0), want)
	if !thorough {
		return 0
	}
	for k := 3; k <= 5; k++ {
		tr, stats, err := TrussContext(context.Background(), g, k, eta, Config{})
		rtr, rstats, rerr := refTrussContext(context.Background(), g, k, eta, Config{})
		if err != nil || rerr != nil || stats != rstats {
			t.Fatalf("%s k=%d: stats %+v err %v, reference %+v err %v", label, k, stats, err, rstats, rerr)
		}
		got, ref := tr.Edges(), rtr.Edges()
		if len(got) != len(ref) {
			t.Fatalf("%s k=%d: truss has %d edges, reference %d", label, k, len(got), len(ref))
		}
		for i := range got {
			if got[i].U != ref[i].U || got[i].V != ref[i].V || math.Float64bits(got[i].P) != math.Float64bits(ref[i].P) {
				t.Fatalf("%s k=%d: truss edge %d = %+v, reference %+v", label, k, i, got[i], ref[i])
			}
		}
	}
	for _, budget := range []int64{want.stats.Checks / 2, want.stats.Checks/3 + 1} {
		cfg := Config{Budget: budget}
		ref := recordTruss(refRunContext, g, eta, cfg, 0)
		if ref.stats.Status == core.StatusBudget {
			cut++
		}
		diffTrussRuns(t, fmt.Sprintf("%s budget %d", label, budget), recordTruss(RunContext, g, eta, cfg, 0), ref)
	}
	if stop := len(want.stream) / 2; stop > 0 {
		diffTrussRuns(t, fmt.Sprintf("%s stop %d", label, stop),
			recordTruss(RunContext, g, eta, Config{}, stop),
			recordTruss(refRunContext, g, eta, Config{}, stop))
	}
	return cut
}

// TestTrussMatchesReference pins the slot-indexed peeler to the map-based
// peeler it replaced: the same emissions in the same order, the same
// Stats and the same truss graphs on every corpus graph and η, for
// complete runs, budget-aborted runs and visitor stops (the large shapes
// run all but the complete decomposition at η 0.3 only).
func TestTrussMatchesReference(t *testing.T) {
	cut := 0
	for _, ng := range diffCorpus() {
		for _, eta := range []float64{0.1, 0.3, 0.5, 0.9} {
			thorough := ng.g.NumEdges() <= 2000 || eta == 0.3
			cut += diffTrussGraph(t, fmt.Sprintf("%s η=%v", ng.name, eta), ng.g, eta, thorough)
		}
	}
	// The budget is charged per poll interval, so small runs finish under
	// any budget; the large graphs must still produce cut runs.
	if cut < 20 {
		t.Fatalf("only %d budget-aborted runs compared", cut)
	}
}

// FuzzTrussMatchesReference decodes a small uncertain graph from the fuzz
// input — the first byte picks n ≤ 16, then each byte triple is an edge
// (u, v, p) with p = (b+1)/256, later duplicates replacing earlier ones —
// and compares the decomposition against the reference at several η.
func FuzzTrussMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 1, 255, 1, 2, 255, 0, 2, 127, 2, 3, 63, 0, 3, 200})
	f.Add([]byte{6, 0, 1, 200, 0, 2, 200, 0, 3, 200, 1, 2, 200, 1, 3, 200, 2, 3, 200, 3, 4, 9, 4, 5, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%15
		b := uncertain.NewBuilder(n)
		for i := 1; i+2 < len(data); i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				_ = b.UpsertEdge(u, v, float64(int(data[i+2])+1)/256)
			}
		}
		g := b.Build()
		for _, eta := range []float64{0.05, 0.3, 0.5, 0.9, 1} {
			diffTrussGraph(t, fmt.Sprintf("η=%v", eta), g, eta, true)
		}
	})
}

// TestTrussAllocationsIndependentOfChecks pins the peel's allocations to a
// constant: the same graph peeled at two η with very different numbers of
// support checks allocates the same objects, and few of them. The map-based
// reference allocates a wedge list and a DP row per check. The collector
// stays off while counting, because AllocsPerRun also counts the runtime's
// own allocations during a GC cycle.
func TestTrussAllocationsIndependentOfChecks(t *testing.T) {
	g := gen.BA(800, 41)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(eta float64) (float64, int64) {
		var stats Stats
		allocs := testing.AllocsPerRun(3, func() {
			stats, _ = RunContext(context.Background(), g, eta, Config{}, nil)
		})
		return allocs, stats.Checks
	}
	lowAllocs, lowChecks := measure(0.9)
	highAllocs, highChecks := measure(0.05)
	if highChecks < 2*lowChecks {
		t.Fatalf("η sweep did not change the work: %d vs %d checks", lowChecks, highChecks)
	}
	if lowAllocs != highAllocs || highAllocs > 24 {
		t.Fatalf("allocations %.0f at %d checks and %.0f at %d checks, want equal and ≤ 24",
			lowAllocs, lowChecks, highAllocs, highChecks)
	}
}

// TestWedgeIndexMatchesRowMerge pins the wedge index to the row merge that
// stands in for it on dense graphs: on every corpus graph sparse enough to
// be indexed, each edge's alive wedges come out of both the same and in the
// same order, with every edge alive and with every third edge dead. The
// corpus must hold graphs of both kinds, so TestTrussMatchesReference
// covers both.
func TestWedgeIndexMatchesRowMerge(t *testing.T) {
	corpus := diffCorpus()
	indexed := 0
	for _, ng := range corpus {
		s := newGraphState(ng.g, &Stats{}, core.NewRunControl(context.Background(), 0))
		if s.wedgeStart == nil {
			continue
		}
		indexed++
		for _, dead := range []int{0, 3} {
			for id := range s.alive {
				s.alive[id] = dead == 0 || id%dead != 0
			}
			for id := range int32(len(s.ends)) {
				fromIndex := slices.Clone(s.aliveWedges(id))
				index := s.wedgeStart
				s.wedgeStart = nil
				fromMerge := s.aliveWedges(id)
				s.wedgeStart = index
				if !slices.Equal(fromIndex, fromMerge) {
					t.Fatalf("%s edge %v, every %d-th edge dead: index lists %v, row merge %v",
						ng.name, s.ends[id], dead, fromIndex, fromMerge)
				}
			}
		}
	}
	if indexed == 0 || indexed == len(corpus) {
		t.Fatalf("%d of %d corpus graphs indexed, want some of each kind", indexed, len(corpus))
	}
}

// TestTrussDenseCliqueStaysBounded runs a certain K_300, whose 13.4 million
// (edge, wedge) incidences would take 107 MB as a wedge index, under a
// budget of 100 support checks and under a 10 ms deadline. Both runs must
// stop at a poll and allocate little beyond the O(n + m) peel state.
func TestTrussDenseCliqueStaysBounded(t *testing.T) {
	const n = 300
	b := uncertain.NewBuilder(n)
	for u := range n {
		for v := u + 1; v < n; v++ {
			if err := b.AddEdge(u, v, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	for _, leg := range []struct {
		name    string
		timeout time.Duration
		cfg     Config
		want    error
	}{
		{"budget 100", 0, Config{Budget: 100}, core.ErrBudget},
		{"deadline 10ms", 10 * time.Millisecond, Config{}, context.DeadlineExceeded},
	} {
		ctx := context.Background()
		if leg.timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, leg.timeout)
			defer cancel()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RunContext(ctx, g, 0.5, leg.cfg, nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, leg.want) {
			t.Fatalf("%s: err %v, want %v", leg.name, err, leg.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Fatalf("%s: the run allocated %d bytes on K_%d, want ≤ 8 MiB", leg.name, alloc, n)
		}
	}
}
