package ucluster

import (
	"container/heap"
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

// clusterRun is one run's emission stream, Stats and error text.
type clusterRun struct {
	stream []string
	stats  Stats
	err    string
}

type clusterRunner func(context.Context, *uncertain.Graph, Config, Visitor) (Stats, error)

func recordClusters(run clusterRunner, g *uncertain.Graph, cfg Config, stopAfter int) clusterRun {
	var r clusterRun
	stats, err := run(context.Background(), g, cfg, func(c Cluster) bool {
		r.stream = append(r.stream, fmt.Sprintf("%d %v %x", c.Center, c.Members, math.Float64bits(c.Probability)))
		return stopAfter <= 0 || len(r.stream) < stopAfter
	})
	r.stats = stats
	if err != nil {
		r.err = err.Error()
	}
	return r
}

func diffClusterRuns(t *testing.T, label string, got, want clusterRun) {
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

// TestClusteringMatchesReference pins the typed heap to the container/heap
// sweep it replaced: the same clusters with the same bits in the same
// order and the same Stats on every corpus graph and k, for complete runs,
// budget-aborted runs (cut at a half and a third of the full run's sweeps)
// and visitor stops.
func TestClusteringMatchesReference(t *testing.T) {
	cut := 0
	for _, ng := range diffCorpus() {
		for _, k := range []int{1, 2, 4, 8} {
			if k > ng.g.NumVertices() {
				continue
			}
			label := fmt.Sprintf("%s k=%d", ng.name, k)
			cfg := Config{Centers: k}
			want := recordClusters(refRunContext, ng.g, cfg, 0)
			diffClusterRuns(t, label, recordClusters(RunContext, ng.g, cfg, 0), want)
			for _, budget := range []int64{want.stats.Sweeps / 2, want.stats.Sweeps/3 + 1} {
				bcfg := Config{Centers: k, Budget: budget}
				ref := recordClusters(refRunContext, ng.g, bcfg, 0)
				if ref.stats.Status == core.StatusBudget {
					cut++
				}
				diffClusterRuns(t, fmt.Sprintf("%s budget %d", label, budget), recordClusters(RunContext, ng.g, bcfg, 0), ref)
			}
			if stop := len(want.stream) / 2; stop > 0 {
				diffClusterRuns(t, fmt.Sprintf("%s stop %d", label, stop),
					recordClusters(RunContext, ng.g, cfg, stop),
					recordClusters(refRunContext, ng.g, cfg, stop))
			}
		}
	}
	if cut < 50 {
		t.Fatalf("only %d budget-aborted runs compared", cut)
	}
}

// TestHeapMatchesContainerHeap drives maxPQ's push/pop and container/heap
// over refPQ with the same operations — ties in probability included — and
// requires the same pops and the same heap array after every operation.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q maxPQ
	var ref refPQ
	for op := 0; op < 20000; op++ {
		if len(q) == 0 || rng.Intn(3) > 0 {
			it := pqItem{int32(rng.Intn(50)), float64(rng.Intn(8)) / 8}
			q.push(it)
			heap.Push(&ref, it)
		} else if got, want := q.pop(), heap.Pop(&ref).(pqItem); got != want {
			t.Fatalf("op %d: pop %+v, container/heap %+v", op, got, want)
		}
		if len(q) != len(ref) {
			t.Fatalf("op %d: %d items, container/heap %d", op, len(q), len(ref))
		}
		for i := range q {
			if q[i] != ref[i] {
				t.Fatalf("op %d: heap[%d] = %+v, container/heap %+v", op, i, q[i], ref[i])
			}
		}
	}
}

// TestClusteringAllocationsConstant pins the run's allocations to a small
// constant; the container/heap reference boxes every heap entry (~141k
// objects on BA800 at k = 8).
func TestClusteringAllocationsConstant(t *testing.T) {
	g := gen.BA(800, 41)
	var stats Stats
	allocs := testing.AllocsPerRun(3, func() {
		stats, _ = RunContext(context.Background(), g, Config{Centers: 8}, nil)
	})
	if stats.Sweeps < 16 {
		t.Fatalf("BA800 ran only %d sweeps", stats.Sweeps)
	}
	if allocs > 64 {
		t.Fatalf("cluster run on BA800 allocated %.0f objects over %d sweeps, want ≤ 64", allocs, stats.Sweeps)
	}
	t.Logf("%.0f allocations over %d sweeps", allocs, stats.Sweeps)
}
