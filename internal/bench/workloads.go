package bench

import (
	"context"
	"errors"
	"math/rand"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/baseline"
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/gen"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Config tunes an experiment run.
type Config struct {
	// Seed drives every generator; equal seeds give identical workloads.
	Seed int64
	// Quick substitutes scaled-down graphs so a full experiment sweep
	// finishes in seconds to a few minutes (the default for benchmarks and
	// tests). Full scale reproduces the Table 1 sizes.
	Quick bool
	// DBLPScale scales the DBLP synthesizer in full mode (1.0 = the paper's
	// 684911 authors). The default used by cmd/experiments is 0.05.
	DBLPScale float64
	// Budget caps any single enumeration run; runs that exceed it are
	// reported as "> budget" (the paper's DFS-NOIP cells at small α take
	// hours — a cap keeps the harness usable while preserving the shape).
	Budget time.Duration
	// Workers is passed to MULE's parallel driver where an experiment
	// exercises it (0/1 = serial, the paper's setting).
	Workers int
	// KernelOut, when non-empty, is the trajectory file the kernel
	// experiment merges its run into (conventionally BENCH_kernel.json at
	// the repo root).
	KernelOut string
	// KernelLabel names the kernel run in the trajectory (e.g. "arena
	// kernel (PR 2)"); a run with the same label is replaced.
	KernelLabel string
	// KernelDiff, when non-empty, makes the kernel experiment compare its
	// run against the latest comparable row of this trajectory file and
	// fail on any cell slower by more than KernelDiffPct percent ns/op.
	KernelDiff string
	// KernelDiffPct is the regression tolerance for KernelDiff in percent;
	// 0 selects the default (25).
	KernelDiffPct float64
	// KernelOnce makes the kernel experiment time a single iteration per
	// cell instead of testing.Benchmark auto-scaling — the CI smoke mode.
	KernelOnce bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DBLPScale == 0 {
		c.DBLPScale = 0.05
	}
	if c.Budget == 0 {
		c.Budget = 2 * time.Minute
	}
	return c
}

// NamedGraph pairs a dataset name with a built graph.
type NamedGraph struct {
	Name string
	G    *uncertain.Graph
}

// Figure1Graphs returns the four inputs of Figure 1: wiki-vote, BA5000,
// ca-GrQc and the Fruit-Fly PPI network (quarter-scale in Quick mode; the
// PPI network is small enough to always build at full scale).
func Figure1Graphs(cfg Config) []NamedGraph {
	cfg = cfg.withDefaults()
	if cfg.Quick {
		return []NamedGraph{
			{"wiki-vote", gen.WikiVoteLikeN(1780, 25900, cfg.Seed)},
			{"BA5000", gen.BA(1250, cfg.Seed)},
			{"ca-GrQc", gen.CollaborationLikeN(1310, 7245, cfg.Seed)},
			{"PPI", gen.PPILike(cfg.Seed)},
		}
	}
	return []NamedGraph{
		{"wiki-vote", gen.WikiVoteLike(cfg.Seed)},
		{"BA5000", gen.BA(5000, cfg.Seed)},
		{"ca-GrQc", gen.CollaborationLike(cfg.Seed)},
		{"PPI", gen.PPILike(cfg.Seed)},
	}
}

// RandomGraphs returns the Barabási–Albert family of Figures 2a/3a/4
// (BA5000 … BA10000, scaled to BA800 … BA1800 in Quick mode).
func RandomGraphs(cfg Config) []NamedGraph {
	cfg = cfg.withDefaults()
	sizes := []int{5000, 6000, 7000, 8000, 9000, 10000}
	if cfg.Quick {
		sizes = []int{800, 1000, 1200, 1400, 1600, 1800}
	}
	out := make([]NamedGraph, len(sizes))
	for i, n := range sizes {
		out[i] = NamedGraph{baName(n), gen.BA(n, cfg.Seed+int64(i))}
	}
	return out
}

func baName(n int) string {
	switch {
	case n >= 1000:
		return "BA" + itoa(n)
	default:
		return "BA" + itoa(n)
	}
}

// SemiSyntheticGraphs returns the real/semi-synthetic family of Figures
// 2b/3b: PPI, ca-GrQc, three Gnutella snapshots and wiki-vote.
func SemiSyntheticGraphs(cfg Config) []NamedGraph {
	cfg = cfg.withDefaults()
	if cfg.Quick {
		return []NamedGraph{
			{"PPI", gen.PPILike(cfg.Seed)},
			{"ca-GrQc", gen.CollaborationLikeN(1310, 7245, cfg.Seed)},
			{"p2p-Gnutella04", gen.GnutellaLike(2720, 9999, cfg.Seed)},
			{"p2p-Gnutella08", gen.GnutellaLike(1575, 5194, cfg.Seed)},
			{"p2p-Gnutella09", gen.GnutellaLike(2029, 6503, cfg.Seed)},
			{"wiki-vote", gen.WikiVoteLikeN(1780, 25900, cfg.Seed)},
		}
	}
	return []NamedGraph{
		{"PPI", gen.PPILike(cfg.Seed)},
		{"ca-GrQc", gen.CollaborationLike(cfg.Seed)},
		{"p2p-Gnutella04", gen.Gnutella04Like(cfg.Seed)},
		{"p2p-Gnutella08", gen.Gnutella08Like(cfg.Seed)},
		{"p2p-Gnutella09", gen.Gnutella09Like(cfg.Seed)},
		{"wiki-vote", gen.WikiVoteLike(cfg.Seed)},
	}
}

// LargeCliqueGraphs returns the three inputs of Figures 5/6: BA10000,
// ca-GrQc and DBLP.
func LargeCliqueGraphs(cfg Config) []NamedGraph {
	cfg = cfg.withDefaults()
	if cfg.Quick {
		return []NamedGraph{
			{"BA10000", gen.BA(2000, cfg.Seed)},
			{"ca-GrQc", gen.CollaborationLikeN(1310, 7245, cfg.Seed)},
			{"DBLP", gen.DBLPLike(0.01, cfg.Seed)},
		}
	}
	return []NamedGraph{
		{"BA10000", gen.BA(10000, cfg.Seed)},
		{"ca-GrQc", gen.CollaborationLike(cfg.Seed)},
		{"DBLP", gen.DBLPLike(cfg.DBLPScale, cfg.Seed)},
	}
}

// SkewedCliqueGraph builds the parallel-scaling workload: a graph whose
// search tree is dominated by a single top-level branch, the shape that
// starves the legacy top-level fan-out. Hub vertices 0..h-1 attach to every
// core vertex with near-certain probability, so almost every α-maximal
// clique contains hub 0 and the entire heavy subtree hangs off one top-level
// branch (measured: >99% of cliques at SkewedAlpha in full mode). The core
// is an Erdős–Rényi block with probabilities in [0.82, 0.98]; a ring of
// tail vertices supplies many trivial top-level branches, mimicking the
// hub-plus-periphery shape of PPI and collaboration networks.
func SkewedCliqueGraph(cfg Config) NamedGraph {
	cfg = cfg.withDefaults()
	hubs, core, tail, dens := 2, 520, 600, 0.18
	if cfg.Quick {
		core, tail, dens = 260, 300, 0.14
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := uncertain.NewBuilder(hubs + core + tail)
	for h := 0; h < hubs; h++ {
		for h2 := h + 1; h2 < hubs; h2++ {
			_ = b.AddEdge(h, h2, 0.99)
		}
		for v := hubs; v < hubs+core; v++ {
			_ = b.AddEdge(h, v, 0.96+0.03*rng.Float64())
		}
	}
	for u := hubs; u < hubs+core; u++ {
		for v := u + 1; v < hubs+core; v++ {
			if rng.Float64() < dens {
				_ = b.AddEdge(u, v, 0.82+0.16*rng.Float64())
			}
		}
	}
	for i := 0; i < tail; i++ {
		u := hubs + core + i
		v := hubs + core + (i+1)%tail
		if u != v {
			_ = b.AddEdge(u, v, 0.9)
		}
	}
	return NamedGraph{"skewed-hub", b.Build()}
}

// SkewedAlpha is the probability threshold used with SkewedCliqueGraph.
const SkewedAlpha = 0.02

// DenseGNPGraph builds the dense-neighborhood workload: an Erdős–Rényi
// G(n, p≈0.3) block with high edge probabilities. Every adjacency row is
// ~0.3n long and candidate sets stay packed into the remaining vertex
// range, which is exactly the shape where the sorted merge/gallop kernels
// pay per-element comparisons for members that almost all survive — the
// regime the bit-row probe targets (every row is mirrored). Used with the high
// DenseAlpha so the probability filter, not the topology, bounds clique
// size and the sweep finishes in benchmark time.
func DenseGNPGraph(cfg Config) NamedGraph {
	cfg = cfg.withDefaults()
	n := 500
	if cfg.Quick {
		n = 300
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := uncertain.NewBuilder(n)
	for _, e := range gen.GNP(n, 0.3, rng) {
		_ = b.AddEdge(e[0], e[1], 0.85+0.14*rng.Float64())
	}
	return NamedGraph{"dense-gnp" + itoa(n), b.Build()}
}

// DenseAlpha is the probability threshold used with DenseGNPGraph: high
// enough that cliques stay small (the product of ~0.9 edge probabilities
// crosses it within a handful of vertices) while the candidate sets the
// kernel intersects remain long and dense.
const DenseAlpha = 0.25

// AlphaSweep is the probability-threshold grid of Figures 2 and 3
// (log-spaced from 1e-4 to 0.9, mirroring the paper's x-axis).
var AlphaSweep = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 0.9}

// Figure1Alphas are the four thresholds of Figure 1's panels.
var Figure1Alphas = []float64{0.9, 0.8, 0.0005, 0.0001}

// Figure4Alphas are the thresholds whose output sizes Figure 4 scatters.
var Figure4Alphas = []float64{0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001}

// RunResult is one timed enumeration.
type RunResult struct {
	Elapsed  time.Duration
	Cliques  int64
	Stats    core.Stats
	Finished bool // false if the Budget expired mid-run
}

// TimedMULE runs MULE under cfg's time budget, enforced with a context
// deadline through the public query API: the engines poll the context on a
// node-count interval, so even emission-free stretches of the search (which
// the old per-1024-emissions visitor check slept through) respect the
// budget. A run that outlives the deadline reports Finished == false with
// the stats of the truncated run.
func TimedMULE(g *uncertain.Graph, alpha float64, cfg Config, coreCfg core.Config) (RunResult, error) {
	cfg = cfg.withDefaults()
	var res RunResult
	// The clock starts before the deadline is set, so a run cut off by the
	// deadline always reports at least the budget as elapsed.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
	defer cancel()
	stats, err := runEnumeration(ctx, g, alpha, coreCfg)
	res.Elapsed = time.Since(start)
	switch {
	case err == nil:
		res.Finished = true
	case errors.Is(err, context.DeadlineExceeded):
		res.Finished = false
	default:
		return res, err
	}
	res.Cliques = stats.Emitted
	res.Stats = stats
	return res, nil
}

// runEnumeration executes one enumeration through mule.NewQuery — the
// public API every benchmark number should reflect — falling back to the
// core entry point only for the ablation-only knobs that the query surface
// deliberately does not expose (SkipPrune, CheckInvariants).
func runEnumeration(ctx context.Context, g *uncertain.Graph, alpha float64, c core.Config) (core.Stats, error) {
	if c.SkipPrune || c.CheckInvariants {
		return core.EnumerateContext(ctx, g, alpha, nil, c)
	}
	q, err := mule.NewQuery(g, alpha,
		mule.WithMinSize(c.MinSize),
		mule.WithOrdering(c.Ordering),
		mule.WithSeed(c.Seed),
		mule.WithWorkers(c.Workers),
		mule.WithParallelMode(c.Parallel),
		mule.WithStealGranularity(c.StealGranularity),
		mule.WithBudget(c.Budget),
	)
	if err != nil {
		return core.Stats{}, err
	}
	return q.Run(ctx, nil)
}

// timedHashMULE runs the hash-adjacency MULE ablation under cfg's budget.
func timedHashMULE(g *uncertain.Graph, alpha float64, cfg Config) RunResult {
	cfg = cfg.withDefaults()
	deadline := time.Now().Add(cfg.Budget)
	var res RunResult
	count := int64(0)
	aborted := false
	visit := func([]int, float64) bool {
		count++
		if count%1024 == 0 && time.Now().After(deadline) {
			aborted = true
			return false
		}
		return true
	}
	start := time.Now()
	stats := baseline.EnumerateHashMULE(g, alpha, visit)
	res.Elapsed = time.Since(start)
	res.Cliques = stats.Emitted
	res.Finished = !aborted
	return res
}

// TimedNOIP runs the DFS-NOIP baseline under cfg's time budget.
func TimedNOIP(g *uncertain.Graph, alpha float64, cfg Config) RunResult {
	cfg = cfg.withDefaults()
	deadline := time.Now().Add(cfg.Budget)
	var res RunResult
	count := int64(0)
	aborted := false
	visit := func([]int, float64) bool {
		count++
		if count%256 == 0 && time.Now().After(deadline) {
			aborted = true
			return false
		}
		return true
	}
	start := time.Now()
	stats := baseline.EnumerateNOIP(g, alpha, visit)
	res.Elapsed = time.Since(start)
	res.Cliques = int64(stats.Emitted)
	res.Finished = !aborted
	return res
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
