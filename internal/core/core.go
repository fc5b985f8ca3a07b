// Package core implements MULE (Maximal Uncertain cLique Enumeration), the
// primary contribution of "Mining Maximal Cliques from an Uncertain Graph"
// (Mukherjee, Xu, Tirthapura; ICDE 2015): depth-first enumeration of all
// α-maximal cliques of an uncertain graph with
//
//   - incremental clique-probability maintenance: each candidate vertex u
//     carries the multiplier r such that clq(C ∪ {u}) = clq(C)·r, so
//     extending a clique costs O(1) probability work instead of Θ(|C|)
//     (Algorithm 3/4, GenerateI/GenerateX);
//   - O(1) maximality detection: a clique is emitted exactly when both the
//     forward candidate set I and the backward witness set X are empty
//     (Algorithm 2, line 1);
//   - ascending-vertex-ID search so every vertex set is visited at most once.
//
// The package also implements LARGE-MULE (Algorithm 5/6) for enumerating
// only α-maximal cliques with at least MinSize vertices, with the
// Modani–Dey shared-neighborhood prefilter.
//
// When Config.Workers > 1 the search runs on the work-stealing engine
// (worksteal.go), on the shared process-wide executor (internal/exec) — no
// run ever spawns its own goroutines. Its seats build the independent
// top-level branches exactly as the serial root does, and every branch
// with enough candidates becomes an explicit, splittable search frame:
// pool workers run subtrees depth-first from shared deques and steal half
// of the oldest frames from a victim when they drain, so a single heavy
// subtree — the norm on skewed power-law inputs — is subdivided on demand
// instead of pinning one worker, and frames of many concurrent queries
// interleave on one pool without mixing their stats. Workers is the run's
// parallelism cap on that pool, not a goroutine count. Per-run scratch
// memory (entry arenas and the rank-indexed bit-row mirrors) comes from
// size-classed pools (pools.go) checked out per query-slot pair and
// returned on every terminal path.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"github.com/uncertain-graphs/mule/internal/exec"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Visitor receives each α-maximal clique as a vertex slice sorted ascending,
// together with its clique probability. The slice is reused between calls;
// copy it to retain it. Returning false stops the enumeration.
type Visitor func(clique []int, prob float64) bool

// Ordering selects how vertices are renumbered before the search. MULE's
// search tree visits vertex sets in ascending-ID order, so the numbering
// changes the tree shape (but never the output set).
type Ordering int

const (
	// OrderNatural keeps the input numbering (the paper's setting).
	OrderNatural Ordering = iota
	// OrderDegree numbers vertices by ascending support degree.
	OrderDegree
	// OrderDegeneracy numbers vertices in degeneracy (core) order of the
	// support graph, the ordering used by Eppstein–Strash for deterministic
	// clique enumeration.
	OrderDegeneracy
	// OrderRandom applies a seeded random permutation (ablation baseline).
	OrderRandom
)

// String names the ordering for logs and benchmark labels.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderDegree:
		return "degree"
	case OrderDegeneracy:
		return "degeneracy"
	case OrderRandom:
		return "random"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// IntersectMode selects which adjacency rows the kernel mirrors as
// rank-indexed bit rows: every intersection against a mirrored row probes it
// in O(1) per set element, the others merge or gallop. The default is
// adaptive; the forced modes exist for equivalence tests and ablation
// benchmarks — the output set is identical under every mode.
type IntersectMode int

const (
	// IntersectAdaptive (the default) mirrors the rows of at least 64
	// neighbours on graphs of up to 8,192 vertices.
	IntersectAdaptive IntersectMode = iota
	// IntersectSorted mirrors no row (no bit rows are built): every
	// intersection runs on the sorted merge/gallop kernels.
	IntersectSorted
	// IntersectBitset mirrors every non-empty row of a graph within the
	// 8,192-vertex gate; larger graphs fall back to the sorted kernels.
	IntersectBitset
)

// String names the intersect mode for logs and benchmark labels.
func (m IntersectMode) String() string {
	switch m {
	case IntersectAdaptive:
		return "adaptive"
	case IntersectSorted:
		return "sorted"
	case IntersectBitset:
		return "bitset"
	default:
		return fmt.Sprintf("IntersectMode(%d)", int(m))
	}
}

// Config tunes an enumeration run. The zero value reproduces the paper's
// plain MULE: all α-maximal cliques, natural ordering, single-threaded.
type Config struct {
	// MinSize, when ≥ 2, switches to LARGE-MULE: only α-maximal cliques
	// with at least MinSize vertices are enumerated, using the
	// shared-neighborhood prefilter and the |C|+|I| < t search-space cut.
	MinSize int
	// Ordering renumbers vertices before the search; results are always
	// reported in original IDs.
	Ordering Ordering
	// Seed feeds OrderRandom.
	Seed int64
	// Workers > 1 enables the work-stealing engine: the run is submitted to
	// the shared executor with Workers as its parallelism cap — up to that many
	// pool slots execute the run's frames at once. It is not a goroutine
	// count; the pool is sized once per process (or per Exec).
	Workers int
	// Exec selects the executor parallel runs are submitted to; nil means
	// the process-wide shared pool (exec.Default()). Serial runs (Workers
	// ≤ 1) never touch an executor.
	Exec *exec.Executor
	// StealGranularity is the minimum number of candidate vertices a
	// subtree must have before the work-stealing engine publishes it as a
	// stealable frame; smaller subtrees run inline with the serial
	// recursion. Lower values balance load at finer grain but pay more
	// synchronization; 0 selects the default (16). Ignored unless Workers >
	// 1.
	StealGranularity int
	// Budget, when > 0, bounds the number of search-tree nodes the run may
	// expand before aborting with ErrBudget. The budget is charged in
	// batches of abortCheckInterval nodes per worker, so a parallel run can
	// overshoot by up to Workers×interval nodes.
	Budget int64
	// Intersect selects which rows the intersection kernel probes as bit
	// rows: adaptive (the default), or forced sorted/bitset for tests and
	// ablations. The enumerated clique set is identical under every mode.
	Intersect IntersectMode
	// StallTimeout, when > 0, arms the stall watchdog: a run whose progress
	// beacon (stamped by every poll and every emission) does not advance for
	// this long is aborted with an error wrapping ErrStalled and
	// Stats.Status == StatusStalled. Distinct from a context deadline, which
	// fires on wall clock regardless of progress.
	StallTimeout time.Duration
	// SkipPrune disables the α-edge-pruning preprocessing step
	// (Observation 3). Only useful for ablation benchmarks; the output is
	// identical either way.
	SkipPrune bool
	// CheckInvariants verifies the Lemma 6/7 invariants of every recursive
	// call against from-scratch recomputation. Massively slow; test-only.
	CheckInvariants bool
}

// Stats reports the work performed by an enumeration run. A complete
// parallel run reports the serial run's Stats apart from Steals and
// Splits, except under MinSize: its frames keep size-pruned candidates in X
// to preserve their split invariant, so at MinSize ≥ 3 it may count more
// BitsetOps (probes of an X that serial leaves empty), and at MinSize ≥ 4
// more WitnessOps.
type Stats struct {
	Status        RunStatus // how the run ended (complete, stopped, canceled, …)
	Calls         int64     // Enum-Uncertain-MC invocations (search-tree nodes)
	Emitted       int64     // α-maximal cliques reported
	MaxDepth      int       // deepest recursion (= largest working clique)
	MaxCliqueSize int       // largest emitted clique
	CandidateOps  int64     // candidate entries produced across all GenerateI calls
	WitnessOps    int64     // witness entries materialized by GenerateX; leaves test X′ for emptiness without producing entries
	BitsetOps     int64     // intersections answered by probing a bit row (GenerateI, GenerateX and leaf witness tests)
	PrunedEdges   int       // edges removed by α-pruning (Observation 3)
	SizePruned    int64     // LARGE-MULE: branches cut by |C'|+|I'| < MinSize
	FilterRemoved int       // LARGE-MULE: edges removed by shared-neighborhood filtering
	Steals        int64     // work-stealing: successful steal operations
	Splits        int64     // work-stealing: lone frames split at the iteration level
}

// MergeStats folds s into agg: counters add, MaxDepth and MaxCliqueSize
// take the larger value. Every field is a sum or a max, so folding parts in
// a fixed order yields a deterministic aggregate. Status is not merged: the
// caller decides a run's terminal state once. The work-stealing engine
// folds its per-slot stats with it and the query layer its per-component runs,
// so a counter is folded the same way on every path.
func MergeStats(agg *Stats, s Stats) {
	agg.Calls += s.Calls
	agg.Emitted += s.Emitted
	agg.MaxDepth = max(agg.MaxDepth, s.MaxDepth)
	agg.MaxCliqueSize = max(agg.MaxCliqueSize, s.MaxCliqueSize)
	agg.CandidateOps += s.CandidateOps
	agg.WitnessOps += s.WitnessOps
	agg.BitsetOps += s.BitsetOps
	agg.PrunedEdges += s.PrunedEdges
	agg.SizePruned += s.SizePruned
	agg.FilterRemoved += s.FilterRemoved
	agg.Steals += s.Steals
	agg.Splits += s.Splits
}

// Enumerate runs plain MULE (Algorithm 1): it enumerates every α-maximal
// clique of g, invoking visit for each. visit may be nil to count only.
// alpha must lie in (0, 1]; at alpha = 1 the semantics coincide with
// deterministic maximal clique enumeration over the p(e)=1 edges.
func Enumerate(g *uncertain.Graph, alpha float64, visit Visitor) (Stats, error) {
	return EnumerateContext(context.Background(), g, alpha, visit, Config{})
}

// EnumerateWith runs MULE with explicit configuration and no cancellation.
func EnumerateWith(g *uncertain.Graph, alpha float64, visit Visitor, cfg Config) (Stats, error) {
	return EnumerateContext(context.Background(), g, alpha, visit, cfg)
}

// Validate checks the (graph, alpha, config) triple that every enumeration
// entry point accepts, returning the first violation wrapped around the
// matching sentinel (ErrNilGraph, ErrAlphaRange, ErrConfig).
func Validate(g *uncertain.Graph, alpha float64, cfg Config) error {
	if g == nil {
		return fmt.Errorf("core: %w", ErrNilGraph)
	}
	if !(alpha > 0 && alpha <= 1) { // also rejects NaN
		return fmt.Errorf("core: alpha %v: %w", alpha, ErrAlphaRange)
	}
	if cfg.MinSize < 0 {
		return fmt.Errorf("core: negative MinSize %d: %w", cfg.MinSize, ErrConfig)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d: %w", cfg.Workers, ErrConfig)
	}
	if cfg.StealGranularity < 0 {
		return fmt.Errorf("core: negative StealGranularity %d: %w", cfg.StealGranularity, ErrConfig)
	}
	if cfg.Budget < 0 {
		return fmt.Errorf("core: negative Budget %d: %w", cfg.Budget, ErrConfig)
	}
	if cfg.StallTimeout < 0 {
		return fmt.Errorf("core: negative StallTimeout %v: %w", cfg.StallTimeout, ErrConfig)
	}
	if cfg.Intersect != IntersectAdaptive && cfg.Intersect != IntersectSorted &&
		cfg.Intersect != IntersectBitset {
		return fmt.Errorf("core: unknown intersect mode %d: %w", int(cfg.Intersect), ErrConfig)
	}
	if cfg.Ordering != OrderNatural && cfg.Ordering != OrderDegree &&
		cfg.Ordering != OrderDegeneracy && cfg.Ordering != OrderRandom {
		return fmt.Errorf("core: unknown ordering %d: %w", int(cfg.Ordering), ErrConfig)
	}
	return nil
}

// EnumerateContext runs MULE with explicit configuration under ctx. The
// engines poll ctx every abortCheckInterval search nodes; on cancellation or
// deadline expiry every worker unwinds within one interval and the call
// returns an error wrapping context.Canceled or context.DeadlineExceeded,
// with Stats.Status recording the terminal state and the stats counters
// covering the work done up to the abort. A visitor returning false is a
// successful early stop (Stats.Status == StatusStopped, nil error).
func EnumerateContext(ctx context.Context, g *uncertain.Graph, alpha float64, visit Visitor, cfg Config) (Stats, error) {
	if err := Validate(g, alpha, cfg); err != nil {
		return Stats{}, err
	}
	ctl := NewRunControl(ctx, cfg.Budget)
	if ctl.Poll(0) { // fail fast on an already-dead context
		var stats Stats
		return stats, ctl.finish(&stats, false)
	}

	work := g
	var stats Stats
	if !cfg.SkipPrune {
		before := work.NumEdges()
		work = work.PruneAlpha(alpha)
		stats.PrunedEdges = before - work.NumEdges()
	}
	if cfg.MinSize >= 2 {
		before := work.NumEdges()
		filtered, ferr := sharedNeighborhoodFilter(work, cfg.MinSize)
		if ferr != nil {
			return stats, ferr
		}
		work = filtered
		stats.FilterRemoved = before - work.NumEdges()
	}

	// Renumber vertices; newToOld translates results back. An ordering
	// that resolves to the identity permutation — always for OrderNatural,
	// coincidentally for the others (e.g. degree order on an input already
	// numbered by degree) — skips both the relabel and the per-emission
	// sort, since original IDs then come out ascending by construction.
	newToOld, err := buildOrder(work, cfg.Ordering, cfg.Seed)
	if err != nil {
		return stats, err
	}
	identity := isIdentityOrder(newToOld)
	if !identity {
		relabeled, _, rerr := work.Relabel(newToOld)
		if rerr != nil {
			return stats, rerr
		}
		work = relabeled
	}

	// The bit-row index mirrors adjacency rows of the final working graph
	// (post-prune, post-filter, post-relabel), with ranks, for the probe
	// kernel; nil when the graph or policy rules it out. Its row storage is
	// pooled and returned when the run ends.
	bits := buildBitAdjacency(work, cfg.Intersect)
	defer bits.release()

	e := &enumerator{
		g:        work,
		alpha:    alpha,
		minSize:  cfg.MinSize,
		visit:    visit,
		newToOld: newToOld,
		identity: identity,
		checkInv: cfg.CheckInvariants,
		bits:     bits,
		stats:    &stats,
		ctl:      ctl,
		tick:     abortCheckInterval,
		arena:    checkoutArena(work.NumVertices()),
		emitBuf:  make([]int, 0, 64),
		cbuf:     make([]int32, 0, 128),
	}
	// The deferred release covers every exit — including cancel, budget,
	// limit, panic, and stall unwinds, which return through finish like a
	// completed run.
	defer e.releasePooled()
	defer ctl.ArmStall(cfg.StallTimeout)()
	// Containment boundary for the serial engine and the submitting
	// goroutine of the parallel one (pool workers have their own boundary
	// in the executor): a panic anywhere below terminates this run with
	// StatusPanicked instead of unwinding the caller — the deferred pool
	// releases above still run, so conservation holds.
	func() {
		defer func() {
			if v := recover(); v != nil {
				ctl.Abort(NewPanicError(v, debug.Stack()))
			}
		}()
		if cfg.Workers > 1 {
			e.runWorkStealing(executorFor(cfg), cfg.Workers, cfg.StealGranularity)
		} else {
			e.runSerial()
		}
	}()
	return stats, ctl.finish(&stats, e.stopped)
}

// executorFor resolves the executor a parallel run submits to: an explicit
// Config.Exec, or the process-wide shared pool.
func executorFor(cfg Config) *exec.Executor {
	if cfg.Exec != nil {
		return cfg.Exec
	}
	return exec.Default()
}

// Collect runs Enumerate and returns all cliques in canonical order (each
// sorted ascending, collection sorted lexicographically), with probabilities
// parallel to the cliques.
func Collect(g *uncertain.Graph, alpha float64) ([][]int, error) {
	cliques, _, err := CollectWith(g, alpha, Config{})
	return cliques, err
}

// CollectWith is Collect with explicit configuration. It returns the cliques
// in canonical order and the run's stats.
func CollectWith(g *uncertain.Graph, alpha float64, cfg Config) ([][]int, Stats, error) {
	return CollectContext(context.Background(), g, alpha, cfg)
}

// CollectContext is CollectWith under a context.
func CollectContext(ctx context.Context, g *uncertain.Graph, alpha float64, cfg Config) ([][]int, Stats, error) {
	var out [][]int
	stats, err := EnumerateContext(ctx, g, alpha, func(c []int, _ float64) bool {
		cp := make([]int, len(c))
		copy(cp, c)
		out = append(out, cp)
		return true
	}, cfg)
	if err != nil {
		return nil, stats, err
	}
	canonicalize(out)
	return out, stats, nil
}

// Count returns the number of α-maximal cliques without materializing them.
func Count(g *uncertain.Graph, alpha float64) (int64, error) {
	stats, err := Enumerate(g, alpha, nil)
	return stats.Emitted, err
}

func canonicalize(cliques [][]int) {
	for _, c := range cliques {
		slices.Sort(c)
	}
	slices.SortFunc(cliques, slices.Compare)
}
