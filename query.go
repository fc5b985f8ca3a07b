package mule

import (
	"context"
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"time"

	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/topk"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Clique is one α-maximal clique materialized by a Query: the vertex set in
// original IDs, sorted ascending, and its clique probability. Unlike the
// Visitor callback slice, Vertices is caller-owned and never reused.
type Clique struct {
	Vertices []int
	Prob     float64
}

// Query is a prepared enumeration of the α-maximal cliques of one graph at
// one threshold. Build it once with NewQuery and run it any number of ways:
// Run (callback), Collect (materialize), Count, TopK, Maximum, or Cliques
// (a range-over-func stream). Every run method takes a context.Context and
// honors cancellation and deadlines: the engines poll the context on a
// node-count interval, so a fired context unwinds serial and parallel
// searches alike within microseconds, returning an error that wraps
// context.Canceled or context.DeadlineExceeded.
//
// A Query is immutable after construction and safe for concurrent use; each
// run is independent.
type Query struct {
	p     prepared[Clique, Stats]
	g     *Graph
	alpha float64
	cfg   core.Config
}

// queryKind is a bitmask naming the query surfaces an Option may configure.
type queryKind uint8

const (
	kindClique queryKind = 1 << iota
	kindBiclique
	kindQuasi
	kindTruss
	kindCore
	kindDensest
	kindCluster
	kindAll = kindClique | kindBiclique | kindQuasi | kindTruss | kindCore | kindDensest | kindCluster
)

// kindName names a query kind for ErrConfig messages.
func kindName(k queryKind) string {
	switch k {
	case kindClique:
		return "clique"
	case kindBiclique:
		return "biclique"
	case kindQuasi:
		return "quasi-clique"
	case kindTruss:
		return "truss"
	case kindCore:
		return "core"
	case kindDensest:
		return "densest"
	case kindCluster:
		return "cluster"
	default:
		return "unknown"
	}
}

// queryOptions is the union of every knob an Option can set; each query
// constructor reads the fields that apply to it (the scope check guarantees
// the others stay zero).
type queryOptions struct {
	cfg        core.Config // clique engine knobs, incl. shared Budget and MinSize
	limit      int64
	gamma      float64       // quasi: density threshold γ
	maxSize    int           // quasi: search-depth cap
	minL, minR int           // biclique: per-side minima
	centers    int           // cluster: center count k
	ex         *Executor     // shared scheduling/admission domain (nil = default)
	exSet      bool          // WithExecutor was passed (distinguishes explicit nil)
	tenant     string        // admission-control tenant ID ("" = untenanted)
	tenantSet  bool          // WithTenant was passed (distinguishes explicit "")
	stall      time.Duration // stall-watchdog window (0 = disarmed)
	retry      RetryPolicy   // admission retry/backoff policy
	retrySet   bool          // WithRetry was passed

	shards        int                   // component sharding: WithShards value (0 = off)
	shardsSet     bool                  // WithShards/WithAutoShard was passed
	shardsAuto    bool                  // WithAutoShard was passed (resolve at run time)
	shardProgress func(done, total int) // per-component completion callback (sharded runs)
}

// Option configures a prepared query. The same Option type serves every
// query constructor — NewQuery, NewBicliqueQuery, NewQuasiQuery,
// NewTrussQuery, NewCoreQuery — and each option names the surfaces it
// applies to; passing an option to a constructor outside its scope is
// reported eagerly as a wrapped ErrConfig (a truss query with WithGamma is
// a programming error, not a silent no-op). Options are applied in order;
// invalid values surface as wrapped ErrConfig errors from the constructor,
// not from the option itself.
type Option struct {
	name  string
	scope queryKind
	apply func(*queryOptions)
}

// applyOptions runs opts for the given query kind, rejecting out-of-scope
// options with a wrapped ErrConfig.
func applyOptions(kind queryKind, opts []Option) (queryOptions, error) {
	var o queryOptions
	for _, opt := range opts {
		if opt.apply == nil {
			return o, fmt.Errorf("mule: zero Option value: %w", ErrConfig)
		}
		if opt.scope&kind == 0 {
			return o, fmt.Errorf("mule: option %s does not apply to %s queries: %w", opt.name, kindName(kind), ErrConfig)
		}
		opt.apply(&o)
	}
	return o, nil
}

// WithMinSize restricts the enumeration to results with at least t
// vertices. For clique queries this is LARGE-MULE (Algorithm 5, with the
// shared-neighborhood prefilter) and values below 2 are the unrestricted
// default; for quasi-clique queries it is the smallest reported set (at
// least 2; the default is 3, the smallest size where a quasi-clique
// differs from an edge).
func WithMinSize(t int) Option {
	return Option{"WithMinSize", kindClique | kindQuasi, func(o *queryOptions) { o.cfg.MinSize = t }}
}

// WithOrdering selects the vertex numbering used by the search (the output
// set is always the same; the tree shape and therefore the wall-clock may
// differ). The default is OrderNatural, the paper's setting.
func WithOrdering(ord Ordering) Option {
	return Option{"WithOrdering", kindClique, func(o *queryOptions) { o.cfg.Ordering = ord }}
}

// WithSeed feeds OrderRandom; ignored by the other orderings.
func WithSeed(seed int64) Option {
	return Option{"WithSeed", kindClique, func(o *queryOptions) { o.cfg.Seed = seed }}
}

// WithWorkers enables the parallel work-stealing search when w > 1. The
// default is a serial search.
//
// Since the shared executor, w is the query's parallelism cap — at most w
// of the query's frames execute concurrently on the executor's worker pool
// — not a goroutine count; the pool is sized once per process (or per
// NewExecutor). Results are identical for every w. So are the stats of a
// complete run, Steals and Splits aside, except that a parallel run may
// count more BitsetOps at WithMinSize ≥ 3 and more WitnessOps at
// WithMinSize ≥ 4.
func WithWorkers(w int) Option {
	return Option{"WithWorkers", kindClique, func(o *queryOptions) { o.cfg.Workers = w }}
}

// WithStealGranularity sets the minimum number of candidate vertices a
// subtree must have before the work-stealing engine publishes it as a
// stealable frame; 0 selects the default (16).
func WithStealGranularity(k int) Option {
	return Option{"WithStealGranularity", kindClique, func(o *queryOptions) { o.cfg.StealGranularity = k }}
}

// WithLimit stops the enumeration after n results have been delivered.
// Reaching the limit is a successful run (nil error, Stats.Status ==
// StatusStopped); it is the streaming analogue of SQL's LIMIT, useful for
// sampling and pagination-style probes. It applies to the Run, Collect,
// Count, and Stream methods of every query kind; Query.TopK and
// Query.Maximum ignore it — their answers are only correct over the full
// family.
func WithLimit(n int64) Option {
	return Option{"WithLimit", kindAll, func(o *queryOptions) { o.limit = n }}
}

// WithBudget bounds the run to at most n units of search work; a run that
// exhausts the budget aborts with an error wrapping ErrBudget. The unit is
// the engine's dominant cost: search-tree node expansions for clique,
// biclique, and quasi-clique queries, support-probability evaluations for
// truss queries, η-degree recomputations for core queries, peel steps for
// densest queries, center sweeps for cluster queries. The budget is
// charged in batches, so runs can overshoot by a few thousand units. Use it
// to cap worst-case work on untrusted inputs, where the output count — and
// hence any time bound — is exponential in the worst case.
func WithBudget(n int64) Option {
	return Option{"WithBudget", kindAll, func(o *queryOptions) { o.cfg.Budget = n }}
}

// WithStallTimeout arms the stall watchdog: a run that makes no search
// progress for d — no run-control poll and no result emission — is aborted
// with an error wrapping ErrStalled and Stats.Status == StatusStalled.
// Unlike a context deadline, which fires on wall clock no matter how much
// work is getting done, the watchdog only fires on a run that has genuinely
// wedged (a visitor callback blocked forever, a starved worker). The engines
// cannot preempt a visitor that never returns — the abort latches and the
// run unwinds at the next cooperative point. d = 0 (the default) disarms.
func WithStallTimeout(d time.Duration) Option {
	return Option{"WithStallTimeout", kindAll, func(o *queryOptions) {
		o.stall = d
		o.cfg.StallTimeout = d
	}}
}

// WithIntersect selects which adjacency rows the intersection kernel
// mirrors as rank-indexed bit rows and probes in O(1) per set element:
// IntersectAdaptive (the default — rows of at least 64 neighbours;
// merge/gallop on the others), or the forced IntersectSorted (none) /
// IntersectBitset (all) modes for equivalence testing and ablation
// benchmarks. The enumerated clique set is identical under every mode.
func WithIntersect(m IntersectMode) Option {
	return Option{"WithIntersect", kindClique, func(o *queryOptions) { o.cfg.Intersect = m }}
}

// WithGamma sets a quasi-clique query's density threshold γ: every member
// of a reported set has expected degree into the set at least γ·(|set|−1).
// The mining algorithm requires γ ∈ [0.5, 1] (its structural prunes rely on
// the diameter-≤-2 property that holds from one half up); the constructor
// rejects anything else with a wrapped ErrGammaRange. There is no default —
// a quasi-clique query without WithGamma fails eagerly.
func WithGamma(gamma float64) Option {
	return Option{"WithGamma", kindQuasi, func(o *queryOptions) { o.gamma = gamma }}
}

// WithMaxSize caps a quasi-clique query's search depth: sets larger than n
// are neither reported nor used to disqualify smaller sets, so the output
// is "maximal among expected γ-quasi-cliques of size ≤ n".
func WithMaxSize(n int) Option {
	return Option{"WithMaxSize", kindQuasi, func(o *queryOptions) { o.maxSize = n }}
}

// WithCenters sets a cluster query's center count k: the partition has
// exactly k clusters, each around one center vertex. It is required and
// must lie in [1, NumVertices]; anything else — including the zero value
// from omitting the option — is rejected by NewClusterQuery with a wrapped
// ErrCentersRange.
func WithCenters(k int) Option {
	return Option{"WithCenters", kindCluster, func(o *queryOptions) { o.centers = k }}
}

// WithSides restricts a biclique query to α-maximal bicliques with at least
// minL left and minR right vertices, pruning subtrees that cannot reach the
// requested shape (the LARGE-MULE analogue). Values ≤ 1 mean "non-empty",
// which every biclique already satisfies.
func WithSides(minL, minR int) Option {
	return Option{"WithSides", kindBiclique, func(o *queryOptions) { o.minL, o.minR = minL, minR }}
}

// NewQuery prepares an enumeration of the α-maximal cliques of g. It
// validates eagerly: a nil graph, an alpha outside (0,1], or an invalid
// option combination is reported here (wrapping ErrNilGraph, ErrAlphaRange,
// or ErrConfig), so every run method on the returned Query starts from a
// well-formed question.
func NewQuery(g *Graph, alpha float64, opts ...Option) (*Query, error) {
	o, b, err := prepare(kindClique, opts)
	if err != nil {
		return nil, err
	}
	cfg := o.cfg
	// The parallel engines submit their frames to the query's executor; the
	// serial path never touches one.
	cfg.Exec = b.ten.engineExec()
	if err := core.Validate(g, alpha, cfg); err != nil {
		return nil, err
	}
	q := &Query{g: g, alpha: alpha, cfg: cfg}
	q.p = prepared[Clique, Stats]{base: b, miner: miner[Clique, Stats]{
		mine: func(ctx context.Context, visit func(Clique) bool) (Stats, error) {
			return core.EnumerateContext(ctx, g, alpha, engineVisitor(visit), cfg)
		},
		status:  func(s *Stats) *RunStatus { return &s.Status },
		emitted: func(s *Stats) *int64 { return &s.Emitted },
		clone: func(c Clique) Clique {
			return Clique{Vertices: append([]int(nil), c.Vertices...), Prob: c.Prob}
		},
		order: func(out []Clique) {
			sort.Slice(out, func(i, j int) bool { return lexLess(out[i].Vertices, out[j].Vertices) })
		},
		parallel: cfg.Workers > 1,
		components: eachComponent(g.ShardByComponent, func(sh uncertain.Shard) componentRun[Clique, Stats] {
			return func(ctx context.Context, budget int64, visit func(Clique) bool) (Stats, error) {
				cfg := cfg
				cfg.Budget = budget
				return core.EnumerateContext(ctx, sh.G, alpha, engineVisitor(mapVisit(visit, func(c Clique) Clique {
					return Clique{Vertices: toParent(c.Vertices, sh.NewToOld), Prob: c.Prob}
				})), cfg)
			}
		}),
		numComponents: g.NumComponents,
		fold:          core.MergeStats,
		work:          func(s Stats) int64 { return s.Calls },
	}}
	return q, nil
}

// engineVisitor adapts a chassis visitor to the clique engines' callback
// (the vertex slice is the engine's, reused after the call); nil stays nil.
func engineVisitor(visit func(Clique) bool) Visitor {
	if visit == nil {
		return nil
	}
	return func(c []int, p float64) bool { return visit(Clique{Vertices: c, Prob: p}) }
}

// cliqueVisitor adapts a caller's Visitor to the chassis; nil stays nil.
func cliqueVisitor(visit Visitor) func(Clique) bool {
	if visit == nil {
		return nil
	}
	return func(c Clique) bool { return visit(c.Vertices, c.Prob) }
}

// Run enumerates the query's cliques, invoking visit for each (visit may be
// nil to only count; see Stats.Emitted). It returns an error wrapping
// context.Canceled or context.DeadlineExceeded if ctx fires mid-run, an
// error wrapping ErrBudget if a WithBudget bound runs out, and an error
// wrapping ErrStopped if visit returned false — so err == nil means the
// enumeration ran to completion (or to its WithLimit bound). In every
// abnormal case the returned Stats are valid for the work done up to the
// stop, with Stats.Status recording the terminal state.
func (q *Query) Run(ctx context.Context, visit Visitor) (Stats, error) {
	return q.p.Run(ctx, cliqueVisitor(visit))
}

// Collect materializes the query's cliques in canonical order: each vertex
// set sorted ascending, cliques sorted lexicographically.
func (q *Query) Collect(ctx context.Context) ([]Clique, error) { return q.p.Collect(ctx) }

// Count returns the number of cliques the query enumerates, without
// materializing them.
func (q *Query) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// TopK returns the k best cliques of the query under the given criterion
// (ByProb: highest clique probability first; BySize: largest first), with
// deterministic tie-breaking. It enumerates the full α-maximal family once
// through a bounded min-heap — the threshold cannot be raised to the
// running k-th best, because α-maximality itself is defined relative to α.
// A WithLimit bound is ignored for the same reason: the best-of-a-prefix
// is not the best of the family. WithBudget still applies (an exhausted
// budget is an error, not a silently truncated answer).
func (q *Query) TopK(ctx context.Context, k int, by TopKCriterion) ([]ScoredClique, error) {
	col, err := topk.NewCollector(k, by)
	if err != nil {
		return nil, err
	}
	if _, err := q.p.unlimited().Run(ctx, cliqueVisitor(col.Visit)); err != nil {
		return nil, err
	}
	return col.Drain(), nil
}

// Maximum returns one maximum-cardinality α-clique of the query's graph and
// its probability, via a branch-and-bound variant of the MULE search. It
// honors ctx and WithBudget like every other run method; the parallel,
// ordering, and WithLimit options do not apply to this search.
func (q *Query) Maximum(ctx context.Context) ([]int, float64, error) {
	var c []int
	var prob float64
	err := q.p.admitted(ctx, func() (err error) {
		c, prob, err = core.MaximumCliqueBudget(ctx, q.g, q.alpha, q.cfg.Budget)
		return err
	})
	return c, prob, err
}

// Cliques returns the query's cliques as a Go 1.23 range-over-func stream:
//
//	for c, err := range q.Cliques(ctx) {
//		if err != nil {
//			return err // ctx fired or the budget ran out
//		}
//		use(c)
//	}
//
// Cliques are yielded as the engines find them (engine order, not canonical
// order), each with a nil error; if the run aborts, one final (Clique{},
// err) pair carries the wrapped cause and the stream ends. Breaking out of
// the loop stops the underlying enumeration — serial runs stop on the spot,
// parallel runs within one poll interval — and never leaks goroutines.
func (q *Query) Cliques(ctx context.Context) iter.Seq2[Clique, error] { return q.p.Stream(ctx) }

// panicToError converts a value recovered at a query-layer containment
// boundary into the wrapped *PanicError the clique engines produce at
// theirs, so every surface reports panics identically. A re-thrown
// *PanicError (already converted below) passes through unchanged.
func panicToError(v any) error {
	if pe, ok := v.(*PanicError); ok {
		return fmt.Errorf("mule: run aborted: %w", pe)
	}
	return fmt.Errorf("mule: run aborted: %w", core.NewPanicError(v, debug.Stack()))
}

// lexLess orders vertex sets lexicographically (canonical collection
// order).
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
