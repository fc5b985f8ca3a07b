package mule

import (
	"context"
	"iter"
	"sort"

	"github.com/uncertain-graphs/mule/internal/ubiclique"
	"github.com/uncertain-graphs/mule/internal/ucore"
	"github.com/uncertain-graphs/mule/internal/uncertain"
	"github.com/uncertain-graphs/mule/internal/uquasi"
	"github.com/uncertain-graphs/mule/internal/utruss"
)

// This file gives every §6 dense-substructure miner the same prepared-query
// ergonomics as NewQuery: an immutable, concurrency-safe query value
// validated eagerly against the shared typed sentinels, context-aware run
// methods (Run / Collect / Count plus per-miner extras), and a Stream
// range-over-func with the same break-stops-the-engine, no-goroutine-leak
// contract as Query.Cliques. Each type describes its engine to the query
// chassis (chassis.go) and delegates its run methods to it. The deprecated
// flat functions in extensions.go funnel through these constructors, so no
// entry point can run a configuration the query surface would reject.

// --- Biclique queries ---

// BicliqueQuery is a prepared enumeration of the α-maximal bicliques of one
// uncertain bipartite graph at one threshold. Build it with
// NewBicliqueQuery; it is immutable after construction and safe for
// concurrent use, and every run method honors its context exactly like a
// clique Query (the search polls on a node-count interval).
type BicliqueQuery struct {
	p prepared[Biclique, BicliqueStats]
}

// NewBicliqueQuery prepares an enumeration of the α-maximal bicliques of g.
// It validates eagerly: a nil graph, an alpha outside (0,1], or an invalid
// option combination is reported here (wrapping ErrNilGraph, ErrAlphaRange,
// or ErrConfig). Applicable options: WithSides, WithLimit, WithBudget.
func NewBicliqueQuery(g *Bipartite, alpha float64, opts ...Option) (*BicliqueQuery, error) {
	o, b, err := prepare(kindBiclique, opts)
	if err != nil {
		return nil, err
	}
	return newBicliqueQuery(b, g, alpha, ubiclique.Config{MinLeft: o.minL, MinRight: o.minR, Budget: o.cfg.Budget, Stall: o.stall})
}

// newBicliqueQuery is the single constructor behind NewBicliqueQuery and
// the deprecated wrappers.
func newBicliqueQuery(b base, g *Bipartite, alpha float64, cfg ubiclique.Config) (*BicliqueQuery, error) {
	if err := ubiclique.Validate(g, alpha, cfg); err != nil {
		return nil, err
	}
	b.budget = cfg.Budget
	return &BicliqueQuery{prepared[Biclique, BicliqueStats]{base: b, miner: miner[Biclique, BicliqueStats]{
		mine: func(ctx context.Context, visit func(Biclique) bool) (BicliqueStats, error) {
			return ubiclique.EnumerateContext(ctx, g, alpha, bicliqueEngineVisitor(visit), cfg)
		},
		status:  func(s *BicliqueStats) *RunStatus { return &s.Status },
		emitted: func(s *BicliqueStats) *int64 { return &s.Emitted },
		clone: func(bc Biclique) Biclique {
			return Biclique{Left: append([]int(nil), bc.Left...), Right: append([]int(nil), bc.Right...), Prob: bc.Prob}
		},
		order: ubiclique.SortBicliques,
		components: eachComponent(g.ShardByComponent, func(sh ubiclique.Shard) componentRun[Biclique, BicliqueStats] {
			return func(ctx context.Context, budget int64, visit func(Biclique) bool) (BicliqueStats, error) {
				cfg := cfg
				cfg.Budget = budget
				return ubiclique.EnumerateContext(ctx, sh.G, alpha, bicliqueEngineVisitor(mapVisit(visit, func(bc Biclique) Biclique {
					return Biclique{Left: toParent(bc.Left, sh.LeftNewToOld), Right: toParent(bc.Right, sh.RightNewToOld), Prob: bc.Prob}
				})), cfg)
			}
		}),
		numComponents: g.NumComponents,
		fold: func(agg *BicliqueStats, s BicliqueStats) {
			agg.Calls += s.Calls
			agg.Emitted += s.Emitted
			agg.Cut += s.Cut
			agg.CandidateOps += s.CandidateOps
			agg.WitnessOps += s.WitnessOps
			agg.PrunedEdges += s.PrunedEdges
			agg.MaxLeft = max(agg.MaxLeft, s.MaxLeft)
			agg.MaxRight = max(agg.MaxRight, s.MaxRight)
		},
		work: func(s BicliqueStats) int64 { return s.Calls },
	}}}, nil
}

// bicliqueEngineVisitor adapts a chassis visitor to the biclique engine's
// callback (the sides are the engine's, reused after the call); nil stays
// nil.
func bicliqueEngineVisitor(visit func(Biclique) bool) BicliqueVisitor {
	if visit == nil {
		return nil
	}
	return func(l, r []int, p float64) bool { return visit(Biclique{Left: l, Right: r, Prob: p}) }
}

// bicliqueVisitor adapts a caller's BicliqueVisitor to the chassis; nil
// stays nil.
func bicliqueVisitor(visit BicliqueVisitor) func(Biclique) bool {
	if visit == nil {
		return nil
	}
	return func(bc Biclique) bool { return visit(bc.Left, bc.Right, bc.Prob) }
}

// Run enumerates the query's bicliques, invoking visit for each (visit may
// be nil to only count; see BicliqueStats.Emitted). Like Query.Run it
// returns an error wrapping context.Canceled / context.DeadlineExceeded on
// a fired context, ErrBudget on an exhausted WithBudget bound, and
// ErrStopped when visit returned false — err == nil means the enumeration
// ran to completion or to its WithLimit bound, with Stats.Status recording
// the terminal state either way.
func (q *BicliqueQuery) Run(ctx context.Context, visit BicliqueVisitor) (BicliqueStats, error) {
	return q.p.Run(ctx, bicliqueVisitor(visit))
}

// Collect materializes the query's bicliques in canonical order (each side
// sorted ascending; bicliques sorted by left side, ties by right).
func (q *BicliqueQuery) Collect(ctx context.Context) ([]Biclique, error) { return q.p.Collect(ctx) }

// Count returns the number of bicliques the query enumerates, without
// materializing them.
func (q *BicliqueQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the query's bicliques as a range-over-func stream:
//
//	for b, err := range q.Stream(ctx) {
//		if err != nil {
//			return err // ctx fired or the budget ran out
//		}
//		use(b)
//	}
//
// Bicliques are yielded as the search finds them, each with a nil error; if
// the run aborts, one final (Biclique{}, err) pair carries the wrapped
// cause and the stream ends. Breaking out of the loop stops the underlying
// enumeration on the spot and never leaks goroutines (the search is
// single-threaded, so nothing outlives the loop).
func (q *BicliqueQuery) Stream(ctx context.Context) iter.Seq2[Biclique, error] {
	return q.p.Stream(ctx)
}

// --- Quasi-clique queries ---

// QuasiVisitor receives each maximal expected γ-quasi-clique as a sorted
// vertex slice (caller-owned); returning false stops the report loop.
type QuasiVisitor = uquasi.Visitor

// QuasiQuery is a prepared mining run for the maximal expected
// γ-quasi-cliques of one uncertain graph. Build it with NewQuasiQuery; it
// is immutable after construction and safe for concurrent use.
//
// Quasi-cliques are not hereditary, so maximality needs global knowledge:
// the search must complete before anything is reported. Run, Stream, and
// the WithLimit bound therefore apply to the report loop over the finished
// result — cancellation and WithBudget still abort the mining itself
// mid-search.
type QuasiQuery struct {
	p prepared[[]int, QuasiStats]
}

// NewQuasiQuery prepares a mining run for the maximal expected
// γ-quasi-cliques of g. The density threshold γ comes from WithGamma and is
// required: the mining algorithm supports γ ∈ [0.5, 1], and anything else —
// including the zero value from omitting WithGamma — is rejected here with
// a wrapped ErrGammaRange. Applicable options: WithGamma, WithMinSize,
// WithMaxSize, WithLimit, WithBudget.
func NewQuasiQuery(g *Graph, opts ...Option) (*QuasiQuery, error) {
	o, b, err := prepare(kindQuasi, opts)
	if err != nil {
		return nil, err
	}
	return newQuasiQuery(b, g, uquasi.Config{Gamma: o.gamma, MinSize: o.cfg.MinSize, MaxSize: o.maxSize, Budget: o.cfg.Budget, Stall: o.stall})
}

// newQuasiQuery is the single constructor behind NewQuasiQuery and the
// deprecated wrappers.
func newQuasiQuery(b base, g *Graph, cfg uquasi.Config) (*QuasiQuery, error) {
	if err := uquasi.Validate(g, cfg); err != nil {
		return nil, err
	}
	b.budget = cfg.Budget
	return &QuasiQuery{prepared[[]int, QuasiStats]{base: b, miner: miner[[]int, QuasiStats]{
		mine: func(ctx context.Context, visit func([]int) bool) (QuasiStats, error) {
			sets, s, err := uquasi.CollectContext(ctx, g, cfg)
			if err == nil {
				var stopped bool
				if s.Emitted, stopped = report(sets, visit); stopped {
					s.Status = StatusStopped
				}
			}
			return s, err
		},
		status:  func(s *QuasiStats) *RunStatus { return &s.Status },
		emitted: func(s *QuasiStats) *int64 { return &s.Emitted },
		// Components are independent because γ ≥ ½ forces a quasi-clique's
		// diameter ≤ 2, hence connectivity.
		components: eachComponent(g.ShardByComponent, func(sh uncertain.Shard) componentRun[[]int, QuasiStats] {
			return func(ctx context.Context, budget int64, visit func([]int) bool) (QuasiStats, error) {
				cfg := cfg
				cfg.Budget = budget
				sets, s, err := uquasi.CollectContext(ctx, sh.G, cfg)
				for _, set := range sets {
					for i, v := range set {
						set[i] = sh.NewToOld[v]
					}
					visit(set)
				}
				return s, err
			}
		}),
		numComponents: g.NumComponents,
		fold: func(agg *QuasiStats, s QuasiStats) {
			agg.Calls += s.Calls
			agg.Found += s.Found
			agg.Pruned += s.Pruned
			agg.Universe += s.Universe
			agg.FilterOps += s.FilterOps
			agg.MaxSize = max(agg.MaxSize, s.MaxSize)
		},
		work: func(s QuasiStats) int64 { return s.Calls },
		// Per-component sets are each in canonical order, but the report
		// loop's contract is global lexicographic order.
		finish: func(_ context.Context, all [][]int, _ *QuasiStats) error {
			sort.Slice(all, func(i, j int) bool { return lexLess(all[i], all[j]) })
			return nil
		},
	}}}, nil
}

// Run mines the query's quasi-cliques and reports each to visit (visit may
// be nil to only count). The error contract matches Query.Run: wrapped
// context/budget causes for aborts, ErrStopped when visit returned false,
// nil for complete runs and WithLimit truncation.
func (q *QuasiQuery) Run(ctx context.Context, visit QuasiVisitor) (QuasiStats, error) {
	return q.p.Run(ctx, visit)
}

// Collect returns the maximal expected γ-quasi-cliques in canonical order
// (each sorted ascending; sets sorted lexicographically).
func (q *QuasiQuery) Collect(ctx context.Context) ([][]int, error) { return q.p.Collect(ctx) }

// Count returns the number of maximal expected γ-quasi-cliques, without
// materializing them (subject to WithLimit, like every run method).
func (q *QuasiQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the query's quasi-cliques as a range-over-func stream with
// the same contract as Query.Cliques: each set is yielded with a nil error,
// an aborted run ends with one final (nil, err) pair, and breaking the loop
// stops the report immediately with nothing leaked. Because maximality
// needs global knowledge, the mining runs to completion when the first
// element is requested; sets then stream in canonical order.
func (q *QuasiQuery) Stream(ctx context.Context) iter.Seq2[[]int, error] { return q.p.Stream(ctx) }

// --- Truss queries ---

// TrussVisitor receives one edge with its final η-truss number, in peel
// order; returning false stops the decomposition early.
type TrussVisitor = utruss.Visitor

// TrussStats reports the work performed by a truss computation.
type TrussStats = utruss.Stats

// TrussQuery is a prepared (k,η)-truss decomposition of one uncertain
// graph at one confidence threshold η. Build it with NewTrussQuery; it is
// immutable after construction and safe for concurrent use. The peeling
// polls its context between support-probability evaluations, so
// cancellation, deadlines, and WithBudget bounds abort mid-decomposition.
type TrussQuery struct {
	p   prepared[EdgeTruss, TrussStats]
	g   *Graph
	eta float64
	cfg utruss.Config
}

// NewTrussQuery prepares the η-truss decomposition of g. It validates
// eagerly: a nil graph wraps ErrNilGraph, an eta outside (0,1] wraps
// ErrEtaRange. Applicable options: WithLimit, WithBudget.
func NewTrussQuery(g *Graph, eta float64, opts ...Option) (*TrussQuery, error) {
	o, b, err := prepare(kindTruss, opts)
	if err != nil {
		return nil, err
	}
	return newTrussQuery(b, g, eta, utruss.Config{Budget: o.cfg.Budget, Stall: o.stall})
}

// newTrussQuery is the single constructor behind NewTrussQuery and the
// deprecated wrappers.
func newTrussQuery(b base, g *Graph, eta float64, cfg utruss.Config) (*TrussQuery, error) {
	if err := utruss.Validate(g, eta, cfg); err != nil {
		return nil, err
	}
	b.budget = cfg.Budget
	return &TrussQuery{g: g, eta: eta, cfg: cfg, p: prepared[EdgeTruss, TrussStats]{base: b, miner: miner[EdgeTruss, TrussStats]{
		mine: func(ctx context.Context, visit func(EdgeTruss) bool) (TrussStats, error) {
			return utruss.RunContext(ctx, g, eta, cfg, visit)
		},
		status:  func(s *TrussStats) *RunStatus { return &s.Status },
		emitted: func(s *TrussStats) *int64 { return &s.Emitted },
		order: func(out []EdgeTruss) {
			sort.Slice(out, func(i, j int) bool {
				if out[i].U != out[j].U {
					return out[i].U < out[j].U
				}
				return out[i].V < out[j].V
			})
		},
		// Components peel independently: stream order becomes per-component
		// peel order, but the edge→truss assignment is unchanged.
		components: eachComponent(g.ShardByComponent, func(sh uncertain.Shard) componentRun[EdgeTruss, TrussStats] {
			return func(ctx context.Context, budget int64, visit func(EdgeTruss) bool) (TrussStats, error) {
				cfg := cfg
				cfg.Budget = budget
				return utruss.RunContext(ctx, sh.G, eta, cfg, mapVisit(visit, func(e EdgeTruss) EdgeTruss {
					// The remap is monotone, so U < V survives it.
					return EdgeTruss{U: sh.NewToOld[e.U], V: sh.NewToOld[e.V], Truss: e.Truss}
				}))
			}
		}),
		numComponents: g.NumComponents,
		fold: func(agg *TrussStats, s TrussStats) {
			agg.Checks += s.Checks
			agg.Removed += s.Removed
			agg.Emitted += s.Emitted
			agg.MaxTruss = max(agg.MaxTruss, s.MaxTruss)
		},
		work: func(s TrussStats) int64 { return s.Checks },
	}}}, nil
}

// Run performs the decomposition, streaming every edge with its final
// η-truss number to visit in peel order (visit may be nil to only count;
// see TrussStats.Emitted). The error contract matches Query.Run.
func (q *TrussQuery) Run(ctx context.Context, visit TrussVisitor) (TrussStats, error) {
	return q.p.Run(ctx, visit)
}

// Collect returns the full decomposition — every edge with its η-truss
// number — sorted by (U, V).
func (q *TrussQuery) Collect(ctx context.Context) ([]EdgeTruss, error) { return q.p.Collect(ctx) }

// Count returns the number of edges the decomposition assigns a truss
// number (the graph's edge count on a complete run, fewer under WithLimit).
func (q *TrussQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the decomposition as a range-over-func stream in peel
// order, with the same contract as Query.Cliques: each edge is yielded with
// a nil error, an aborted run ends with one final (EdgeTruss{}, err) pair,
// and breaking the loop stops the peeling on the spot with nothing leaked.
func (q *TrussQuery) Stream(ctx context.Context) iter.Seq2[EdgeTruss, error] {
	return q.p.Stream(ctx)
}

// Truss returns the (k,η)-truss of the query's graph: the unique maximal
// subgraph whose every edge has probability ≥ η of being supported by at
// least k−2 triangles within the subgraph. k below 2 wraps ErrKRange. The
// result preserves the graph's vertex set; only edges are removed.
// WithLimit does not apply (the truss is one subgraph, not a stream).
func (q *TrussQuery) Truss(ctx context.Context, k int) (tr *Graph, err error) {
	err = q.p.admitted(ctx, func() (err error) {
		tr, _, err = utruss.TrussContext(ctx, q.g, k, q.eta, q.cfg)
		return err
	})
	return tr, err
}

// MaxTruss returns the largest k for which the (k,η)-truss is non-empty,
// or 0 for an edgeless graph.
func (q *TrussQuery) MaxTruss(ctx context.Context) (int, error) {
	stats, err := q.p.unlimited().Run(ctx, nil)
	if err != nil {
		return 0, err
	}
	return stats.MaxTruss, nil
}

// --- Core queries ---

// CoreVisitor receives one vertex with its final η-core number, in peel
// order; returning false stops the decomposition early.
type CoreVisitor = ucore.Visitor

// CoreStats reports the work performed by a core decomposition run.
type CoreStats = ucore.Stats

// VertexCore reports the η-core number of one vertex.
type VertexCore = ucore.VertexCore

// CoreQuery is a prepared (k,η)-core decomposition of one uncertain graph
// at one confidence threshold η. Build it with NewCoreQuery; it is
// immutable after construction and safe for concurrent use. The min-peeling
// polls its context between η-degree recomputations, so cancellation,
// deadlines, and WithBudget bounds abort mid-decomposition.
type CoreQuery struct {
	p   prepared[VertexCore, CoreStats]
	g   *Graph
	eta float64
	cfg ucore.Config
}

// NewCoreQuery prepares the η-core decomposition of g. It validates
// eagerly: a nil graph wraps ErrNilGraph, an eta outside (0,1] wraps
// ErrEtaRange. Applicable options: WithLimit, WithBudget.
func NewCoreQuery(g *Graph, eta float64, opts ...Option) (*CoreQuery, error) {
	o, b, err := prepare(kindCore, opts)
	if err != nil {
		return nil, err
	}
	return newCoreQuery(b, g, eta, ucore.Config{Budget: o.cfg.Budget, Stall: o.stall})
}

// newCoreQuery is the single constructor behind NewCoreQuery and the
// deprecated wrappers.
func newCoreQuery(b base, g *Graph, eta float64, cfg ucore.Config) (*CoreQuery, error) {
	if err := ucore.Validate(g, eta, cfg); err != nil {
		return nil, err
	}
	b.budget = cfg.Budget
	return &CoreQuery{g: g, eta: eta, cfg: cfg, p: prepared[VertexCore, CoreStats]{base: b, miner: miner[VertexCore, CoreStats]{
		mine: func(ctx context.Context, visit func(VertexCore) bool) (CoreStats, error) {
			return ucore.RunContext(ctx, g, eta, cfg, visit)
		},
		status:  func(s *CoreStats) *RunStatus { return &s.Status },
		emitted: func(s *CoreStats) *int64 { return &s.Emitted },
		order: func(out []VertexCore) {
			sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
		},
		// Like trusses, only stream order changes under sharding, never the
		// vertex→core assignment or the folded degeneracy.
		components: eachComponent(g.ShardByComponent, func(sh uncertain.Shard) componentRun[VertexCore, CoreStats] {
			return func(ctx context.Context, budget int64, visit func(VertexCore) bool) (CoreStats, error) {
				cfg := cfg
				cfg.Budget = budget
				return ucore.RunContext(ctx, sh.G, eta, cfg, mapVisit(visit, func(vc VertexCore) VertexCore {
					return VertexCore{V: sh.NewToOld[vc.V], Core: vc.Core}
				}))
			}
		}),
		numComponents: g.NumComponents,
		fold: func(agg *CoreStats, s CoreStats) {
			agg.Recomputes += s.Recomputes
			agg.Emitted += s.Emitted
			agg.Degeneracy = max(agg.Degeneracy, s.Degeneracy)
		},
		work: func(s CoreStats) int64 { return s.Recomputes },
	}}}, nil
}

// Run performs the decomposition, streaming every vertex with its final
// η-core number to visit in peel order (visit may be nil to only count;
// see CoreStats.Emitted). The error contract matches Query.Run.
func (q *CoreQuery) Run(ctx context.Context, visit CoreVisitor) (CoreStats, error) {
	return q.p.Run(ctx, visit)
}

// Collect returns the full decomposition — every vertex with its η-core
// number — sorted by vertex ID.
func (q *CoreQuery) Collect(ctx context.Context) ([]VertexCore, error) { return q.p.Collect(ctx) }

// Count returns the number of vertices the decomposition assigns a core
// number (the graph's vertex count on a complete run, fewer under
// WithLimit).
func (q *CoreQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the decomposition as a range-over-func stream in peel
// order (non-decreasing core number), with the same contract as
// Query.Cliques: each vertex is yielded with a nil error, an aborted run
// ends with one final (VertexCore{}, err) pair, and breaking the loop stops
// the peeling on the spot with nothing leaked.
func (q *CoreQuery) Stream(ctx context.Context) iter.Seq2[VertexCore, error] {
	return q.p.Stream(ctx)
}

// Decompose returns the decomposition in its classical form: per-vertex
// core numbers, the degeneracy, and the peel order. WithLimit does not
// apply — the arrays are only meaningful complete.
func (q *CoreQuery) Decompose(ctx context.Context) (dec CoreDecomposition, err error) {
	err = q.p.admitted(ctx, func() (err error) {
		dec, _, err = ucore.DecomposeContext(ctx, q.g, q.eta, q.cfg)
		return err
	})
	return dec, err
}

// Core returns the vertices of the (k,η)-core: the maximal induced
// subgraph where every vertex keeps η-degree ≥ k within it. Negative k
// wraps ErrKRange. WithLimit does not apply.
func (q *CoreQuery) Core(ctx context.Context, k int) (verts []int, err error) {
	err = q.p.admitted(ctx, func() (err error) {
		verts, _, err = ucore.CoreContext(ctx, q.g, k, q.eta, q.cfg)
		return err
	})
	return verts, err
}
