package mule

import (
	"context"
	"iter"

	"github.com/uncertain-graphs/mule/internal/udensest"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// DenseSubgraph is one scored member of a densest query's candidate family:
// a vertex set (sorted ascending, caller-owned), its expected density (sum
// of internal edge probabilities over the vertex count), and the
// probability — under the independent-edge model — that its realized
// internal edge count reaches ⌈d̂·|S|⌉ edges, where d̂ is the family's best
// expected density. The head of a Collect (or the first Stream element) is
// the most probable densest subgraph.
//
// The probability comes from a float64 Poisson-binomial DP that flushes
// entries below 2⁻¹⁰²², the smallest normal float64, to zero at the ends
// of its band. With m the candidate's internal edge count, it differs from
// the exact tail by a relative rounding error of order m·2⁻⁵³ plus at most
// (m+1)·2⁻¹⁰²² of flushed mass: a tail far above (m+1)·2⁻¹⁰²² keeps its
// relative precision, and one below it may read 0.
type DenseSubgraph = udensest.Candidate

// DensestVisitor receives one scored candidate at a time, best first;
// returning false stops the report loop.
type DensestVisitor = udensest.Visitor

// DensestStats reports the work performed by a densest-subgraph run.
type DensestStats = udensest.Stats

// DensestQuery is a prepared most-probable densest-subgraph mining run on
// one uncertain graph, following Saha et al. (arXiv 2212.08820): a greedy
// min-expected-degree peeling builds the candidate prefix family per
// support component (the family's best member 2-approximates the maximum
// expected density), then every candidate gets a Poisson-binomial
// probability score, within (m+1)·2⁻¹⁰²² of the exact tail up to float
// rounding, m the candidate's internal edge count (see DenseSubgraph).
// Build it with NewDensestQuery; it is immutable after construction and
// safe for concurrent use.
//
// Like quasi-clique mining, the answer needs global knowledge (the score
// threshold is a whole-family property), so the mining runs to completion
// before anything is reported; Run, Stream, and the WithLimit bound apply
// to the report loop over the finished, canonically ordered family —
// cancellation and WithBudget still abort the mining itself mid-peel.
type DensestQuery struct {
	p prepared[DenseSubgraph, DensestStats]
}

// NewDensestQuery prepares a most-probable densest-subgraph mining run on
// g. It validates eagerly: a nil graph wraps ErrNilGraph, an invalid option
// combination wraps ErrConfig. Applicable options: WithLimit, WithBudget,
// plus the shared execution options (WithShards/WithAutoShard, WithTenant,
// WithExecutor, WithRetry, WithStallTimeout).
func NewDensestQuery(g *Graph, opts ...Option) (*DensestQuery, error) {
	o, b, err := prepare(kindDensest, opts)
	if err != nil {
		return nil, err
	}
	cfg := udensest.Config{Budget: o.cfg.Budget, Stall: o.stall}
	if err := udensest.Validate(g, cfg); err != nil {
		return nil, err
	}
	return &DensestQuery{prepared[DenseSubgraph, DensestStats]{base: b, miner: miner[DenseSubgraph, DensestStats]{
		mine: func(ctx context.Context, visit func(DenseSubgraph) bool) (DensestStats, error) {
			return udensest.RunContext(ctx, g, cfg, visit)
		},
		status:  func(s *DensestStats) *RunStatus { return &s.Status },
		emitted: func(s *DensestStats) *int64 { return &s.Emitted },
		// The candidate family is defined per component, so the peel phase
		// shards exactly.
		components: eachComponent(g.ShardByComponent, func(sh uncertain.Shard) componentRun[DenseSubgraph, DensestStats] {
			return func(ctx context.Context, budget int64, visit func(DenseSubgraph) bool) (DensestStats, error) {
				cfg := cfg
				cfg.Budget = budget
				cands, s, err := udensest.PeelContext(ctx, sh.G, cfg)
				for _, cand := range cands {
					// The remap is monotone, so the sets stay ascending.
					for i, v := range cand.Vertices {
						cand.Vertices[i] = sh.NewToOld[v]
					}
					visit(cand)
				}
				return s, err
			}
		}),
		numComponents: g.NumComponents,
		fold: func(agg *DensestStats, s DensestStats) {
			agg.PeelSteps += s.PeelSteps
			agg.Candidates += s.Candidates
			agg.BestDensity = max(agg.BestDensity, s.BestDensity)
		},
		work: func(s DensestStats) int64 { return s.PeelSteps },
		// One global scoring pass against the whole-family champion density
		// (the score threshold d̂ is a whole-family property); a component's
		// internal edges are the same set in the parent graph, so scoring
		// against g reproduces the unsharded probabilities exactly.
		finish: func(ctx context.Context, all []DenseSubgraph, agg *DensestStats) error {
			s, err := udensest.ScoreContext(ctx, g, all, udensest.BestDensity(all), cfg)
			agg.Scored += s.Scored
			if err == nil {
				udensest.SortCandidates(all)
			}
			return err
		},
	}}}, nil
}

// Run mines the candidate family and reports each scored candidate to
// visit, best first (visit may be nil to only count; see
// DensestStats.Emitted). The error contract matches Query.Run: wrapped
// context/budget causes for aborts, ErrStopped when visit returned false,
// nil for complete runs and WithLimit truncation.
func (q *DensestQuery) Run(ctx context.Context, visit DensestVisitor) (DensestStats, error) {
	return q.p.Run(ctx, visit)
}

// Collect materializes the scored candidate family in canonical order:
// descending Probability, ties by descending ExpectedDensity, then smaller
// size, then lexicographic vertices. The first element is the most probable
// densest subgraph.
func (q *DensestQuery) Collect(ctx context.Context) ([]DenseSubgraph, error) { return q.p.Collect(ctx) }

// Count returns the number of candidates the query reports, without
// materializing them (subject to WithLimit, like every run method).
func (q *DensestQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the scored candidates as a range-over-func stream with the
// same contract as Query.Cliques: each candidate is yielded with a nil
// error, an aborted run ends with one final (DenseSubgraph{}, err) pair,
// and breaking the loop stops the report immediately with nothing leaked.
// Because the score threshold needs the whole family, the mining runs to
// completion when the first element is requested; candidates then stream
// best first.
func (q *DensestQuery) Stream(ctx context.Context) iter.Seq2[DenseSubgraph, error] {
	return q.p.Stream(ctx)
}
