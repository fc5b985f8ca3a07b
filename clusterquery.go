package mule

import (
	"context"
	"iter"

	"github.com/uncertain-graphs/mule/internal/ucluster"
)

// ClusterSet is one cell of a cluster query's partition: its center vertex,
// the members (ascending, center included), and the mean most-reliable-path
// connection probability of the members to the center.
type ClusterSet = ucluster.Cluster

// ClusterVisitor receives one cluster at a time, in ascending center order;
// returning false stops the report loop.
type ClusterVisitor = ucluster.Visitor

// ClusterStats reports the work performed by a clustering run.
type ClusterStats = ucluster.Stats

// ClusterQuery is a prepared k-center clustering of one uncertain graph,
// following Ceccarello et al. (arXiv 1612.06675): vertices partition around
// k center vertices maximizing the expected cluster connection probability,
// with the #P-hard exact reliability replaced by the exactly computable
// most-reliable-path probability (one Dijkstra sweep per center). Centers
// seed farthest-first and refine Lloyd-style until they fix. Build it with
// NewClusterQuery; it is immutable after construction and safe for
// concurrent use.
//
// The partition is a whole-graph property — the k centers span support
// components — so WithShards/WithAutoShard compose but do not change the
// execution shape: a sharded cluster run executes as a single whole-graph
// run (reported to WithShardProgress as one shard), exactly like the
// single-answer methods Query.Maximum and CoreQuery.Decompose ignore
// sharding. Like quasi-clique mining, the clustering runs to completion
// before anything is reported; Run, Stream, and WithLimit apply to the
// report loop, while cancellation and WithBudget abort the clustering
// itself mid-sweep.
type ClusterQuery struct {
	p prepared[ClusterSet, ClusterStats]
}

// NewClusterQuery prepares a k-center clustering of g. The center count
// comes from WithCenters and is required: it must lie in [1, NumVertices],
// and anything else — including the zero value from omitting WithCenters —
// is rejected here with a wrapped ErrCentersRange. A nil graph wraps
// ErrNilGraph. Applicable options: WithCenters, WithLimit, WithBudget, plus
// the shared execution options.
func NewClusterQuery(g *Graph, opts ...Option) (*ClusterQuery, error) {
	o, b, err := prepare(kindCluster, opts)
	if err != nil {
		return nil, err
	}
	cfg := ucluster.Config{Centers: o.centers, Budget: o.cfg.Budget, Stall: o.stall}
	if err := ucluster.Validate(g, cfg); err != nil {
		return nil, err
	}
	// No components: the partition is global, so a sharded run executes
	// whole-graph as one shard.
	return &ClusterQuery{prepared[ClusterSet, ClusterStats]{base: b, miner: miner[ClusterSet, ClusterStats]{
		mine: func(ctx context.Context, visit func(ClusterSet) bool) (ClusterStats, error) {
			return ucluster.RunContext(ctx, g, cfg, visit)
		},
		status:  func(s *ClusterStats) *RunStatus { return &s.Status },
		emitted: func(s *ClusterStats) *int64 { return &s.Emitted },
	}}}, nil
}

// Run performs the clustering and reports each cluster to visit in
// ascending center order (visit may be nil to only count; see
// ClusterStats.Emitted). The error contract matches Query.Run: wrapped
// context/budget causes for aborts, ErrStopped when visit returned false,
// nil for complete runs and WithLimit truncation.
func (q *ClusterQuery) Run(ctx context.Context, visit ClusterVisitor) (ClusterStats, error) {
	return q.p.Run(ctx, visit)
}

// Collect materializes the partition in ascending center order.
func (q *ClusterQuery) Collect(ctx context.Context) ([]ClusterSet, error) { return q.p.Collect(ctx) }

// Count returns the number of clusters the query reports — the WithCenters
// k on a complete run, fewer under WithLimit.
func (q *ClusterQuery) Count(ctx context.Context) (int64, error) { return q.p.Count(ctx) }

// Stream returns the partition as a range-over-func stream with the same
// contract as Query.Cliques: each cluster is yielded with a nil error, an
// aborted run ends with one final (ClusterSet{}, err) pair, and breaking
// the loop stops the report immediately with nothing leaked. The clustering
// runs to completion when the first element is requested; clusters then
// stream in ascending center order.
func (q *ClusterQuery) Stream(ctx context.Context) iter.Seq2[ClusterSet, error] {
	return q.p.Stream(ctx)
}
