// Package miners is the catalogue of the seven query kinds mule and muled
// serve: α-maximal cliques, bicliques, quasi-cliques, trusses, cores,
// densest subgraphs and clusterings. Each kind is one table entry: its
// name, the parameters it takes and the graph it reads, how to build its
// prepared query from one shared Params, the work unit its budget counts,
// muled's result copy, canonical order and JSON encoding, and mule's output
// lines and stats line. The front ends read the entry instead of switching
// on the kind, so a new miner is one entry here plus its library
// constructor.
package miners

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	mule "github.com/uncertain-graphs/mule"
)

// Params holds every kind's thresholds and size bounds; a kind reads the
// fields its Keys name.
type Params struct {
	Alpha   float64 // cliques, bicliques
	Gamma   float64 // quasi
	Eta     float64 // truss, core
	MinSize int     // cliques, quasi
	MaxSize int     // quasi
	MinL    int     // bicliques
	MinR    int     // bicliques
	Centers int     // cluster
	Workers int     // cliques; results are worker-count-invariant
}

// Field returns the Params field a parameter key sets: a float threshold
// or an integer bound, the other pointer nil (both nil for an unknown key).
func (p *Params) Field(key string) (*float64, *int) {
	switch key {
	case "alpha":
		return &p.Alpha, nil
	case "gamma":
		return &p.Gamma, nil
	case "eta":
		return &p.Eta, nil
	case "minsize":
		return nil, &p.MinSize
	case "maxsize":
		return nil, &p.MaxSize
	case "minl":
		return nil, &p.MinL
	case "minr":
		return nil, &p.MinR
	case "centers":
		return nil, &p.Centers
	case "workers":
		return nil, &p.Workers
	}
	return nil, nil
}

// Input is the graph a query reads: Bipartite for a kind whose Bipartite
// flag is set, Graph for the others.
type Input struct {
	Graph     *mule.Graph
	Bipartite *mule.Bipartite
}

// Tally is the accounting every kind shares: the terminal status, the
// results delivered, and the kind's budget work unit.
type Tally struct {
	Status  mule.RunStatus
	Emitted int64
	Work    int64
}

// Answer is one run as muled serves it: the results in canonical order,
// JSON-encoded, with their count, the terminal status, the kind's stats and
// the run error. On a budget abort Results hold the prefix delivered before
// it. EncErr is set, and Results nil, when a result holds a value JSON
// cannot encode (a non-finite float).
type Answer struct {
	Results []byte
	EncErr  error
	Count   int64
	Status  mule.RunStatus
	Stats   any
	Err     error
}

// Query is one prepared query of a kind.
type Query interface {
	// Answer runs the query for muled.
	Answer(ctx context.Context) Answer
	// Count runs the query without a visitor.
	Count(ctx context.Context) (Tally, error)
	// Print runs the query for mule: each result's output line goes to w
	// (nil only counts) with its vertex IDs mapped through toGlobal, and the
	// run's stats fold into r.
	Print(ctx context.Context, w *bufio.Writer, toGlobal func(int) int, r *Report) (Tally, error)
}

// Report is one mule run's stats, folded across its batches.
type Report struct {
	stats any
	line  func(stats any, t Tally, took time.Duration) string
}

// Line formats the run's stats line for its tally t and elapsed time took.
func (r *Report) Line(t Tally, took time.Duration) string { return r.line(r.stats, t, took) }

// Kind is one entry of the table.
type Kind struct {
	Name string
	// Keys are the parameters muled accepts for the kind beyond the common
	// set, in cache-key order; the first one is required.
	Keys []string
	// Bipartite marks a kind that reads Input.Bipartite.
	Bipartite bool
	// NoBatch, when set, is why mule refuses -shard-batch for the kind: its
	// answer needs the whole graph at once.
	NoBatch func(Params) error

	build  func(in Input, p Params, opts []mule.Option) (Query, error)
	report func(p Params) *Report
}

// New prepares the kind's query on in from p; opts are the options every
// kind shares (limit, budget, tenancy, sharding).
func (k *Kind) New(in Input, p Params, opts ...mule.Option) (Query, error) {
	return k.build(in, p, slices.Clip(opts))
}

// Report starts the stats of a mule run with parameters p.
func (k *Kind) Report(p Params) *Report { return k.report(p) }

// kinds is the table, in the order the front ends list it.
var kinds = []*Kind{cliques, bicliques, quasi, truss, core, densest, cluster}

// Lookup returns the kind named name, or nil.
func Lookup(name string) *Kind {
	for _, k := range kinds {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Names lists the kind names as usage text writes them: "cliques|…".
func Names() string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.Name
	}
	return strings.Join(names, "|")
}

// spec is a kind's typed description: T is its result type, S its stats
// type.
type spec[T, S any] struct {
	prepare func(in Input, p Params, opts []mule.Option) (runFunc[T, S], error)
	tally   func(S) Tally
	// clone copies a result the engine reuses after the visitor returns;
	// nil when results are the caller's to keep.
	clone func(T) T
	// cmp sorts muled's answer; nil keeps the engine's order, which is
	// canonical.
	cmp    func(a, b T) int
	encode func([]byte, T) ([]byte, error)
	// print writes one result as mule's output line, vertex IDs through g.
	print func(w *bufio.Writer, v T, g func(int) int)
	// fold adds one batch's stats into the run's; nil for a kind that
	// mines the whole graph at once.
	fold func(agg *S, s S)
	line func(p Params, t Tally, s S, took time.Duration) string
}

// runFunc is a prepared query's Run method, its visitor taking T.
type runFunc[T, S any] func(ctx context.Context, visit func(T) bool) (S, error)

// runOf adapts a Run method whose visitor type is func(T) bool.
func runOf[V ~func(T) bool, T, S any](run func(context.Context, V) (S, error)) runFunc[T, S] {
	return func(ctx context.Context, visit func(T) bool) (S, error) { return run(ctx, V(visit)) }
}

// entry completes k with the operations of sp.
func entry[T, S any](k Kind, sp spec[T, S]) *Kind {
	k.build = func(in Input, p Params, opts []mule.Option) (Query, error) {
		run, err := sp.prepare(in, p, opts)
		if err != nil {
			return nil, err
		}
		return &query[T, S]{&sp, run}, nil
	}
	k.report = func(p Params) *Report {
		return &Report{line: func(stats any, t Tally, took time.Duration) string {
			s, _ := stats.(S)
			return sp.line(p, t, s, took)
		}}
	}
	return &k
}

type query[T, S any] struct {
	*spec[T, S]
	run runFunc[T, S]
}

func (q *query[T, S]) Answer(ctx context.Context) Answer {
	out := []T{}
	s, err := q.run(ctx, func(v T) bool {
		if q.clone != nil {
			v = q.clone(v)
		}
		out = append(out, v)
		return true
	})
	if q.cmp != nil {
		slices.SortFunc(out, q.cmp)
	}
	results, encErr := encodeList(out, q.encode)
	return Answer{Results: results, EncErr: encErr, Count: int64(len(out)), Status: q.tally(s).Status, Stats: s, Err: err}
}

func (q *query[T, S]) Count(ctx context.Context) (Tally, error) {
	s, err := q.run(ctx, nil)
	return q.tally(s), err
}

func (q *query[T, S]) Print(ctx context.Context, w *bufio.Writer, toGlobal func(int) int, r *Report) (Tally, error) {
	var visit func(T) bool
	if w != nil {
		visit = func(v T) bool {
			q.print(w, v, toGlobal)
			return true
		}
	}
	s, err := q.run(ctx, visit)
	t := q.tally(s)
	if agg, ok := r.stats.(S); ok && q.fold != nil {
		q.fold(&agg, s)
		s = agg
	}
	r.stats = s
	return t, err
}

// printInts writes vs mapped through g, space-separated.
func printInts(w *bufio.Writer, vs []int, g func(int) int) {
	for i, v := range vs {
		if i > 0 {
			w.WriteByte(' ')
		}
		w.WriteString(strconv.Itoa(g(v)))
	}
}

// The table.

var cliques = entry(Kind{Name: "cliques", Keys: []string{"alpha", "minsize", "workers"}}, spec[mule.Clique, mule.Stats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.Clique, mule.Stats], error) {
		q, err := mule.NewQuery(in.Graph, p.Alpha, append(opts, mule.WithMinSize(p.MinSize), mule.WithWorkers(p.Workers))...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, visit func(mule.Clique) bool) (mule.Stats, error) {
			var v mule.Visitor
			if visit != nil {
				v = func(c []int, prob float64) bool { return visit(mule.Clique{Vertices: c, Prob: prob}) }
			}
			return q.Run(ctx, v)
		}, nil
	},
	tally: func(s mule.Stats) Tally { return Tally{s.Status, s.Emitted, s.Calls} },
	clone: func(c mule.Clique) mule.Clique {
		return mule.Clique{Vertices: append([]int(nil), c.Vertices...), Prob: c.Prob}
	},
	cmp:    func(a, b mule.Clique) int { return slices.Compare(a.Vertices, b.Vertices) },
	encode: appendClique,
	print: func(w *bufio.Writer, c mule.Clique, g func(int) int) {
		fmt.Fprintf(w, "%.9g\t", c.Prob)
		printInts(w, c.Vertices, g)
		w.WriteByte('\n')
	},
	fold: func(agg *mule.Stats, s mule.Stats) {
		agg.MaxCliqueSize = max(agg.MaxCliqueSize, s.MaxCliqueSize)
		agg.PrunedEdges += s.PrunedEdges
	},
	line: func(p Params, t Tally, s mule.Stats, took time.Duration) string {
		return fmt.Sprintf("%d α-maximal cliques (α=%g, max size %d, %s) in %s; %d search calls, %d edges pruned\n",
			t.Emitted, p.Alpha, s.MaxCliqueSize, t.Status, took, t.Work, s.PrunedEdges)
	},
})

var bicliques = entry(Kind{Name: "bicliques", Keys: []string{"alpha", "minl", "minr"}, Bipartite: true,
	NoBatch: func(Params) error {
		return errors.New("-shard-batch streams the unipartite format; use -shards for in-memory sharded biclique runs")
	}}, spec[mule.Biclique, mule.BicliqueStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.Biclique, mule.BicliqueStats], error) {
		q, err := mule.NewBicliqueQuery(in.Bipartite, p.Alpha, append(opts, mule.WithSides(p.MinL, p.MinR))...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, visit func(mule.Biclique) bool) (mule.BicliqueStats, error) {
			var v mule.BicliqueVisitor
			if visit != nil {
				v = func(l, r []int, prob float64) bool { return visit(mule.Biclique{Left: l, Right: r, Prob: prob}) }
			}
			return q.Run(ctx, v)
		}, nil
	},
	tally: func(s mule.BicliqueStats) Tally { return Tally{s.Status, s.Emitted, s.Calls} },
	clone: func(c mule.Biclique) mule.Biclique {
		return mule.Biclique{Left: append([]int(nil), c.Left...), Right: append([]int(nil), c.Right...), Prob: c.Prob}
	},
	cmp: func(a, b mule.Biclique) int {
		return cmp.Or(slices.Compare(a.Left, b.Left), slices.Compare(a.Right, b.Right))
	},
	encode: appendBiclique,
	print: func(w *bufio.Writer, c mule.Biclique, g func(int) int) {
		fmt.Fprintf(w, "%.9g\t", c.Prob)
		printInts(w, c.Left, g)
		w.WriteString(" |")
		for _, v := range c.Right {
			fmt.Fprintf(w, " %d", g(v))
		}
		w.WriteByte('\n')
	},
	line: func(p Params, t Tally, s mule.BicliqueStats, took time.Duration) string {
		return fmt.Sprintf("%d α-maximal bicliques (α=%g, max %d×%d, %s) in %s; %d search calls, %d edges pruned\n",
			t.Emitted, p.Alpha, s.MaxLeft, s.MaxRight, t.Status, took, t.Work, s.PrunedEdges)
	},
})

var quasi = entry(Kind{Name: "quasi", Keys: []string{"gamma", "minsize", "maxsize"}}, spec[[]int, mule.QuasiStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[[]int, mule.QuasiStats], error) {
		q, err := mule.NewQuasiQuery(in.Graph, append(opts, mule.WithGamma(p.Gamma), mule.WithMinSize(p.MinSize), mule.WithMaxSize(p.MaxSize))...)
		if err != nil {
			return nil, err
		}
		return runOf(q.Run), nil
	},
	tally:  func(s mule.QuasiStats) Tally { return Tally{s.Status, s.Emitted, s.Calls} },
	clone:  func(s []int) []int { return append([]int(nil), s...) },
	encode: appendVertexSet,
	print: func(w *bufio.Writer, s []int, g func(int) int) {
		printInts(w, s, g)
		w.WriteByte('\n')
	},
	fold: func(agg *mule.QuasiStats, s mule.QuasiStats) { agg.MaxSize = max(agg.MaxSize, s.MaxSize) },
	line: func(p Params, t Tally, s mule.QuasiStats, took time.Duration) string {
		return fmt.Sprintf("%d maximal expected γ-quasi-cliques (γ=%g, max size %d, %s) in %s; %d search calls\n",
			t.Emitted, p.Gamma, s.MaxSize, t.Status, took, t.Work)
	},
})

var truss = entry(Kind{Name: "truss", Keys: []string{"eta"}}, spec[mule.EdgeTruss, mule.TrussStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.EdgeTruss, mule.TrussStats], error) {
		q, err := mule.NewTrussQuery(in.Graph, p.Eta, opts...)
		if err != nil {
			return nil, err
		}
		return runOf(q.Run), nil
	},
	tally:  func(s mule.TrussStats) Tally { return Tally{s.Status, s.Emitted, s.Checks} },
	cmp:    func(a, b mule.EdgeTruss) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) },
	encode: appendEdgeTruss,
	// The batch-local → global mapping is monotone, so U < V holds after
	// it too.
	print: func(w *bufio.Writer, e mule.EdgeTruss, g func(int) int) {
		fmt.Fprintf(w, "%d %d %d\n", g(e.U), g(e.V), e.Truss)
	},
	fold: func(agg *mule.TrussStats, s mule.TrussStats) { agg.MaxTruss = max(agg.MaxTruss, s.MaxTruss) },
	line: func(p Params, t Tally, s mule.TrussStats, took time.Duration) string {
		return fmt.Sprintf("η-truss decomposition of %d edges (η=%g, max truss %d, %s) in %s; %d support checks\n",
			t.Emitted, p.Eta, s.MaxTruss, t.Status, took, t.Work)
	},
})

var core = entry(Kind{Name: "core", Keys: []string{"eta"}}, spec[mule.VertexCore, mule.CoreStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.VertexCore, mule.CoreStats], error) {
		q, err := mule.NewCoreQuery(in.Graph, p.Eta, opts...)
		if err != nil {
			return nil, err
		}
		return runOf(q.Run), nil
	},
	tally:  func(s mule.CoreStats) Tally { return Tally{s.Status, s.Emitted, s.Recomputes} },
	cmp:    func(a, b mule.VertexCore) int { return cmp.Compare(a.V, b.V) },
	encode: appendVertexCore,
	print: func(w *bufio.Writer, vc mule.VertexCore, g func(int) int) {
		fmt.Fprintf(w, "%d %d\n", g(vc.V), vc.Core)
	},
	fold: func(agg *mule.CoreStats, s mule.CoreStats) { agg.Degeneracy = max(agg.Degeneracy, s.Degeneracy) },
	line: func(p Params, t Tally, s mule.CoreStats, took time.Duration) string {
		return fmt.Sprintf("η-core decomposition of %d vertices (η=%g, degeneracy %d, %s) in %s; %d recomputes\n",
			t.Emitted, p.Eta, s.Degeneracy, t.Status, took, t.Work)
	},
})

// densest keeps the engine's best-first order, which is canonical.
var densest = entry(Kind{Name: "densest",
	NoBatch: func(Params) error {
		return errors.New("-shard-batch would score each batch against its own density threshold; use -shards for in-memory parallel densest runs")
	}}, spec[mule.DenseSubgraph, mule.DensestStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.DenseSubgraph, mule.DensestStats], error) {
		q, err := mule.NewDensestQuery(in.Graph, opts...)
		if err != nil {
			return nil, err
		}
		return runOf(q.Run), nil
	},
	tally: func(s mule.DensestStats) Tally { return Tally{s.Status, s.Emitted, s.PeelSteps} },
	clone: func(c mule.DenseSubgraph) mule.DenseSubgraph {
		c.Vertices = append([]int(nil), c.Vertices...)
		return c
	},
	encode: appendDenseSubgraph,
	print: func(w *bufio.Writer, c mule.DenseSubgraph, g func(int) int) {
		fmt.Fprintf(w, "%.9g\t%.9g\t", c.Probability, c.ExpectedDensity)
		printInts(w, c.Vertices, g)
		w.WriteByte('\n')
	},
	line: func(p Params, t Tally, s mule.DensestStats, took time.Duration) string {
		return fmt.Sprintf("%d densest-subgraph candidates (best density %g, %s) in %s; %d peel steps, %d scored\n",
			t.Emitted, s.BestDensity, t.Status, took, t.Work, s.Scored)
	},
})

// cluster keeps the engine's ascending center order, which is canonical.
var cluster = entry(Kind{Name: "cluster", Keys: []string{"centers"},
	NoBatch: func(p Params) error {
		return fmt.Errorf("-shard-batch cannot place the %d centers globally; cluster runs load the full graph", p.Centers)
	}}, spec[mule.ClusterSet, mule.ClusterStats]{
	prepare: func(in Input, p Params, opts []mule.Option) (runFunc[mule.ClusterSet, mule.ClusterStats], error) {
		q, err := mule.NewClusterQuery(in.Graph, append(opts, mule.WithCenters(p.Centers))...)
		if err != nil {
			return nil, err
		}
		return runOf(q.Run), nil
	},
	tally: func(s mule.ClusterStats) Tally { return Tally{s.Status, s.Emitted, s.Sweeps} },
	clone: func(c mule.ClusterSet) mule.ClusterSet {
		c.Members = append([]int(nil), c.Members...)
		return c
	},
	encode: appendCluster,
	print: func(w *bufio.Writer, c mule.ClusterSet, g func(int) int) {
		fmt.Fprintf(w, "%.9g\t%d\t", c.Probability, g(c.Center))
		printInts(w, c.Members, g)
		w.WriteByte('\n')
	},
	line: func(p Params, t Tally, s mule.ClusterStats, took time.Duration) string {
		return fmt.Sprintf("%d clusters (centers=%d, rounds=%d, converged=%v, %s) in %s; %d reliability sweeps\n",
			t.Emitted, p.Centers, s.Rounds, s.Converged, t.Status, took, t.Work)
	},
})
