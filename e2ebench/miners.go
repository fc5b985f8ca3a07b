package main

import (
	"bufio"
	"context"
	"fmt"
	"time"

	mule "github.com/uncertain-graphs/mule"
)

// input is the graph a one-shot job mines: a unipartite graph (possibly one
// component batch, whose vertex i is file vertex toGlobal[i]) or a
// bipartite one.
type input struct {
	g        *mule.Graph
	b        *mule.Bipartite
	toGlobal []int // nil = identity
}

func (in input) edges() int {
	if in.b != nil {
		return in.b.NumEdges()
	}
	return in.g.NumEdges()
}

// global maps a vertex of the mined graph to its ID in the file, as
// cmd/mule's toGlobal does.
func (in input) global(v int) int {
	if in.toGlobal == nil {
		return v
	}
	return in.toGlobal[v]
}

// runCounts is what one Run reports at the miner boundary.
type runCounts struct {
	emitted int64
	work    int64      // the miner's charged work unit (search calls, checks, …)
	core    mule.Stats // clique runs only
	edges   int        // edges of the mined input
}

func (a *runCounts) add(b runCounts) {
	a.emitted += b.emitted
	a.work += b.work
	a.edges += b.edges
	c, d := &a.core, b.core
	c.Calls += d.Calls
	c.Emitted += d.Emitted
	c.CandidateOps += d.CandidateOps
	c.WitnessOps += d.WitnessOps
	c.BitsetOps += d.BitsetOps
	c.PrunedEdges += d.PrunedEdges
	c.SizePruned += d.SizePruned
	c.Steals += d.Steals
}

// prepared runs one prepared query, writing its answer in the CLI's format.
type prepared func(ctx context.Context) (runCounts, error)

// prepFunc builds a job's query on in, with the visitor writing to w and
// timing itself into vt (nil = untimed). extra options are appended for
// reference runs (WithShards).
type prepFunc func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error)

// visitTimer sums the time spent inside a run's visitor callbacks.
type visitTimer struct{ d time.Duration }

func (vt *visitTimer) start() time.Time {
	if vt == nil {
		return time.Time{}
	}
	return time.Now()
}

func (vt *visitTimer) stop(t0 time.Time) {
	if vt != nil {
		vt.d += time.Since(t0)
	}
}

func opts(base []mule.Option, extra []mule.Option) []mule.Option {
	return append(append([]mule.Option(nil), base...), extra...)
}

// The prep functions below mirror cmd/mule's modes: the same constructor
// and options, and between the timer calls the visitor bodies of
// cmd/mule/main.go as they are (fmt.Fprintf into a bufio.Writer), so the
// output stage costs and allocates what it does in a mule run.

// printClique is cmd/mule's clique line: "p<TAB>v1 v2 …".
func printClique(w *bufio.Writer, c []int, p float64) {
	fmt.Fprintf(w, "%.9g\t", p)
	for i, v := range c {
		if i > 0 {
			w.WriteByte(' ')
		}
		fmt.Fprintf(w, "%d", v)
	}
	w.WriteByte('\n')
}

func cliquePrep(alpha float64, base ...mule.Option) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewQuery(in.g, alpha, opts(base, extra)...)
		if err != nil {
			return nil, err
		}
		var buf []int
		visit := func(c []int, p float64) bool {
			t0 := vt.start()
			buf = buf[:0]
			for _, v := range c {
				buf = append(buf, in.global(v))
			}
			printClique(w, buf, p)
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Calls, core: st, edges: in.edges()}, err
		}, nil
	}
}

func bicliquePrep(alpha float64, minL, minR int) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewBicliqueQuery(in.b, alpha, opts([]mule.Option{mule.WithSides(minL, minR)}, extra)...)
		if err != nil {
			return nil, err
		}
		visit := func(left, right []int, p float64) bool {
			t0 := vt.start()
			fmt.Fprintf(w, "%.9g\t", p)
			for i, v := range left {
				if i > 0 {
					w.WriteByte(' ')
				}
				fmt.Fprintf(w, "%d", v)
			}
			w.WriteString(" |")
			for _, v := range right {
				fmt.Fprintf(w, " %d", v)
			}
			w.WriteByte('\n')
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Calls, edges: in.edges()}, err
		}, nil
	}
}

func quasiPrep(gamma float64, minSize int) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewQuasiQuery(in.g, opts([]mule.Option{mule.WithGamma(gamma), mule.WithMinSize(minSize)}, extra)...)
		if err != nil {
			return nil, err
		}
		visit := func(set []int) bool {
			t0 := vt.start()
			for i, v := range set {
				if i > 0 {
					w.WriteByte(' ')
				}
				fmt.Fprintf(w, "%d", in.global(v))
			}
			w.WriteByte('\n')
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Calls, edges: in.edges()}, err
		}, nil
	}
}

func trussPrep(eta float64) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewTrussQuery(in.g, eta, extra...)
		if err != nil {
			return nil, err
		}
		visit := func(e mule.EdgeTruss) bool {
			t0 := vt.start()
			fmt.Fprintf(w, "%d %d %d\n", in.global(e.U), in.global(e.V), e.Truss)
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Checks, edges: in.edges()}, err
		}, nil
	}
}

func corePrep(eta float64) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewCoreQuery(in.g, eta, extra...)
		if err != nil {
			return nil, err
		}
		visit := func(vc mule.VertexCore) bool {
			t0 := vt.start()
			fmt.Fprintf(w, "%d %d\n", in.global(vc.V), vc.Core)
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Recomputes, edges: in.edges()}, err
		}, nil
	}
}

func densestPrep() prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewDensestQuery(in.g, extra...)
		if err != nil {
			return nil, err
		}
		visit := func(c mule.DenseSubgraph) bool {
			t0 := vt.start()
			fmt.Fprintf(w, "%.9g\t%.9g\t", c.Probability, c.ExpectedDensity)
			for i, v := range c.Vertices {
				if i > 0 {
					w.WriteByte(' ')
				}
				fmt.Fprintf(w, "%d", v)
			}
			w.WriteByte('\n')
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.PeelSteps, edges: in.edges()}, err
		}, nil
	}
}

func clusterPrep(centers int) prepFunc {
	return func(in input, w *bufio.Writer, vt *visitTimer, extra ...mule.Option) (prepared, error) {
		q, err := mule.NewClusterQuery(in.g, opts([]mule.Option{mule.WithCenters(centers)}, extra)...)
		if err != nil {
			return nil, err
		}
		visit := func(c mule.ClusterSet) bool {
			t0 := vt.start()
			fmt.Fprintf(w, "%.9g\t%d\t", c.Probability, c.Center)
			for i, v := range c.Members {
				if i > 0 {
					w.WriteByte(' ')
				}
				fmt.Fprintf(w, "%d", v)
			}
			w.WriteByte('\n')
			vt.stop(t0)
			return true
		}
		return func(ctx context.Context) (runCounts, error) {
			st, err := q.Run(ctx, visit)
			return runCounts{emitted: st.Emitted, work: st.Sweeps, edges: in.edges()}, err
		}, nil
	}
}
