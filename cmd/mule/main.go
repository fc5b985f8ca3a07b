// Command mule mines dense substructures from an uncertain graph file.
//
// Usage:
//
//	mule -in graph.ug -alpha 0.5                 # print all α-maximal cliques
//	mule -in graph.ug -alpha 0.1 -minsize 4      # LARGE-MULE: only cliques ≥ 4
//	mule -in graph.ug -alpha 0.5 -count          # count only
//	mule -in graph.ug -alpha 0.5 -top 10         # 10 highest-probability cliques
//	mule -in graph.ugb -alpha 0.5 -workers 8     # parallel work-stealing search
//	mule -in g.ug -alpha 0.5 -workers 8 -engine toplevel  # legacy fan-out
//	mule -in g.ug -alpha 0.5 -timeout 30s        # deadline-bounded run
//	mule -in g.ug -alpha 0.5 -limit 1000         # stop after 1000 cliques
//	mule -in g.ug -alpha 0.5 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	mule -in g.ug -alpha 0.5 -tenant acme -max-inflight 4  # admission-controlled run
//	mule -in g.ug -alpha 0.5 -shards auto                # one run per component
//	mule -in huge.ugb -alpha 0.5 -shard-batch 1000000    # out-of-core: ≤1M edges in RAM
//
//	mule -in b.ubg -mine bicliques -alpha 0.5 -minl 2 -minr 2  # α-maximal bicliques
//	mule -in g.ug  -mine quasi -gamma 0.6                      # expected γ-quasi-cliques
//	mule -in g.ug  -mine truss -eta 0.9                        # η-truss decomposition
//	mule -in g.ug  -mine truss -eta 0.9 -k 4                   # the (4,η)-truss subgraph
//	mule -in g.ug  -mine core  -eta 0.9                        # η-core decomposition
//	mule -in g.ug  -mine core  -eta 0.9 -k 3                   # the (3,η)-core vertices
//	mule -in g.ug  -mine densest                               # most-probable densest subgraph
//	mule -in g.ug  -mine cluster -centers 4                    # k-center uncertain clustering
//
// The command is built on the mule prepared-query API (mule.NewQuery,
// mule.NewBicliqueQuery, mule.NewQuasiQuery, mule.NewTrussQuery,
// mule.NewCoreQuery, mule.NewDensestQuery, mule.NewClusterQuery), so every
// mode is cancellable: -timeout bounds the
// wall clock, -limit caps the delivered results, -budget caps the search
// work, and SIGINT/SIGTERM abort the run cleanly — buffered output and the
// stats line are flushed with whatever was found so far, and the process
// exits with a conventional status instead of dying mid-write, in every
// mode: 130 (interrupt), 124 (deadline), 75 (admission rejection — retryable;
// see -retry), 70 (contained panic or -stall-timeout watchdog abort).
//
// With -workers > 1 the clique search runs on the work-stealing engine by
// default; -engine toplevel selects the legacy top-level fan-out and
// -granularity tunes how small a subtree may be published for stealing.
// Clique output lines are "p<TAB>v1 v2 v3 …"; biclique lines are
// "p<TAB>l1 l2 … | r1 r2 …" (sides in their own ID spaces); quasi lines are
// "v1 v2 v3 …"; truss decomposition lines are "u v k"; core decomposition
// lines are "v c"; densest candidate lines are "p<TAB>d<TAB>v1 v2 …" (exact
// probability, expected density, vertex set) best first; cluster lines are
// "p<TAB>c<TAB>m1 m2 …" (mean connection probability, center, members) in
// ascending center order. The unipartite input format is described in
// internal/graphio (text: "u v p" lines; binary: .ugb); bicliques read the
// bipartite text format (.ubg: a "bipartite nL nR" directive, then
// "l r p" lines).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/graphio"
)

// Exit statuses for aborted runs, matching shell conventions (128+SIGINT,
// timeout(1), sysexits.h EX_TEMPFAIL for admission rejection — the run never
// started and a retry may succeed — and EX_SOFTWARE for a run terminated by
// a contained panic or the stall watchdog: an internal fault, not an input
// or environment problem).
const (
	exitInterrupted = 130
	exitDeadline    = 124
	exitAdmission   = 75
	exitSoftware    = 70
)

func main() {
	ctx, stop := signalContext(context.Background())
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "mule:", err)
	switch {
	case errors.Is(err, mule.ErrPanic), errors.Is(err, mule.ErrStalled):
		os.Exit(exitSoftware)
	case errors.Is(err, mule.ErrAdmission):
		os.Exit(exitAdmission)
	case errors.Is(err, context.Canceled):
		os.Exit(exitInterrupted)
	case errors.Is(err, context.DeadlineExceeded):
		os.Exit(exitDeadline)
	default:
		os.Exit(1)
	}
}

// signalContext returns a context canceled on SIGINT or SIGTERM, so an
// interrupted enumeration unwinds through the query layer (flushing stats
// and partial output) instead of being killed mid-write.
func signalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mule", flag.ContinueOnError)
	var (
		in          = fs.String("in", "", "input graph file (.ug text or .ugb binary; .ubg bipartite text for -mine bicliques; required)")
		mine        = fs.String("mine", "cliques", "what to mine: cliques|bicliques|quasi|truss|core|densest|cluster")
		alpha       = fs.Float64("alpha", 0.5, "probability threshold α in (0,1] (cliques, bicliques)")
		gamma       = fs.Float64("gamma", 0, "quasi-clique density threshold γ in [0.5,1] (-mine quasi)")
		eta         = fs.Float64("eta", 0, "truss/core confidence threshold η in (0,1] (-mine truss|core)")
		kParam      = fs.Int("k", 0, "with -mine truss: print the (k,η)-truss subgraph; with -mine core: print the (k,η)-core vertices; 0 prints the full decomposition")
		centers     = fs.Int("centers", 0, "cluster center count k in [1, n] (-mine cluster; required)")
		minL        = fs.Int("minl", 0, "bicliques: minimum left-side size")
		minR        = fs.Int("minr", 0, "bicliques: minimum right-side size")
		minSize     = fs.Int("minsize", 0, "enumerate only cliques (LARGE-MULE) or quasi-cliques with at least this many vertices")
		workers     = fs.Int("workers", 0, "parallel workers (0 = serial)")
		engine      = fs.String("engine", "worksteal", "parallel engine: worksteal|toplevel")
		granularity = fs.Int("granularity", 0, "work-stealing steal granularity (0 = default)")
		ordering    = fs.String("order", "natural", "vertex ordering: natural|degree|degeneracy|random")
		intersect   = fs.String("intersect", "adaptive", "intersection kernel: adaptive|sorted|bitset (forced modes are ablation-only; output is identical)")
		countOnly   = fs.Bool("count", false, "print only the number of α-maximal cliques")
		top         = fs.Int("top", 0, "print only the k highest-probability α-maximal cliques")
		limit       = fs.Int64("limit", 0, "stop after this many cliques (0 = no limit)")
		budget      = fs.Int64("budget", 0, "abort after this many search-tree nodes (0 = no budget)")
		tenant      = fs.String("tenant", "", "admission-control tenant ID charged for this run (default: no admission accounting)")
		maxInflight = fs.Int("max-inflight", 0, "cap on the tenant's concurrent queries on the process executor; over-cap runs exit 75 (0 = unlimited; requires -tenant)")
		retries     = fs.Int("retry", 0, "retry an admission rejection this many extra times with jittered exponential backoff before exiting 75 (requires -tenant)")
		shardsFlag  = fs.String("shards", "", "mine connected components as independent shards with this concurrency, or \"auto\" for GOMAXPROCS (default: unsharded; ignored by the single-answer -k modes)")
		shardBatch  = fs.Int("shard-batch", 0, "out-of-core mode: stream the input file and mine it in component batches of at most this many edges, never materializing the full graph (unipartite miners; incompatible with -top and -k)")
		stallWindow = fs.Duration("stall-timeout", 0, "abort a run making no search progress for this long, exiting 70 (0 = no watchdog; distinct from -timeout, which is wall clock)")
		timeout     = fs.Duration("timeout", 0, "abort the run after this duration (0 = no deadline)")
		quiet       = fs.Bool("quiet", false, "suppress the stats line on stderr")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file before exiting")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be non-negative, got %d", *maxInflight)
	}
	if *maxInflight > 0 {
		if *tenant == "" {
			return fmt.Errorf("-max-inflight requires -tenant (limits are per tenant)")
		}
		mule.DefaultExecutor().SetTenantLimits(*tenant, mule.Limits{MaxInFlight: *maxInflight})
	}
	if *retries < 0 {
		return fmt.Errorf("-retry must be non-negative, got %d", *retries)
	}
	if *retries > 0 && *tenant == "" {
		return fmt.Errorf("-retry requires -tenant (only admitted runs are rejected)")
	}
	if *stallWindow < 0 {
		return fmt.Errorf("-stall-timeout must be non-negative, got %v", *stallWindow)
	}

	m := modeFlags{
		in: *in, alpha: *alpha, gamma: *gamma, eta: *eta, k: *kParam,
		centers: *centers, minL: *minL, minR: *minR, minSize: *minSize,
		limit: *limit, budget: *budget, countOnly: *countOnly, quiet: *quiet,
		tenant: *tenant, retries: *retries, stall: *stallWindow,
	}
	switch {
	case *shardsFlag == "":
	case strings.EqualFold(*shardsFlag, "auto"):
		m.shardsAuto = true
	default:
		n, err := strconv.Atoi(*shardsFlag)
		if err != nil || n < 1 {
			return fmt.Errorf("-shards: want a positive count or %q, got %q", "auto", *shardsFlag)
		}
		m.shards = n
	}
	if *shardBatch < 0 {
		return fmt.Errorf("-shard-batch must be non-negative, got %d", *shardBatch)
	}
	m.shardBatch = *shardBatch
	var runErr error
	switch strings.ToLower(*mine) {
	case "cliques", "clique":
		runErr = runCliques(ctx, m, *ordering, *engine, *intersect, *workers, *granularity, *top, out)
	case "bicliques", "biclique":
		runErr = runBicliques(ctx, m, out)
	case "quasi", "quasi-cliques", "quasicliques":
		runErr = runQuasi(ctx, m, out)
	case "truss", "trusses":
		runErr = runTruss(ctx, m, out)
	case "core", "cores":
		runErr = runCore(ctx, m, out)
	case "densest":
		runErr = runDensest(ctx, m, out)
	case "cluster", "clusters", "clustering":
		runErr = runCluster(ctx, m, out)
	default:
		return fmt.Errorf("unknown -mine mode %q (want cliques|bicliques|quasi|truss|core|densest|cluster)", *mine)
	}
	// The heap profile is written even for aborted runs, so kernel
	// regressions can be diagnosed from a truncated enumeration.
	if merr := writeMemProfile(*memprofile); merr != nil && runErr == nil {
		runErr = merr
	}
	return runErr
}

// modeFlags carries the flags every -mine mode shares (plus the per-miner
// thresholds, which each mode reads as applicable).
type modeFlags struct {
	in         string
	alpha      float64
	gamma      float64
	eta        float64
	k          int
	centers    int
	minL, minR int
	minSize    int
	limit      int64
	budget     int64
	countOnly  bool
	quiet      bool
	tenant     string
	retries    int
	stall      time.Duration
	shards     int  // -shards N: component-sharded execution (0 = off)
	shardsAuto bool // -shards auto
	shardBatch int  // -shard-batch: out-of-core batch edge cap (0 = off)
}

// withTenant appends the shared robustness options — WithTenant, WithRetry,
// WithStallTimeout — when their flags were given; every -mine mode routes its
// constructor options through it so admission accounting, retry, and the
// stall watchdog cover all seven query surfaces uniformly.
func (m modeFlags) withTenant(opts ...mule.Option) []mule.Option {
	if m.tenant != "" {
		opts = append(opts, mule.WithTenant(m.tenant))
	}
	if m.retries > 0 {
		opts = append(opts, mule.WithRetry(mule.RetryPolicy{
			MaxAttempts: m.retries + 1,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    time.Second,
			Jitter:      0.5,
		}))
	}
	if m.stall > 0 {
		opts = append(opts, mule.WithStallTimeout(m.stall))
	}
	if m.shardsAuto {
		opts = append(opts, mule.WithAutoShard())
	} else if m.shards > 0 {
		opts = append(opts, mule.WithShards(m.shards))
	}
	return opts
}

// errBatchesDone stops the out-of-core batch loop once -limit results have
// been delivered; it is translated to a clean StatusStopped exit.
var errBatchesDone = errors.New("result limit reached across batches")

// forEachBatch hands the mining loop each in-memory portion of the input:
// the whole graph when -shard-batch is off, or successive groups of
// connected components of at most m.shardBatch edges streamed from disk
// when it is on — the full graph is never materialized. toGlobal maps
// batch-local vertex IDs back to input IDs (the identity when off); the
// mapping is monotone, so per-batch canonical output orders survive it.
func forEachBatch(m modeFlags, fn func(g *mule.Graph, toGlobal func(int) int) error) error {
	if m.shardBatch <= 0 {
		g, err := graphio.LoadFile(m.in)
		if err != nil {
			return err
		}
		return fn(g, func(v int) int { return v })
	}
	return graphio.ScanComponentBatches(m.in, m.shardBatch, func(batch *mule.Graph, newToOld []int) error {
		return fn(batch, func(v int) int { return newToOld[v] })
	})
}

// batchBudget tracks -limit / -budget across out-of-core batches so the
// two caps mean the same thing batched as unbatched: each batch query gets
// the remaining allowance, and exhaustion stops the loop.
type batchBudget struct {
	limit, budget int64 // original flags (0 = unlimited)
	remaining     int64 // results still allowed
	left          int64 // search work still allowed
}

func newBatchBudget(m modeFlags) *batchBudget {
	return &batchBudget{limit: m.limit, budget: m.budget, remaining: m.limit, left: m.budget}
}

// spend folds one batch run's consumption (delivered results, dominant work
// counter) and reports whether the loop should stop: errBatchesDone on a
// met limit, ErrBudget when the work allowance ran out between batches.
func (b *batchBudget) spend(emitted, work int64) error {
	if b.limit > 0 {
		b.remaining -= emitted
		if b.remaining <= 0 {
			return errBatchesDone
		}
	}
	if b.budget > 0 {
		b.left -= work
		if b.left <= 0 {
			return fmt.Errorf("search budget exhausted between batches: %w", mule.ErrBudget)
		}
	}
	return nil
}

// tally is the accounting every -mine mode shares: the terminal status,
// the results delivered, and the mode's budget work unit.
type tally struct {
	status  mule.RunStatus
	emitted int64
	work    int64
}

// batch is one in-memory portion of the input handed to a mode's query
// run, with the -limit / -budget allowance left for it.
type batch struct {
	g             *mule.Graph
	toGlobal      func(int) int
	limit, budget int64
}

// mineLoop is the loop and tail every -mine mode shares. A batched mode's
// mine runs once per out-of-core batch — or once on the whole graph when
// -shard-batch is off — and -limit / -budget carry across batches; an
// unbatched mode has loaded its input and built its query already, so its
// mine runs once on a zero batch. The -count line, the stats line, and the
// flush follow before any abort surfaces, so a canceled run still reports
// its partial output.
func mineLoop(m modeFlags, out io.Writer, batched bool, mine func(w *bufio.Writer, b batch) (tally, error), line func(t tally, took time.Duration) string) error {
	start := time.Now()
	w := bufio.NewWriter(out)
	defer w.Flush()
	var agg tally
	var runErr error
	if batched {
		bud := newBatchBudget(m)
		runErr = forEachBatch(m, func(g *mule.Graph, toGlobal func(int) int) error {
			t, err := mine(w, batch{g, toGlobal, bud.remaining, bud.left})
			agg = tally{t.status, agg.emitted + t.emitted, agg.work + t.work}
			if err != nil {
				return err
			}
			return bud.spend(t.emitted, t.work)
		})
	} else {
		agg, runErr = mine(w, batch{})
	}
	if errors.Is(runErr, errBatchesDone) {
		agg.status, runErr = mule.StatusStopped, nil
	} else if errors.Is(runErr, mule.ErrBudget) {
		agg.status = mule.StatusBudget
	}
	if m.countOnly {
		fmt.Fprintf(w, "%d\n", agg.emitted)
	}
	if !m.quiet {
		fmt.Fprint(os.Stderr, line(agg, time.Since(start).Round(time.Millisecond)))
	}
	w.Flush()
	return runErr
}

// runCliques is the original mode: α-maximal clique enumeration, count,
// or top-k through mule.NewQuery.
func runCliques(ctx context.Context, m modeFlags, ordering, engine, intersect string, workers, granularity, top int, out io.Writer) error {
	ord, err := parseOrdering(ordering)
	if err != nil {
		return err
	}
	mode, err := parseEngine(engine)
	if err != nil {
		return err
	}
	imode, err := parseIntersect(intersect)
	if err != nil {
		return err
	}
	if m.shardBatch > 0 && top > 0 {
		return fmt.Errorf("-shard-batch cannot rank across batches; drop -top or -shard-batch")
	}
	newQuery := func(g *mule.Graph, limit, budget int64) (*mule.Query, error) {
		return mule.NewQuery(g, m.alpha, m.withTenant(
			mule.WithMinSize(m.minSize),
			mule.WithWorkers(workers),
			mule.WithParallelMode(mode),
			mule.WithStealGranularity(granularity),
			mule.WithOrdering(ord),
			mule.WithIntersect(imode),
			mule.WithLimit(limit),
			mule.WithBudget(budget),
		)...)
	}

	if top > 0 {
		start := time.Now()
		w := bufio.NewWriter(out)
		defer w.Flush()
		g, err := graphio.LoadFile(m.in)
		if err != nil {
			return err
		}
		q, err := newQuery(g, m.limit, m.budget)
		if err != nil {
			return err
		}
		scored, terr := q.TopK(ctx, top, mule.ByProb)
		if terr != nil {
			return terr
		}
		for _, sc := range scored {
			printClique(w, sc.Vertices, sc.Prob)
		}
		if !m.quiet {
			fmt.Fprintf(os.Stderr, "top-%d of α=%g maximal cliques in %s (n=%d m=%d)\n",
				top, m.alpha, time.Since(start).Round(time.Millisecond), g.NumVertices(), g.NumEdges())
		}
		return nil
	}

	var maxSize, pruned int
	return mineLoop(m, out, true, func(w *bufio.Writer, b batch) (tally, error) {
		q, err := newQuery(b.g, b.limit, b.budget)
		if err != nil {
			return tally{}, err
		}
		var visit mule.Visitor
		if !m.countOnly {
			var buf []int
			visit = func(c []int, p float64) bool {
				buf = buf[:0]
				for _, v := range c {
					buf = append(buf, b.toGlobal(v))
				}
				printClique(w, buf, p)
				return true
			}
		}
		s, err := q.Run(ctx, visit)
		maxSize, pruned = max(maxSize, s.MaxCliqueSize), pruned+s.PrunedEdges
		return tally{s.Status, s.Emitted, s.Calls}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("%d α-maximal cliques (α=%g, max size %d, %s) in %s; %d search calls, %d edges pruned\n",
			t.emitted, m.alpha, maxSize, t.status, took, t.work, pruned)
	})
}

// runBicliques mines α-maximal bicliques from a bipartite input file.
func runBicliques(ctx context.Context, m modeFlags, out io.Writer) error {
	if m.shardBatch > 0 {
		return fmt.Errorf("-shard-batch streams the unipartite format; use -shards for in-memory sharded biclique runs")
	}
	g, err := graphio.LoadBipartiteFile(m.in)
	if err != nil {
		return err
	}
	q, err := mule.NewBicliqueQuery(g, m.alpha, m.withTenant(
		mule.WithSides(m.minL, m.minR),
		mule.WithLimit(m.limit),
		mule.WithBudget(m.budget),
	)...)
	if err != nil {
		return err
	}
	var s mule.BicliqueStats
	return mineLoop(m, out, false, func(w *bufio.Writer, _ batch) (tally, error) {
		var visit mule.BicliqueVisitor
		if !m.countOnly {
			visit = func(left, right []int, p float64) bool {
				fmt.Fprintf(w, "%.9g\t", p)
				printInts(w, left)
				w.WriteString(" |")
				for _, v := range right {
					fmt.Fprintf(w, " %d", v)
				}
				w.WriteByte('\n')
				return true
			}
		}
		var err error
		s, err = q.Run(ctx, visit)
		return tally{s.Status, s.Emitted, s.Calls}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("%d α-maximal bicliques (α=%g, max %d×%d, %s) in %s; %d search calls, %d edges pruned\n",
			t.emitted, m.alpha, s.MaxLeft, s.MaxRight, t.status, took, t.work, s.PrunedEdges)
	})
}

// runQuasi mines maximal expected γ-quasi-cliques.
func runQuasi(ctx context.Context, m modeFlags, out io.Writer) error {
	var maxSize int
	return mineLoop(m, out, true, func(w *bufio.Writer, b batch) (tally, error) {
		q, err := mule.NewQuasiQuery(b.g, m.withTenant(
			mule.WithGamma(m.gamma),
			mule.WithMinSize(m.minSize),
			mule.WithLimit(b.limit),
			mule.WithBudget(b.budget),
		)...)
		if err != nil {
			return tally{}, err
		}
		var visit mule.QuasiVisitor
		if !m.countOnly {
			visit = func(set []int) bool {
				for i, v := range set {
					if i > 0 {
						w.WriteByte(' ')
					}
					fmt.Fprintf(w, "%d", b.toGlobal(v))
				}
				w.WriteByte('\n')
				return true
			}
		}
		s, err := q.Run(ctx, visit)
		maxSize = max(maxSize, s.MaxSize)
		return tally{s.Status, s.Emitted, s.Calls}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("%d maximal expected γ-quasi-cliques (γ=%g, max size %d, %s) in %s; %d search calls\n",
			t.emitted, m.gamma, maxSize, t.status, took, t.work)
	})
}

// runTruss prints the η-truss decomposition ("u v k" per edge, peel
// order), or with -k > 0 the (k,η)-truss subgraph ("u v p" per surviving
// edge).
func runTruss(ctx context.Context, m modeFlags, out io.Writer) error {
	if m.shardBatch > 0 && m.k > 0 {
		return fmt.Errorf("-shard-batch is incompatible with -k (single-answer mode)")
	}
	if m.k > 0 {
		start := time.Now()
		w := bufio.NewWriter(out)
		defer w.Flush()
		g, err := graphio.LoadFile(m.in)
		if err != nil {
			return err
		}
		q, err := mule.NewTrussQuery(g, m.eta, m.withTenant(
			mule.WithLimit(m.limit),
			mule.WithBudget(m.budget),
		)...)
		if err != nil {
			return err
		}
		tr, terr := q.Truss(ctx, m.k)
		if terr != nil {
			return terr
		}
		switch {
		case m.countOnly:
			fmt.Fprintf(w, "%d\n", tr.NumEdges())
		default:
			for i, e := range tr.Edges() {
				if m.limit > 0 && int64(i) >= m.limit {
					break
				}
				fmt.Fprintf(w, "%d %d %.9g\n", e.U, e.V, e.P)
			}
		}
		if !m.quiet {
			fmt.Fprintf(os.Stderr, "(%d,%g)-truss: %d of %d edges in %s\n",
				m.k, m.eta, tr.NumEdges(), g.NumEdges(), time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	var maxTruss int
	return mineLoop(m, out, true, func(w *bufio.Writer, b batch) (tally, error) {
		q, err := mule.NewTrussQuery(b.g, m.eta, m.withTenant(
			mule.WithLimit(b.limit),
			mule.WithBudget(b.budget),
		)...)
		if err != nil {
			return tally{}, err
		}
		var visit mule.TrussVisitor
		if !m.countOnly {
			// The batch-local → global mapping is monotone, so U < V holds
			// after remapping too.
			visit = func(e mule.EdgeTruss) bool {
				fmt.Fprintf(w, "%d %d %d\n", b.toGlobal(e.U), b.toGlobal(e.V), e.Truss)
				return true
			}
		}
		s, err := q.Run(ctx, visit)
		maxTruss = max(maxTruss, s.MaxTruss)
		return tally{s.Status, s.Emitted, s.Checks}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("η-truss decomposition of %d edges (η=%g, max truss %d, %s) in %s; %d support checks\n",
			t.emitted, m.eta, maxTruss, t.status, took, t.work)
	})
}

// runCore prints the η-core decomposition ("v c" per vertex, peel order),
// or with -k > 0 the (k,η)-core vertex set.
func runCore(ctx context.Context, m modeFlags, out io.Writer) error {
	if m.shardBatch > 0 && m.k > 0 {
		return fmt.Errorf("-shard-batch is incompatible with -k (single-answer mode)")
	}
	if m.k > 0 {
		start := time.Now()
		w := bufio.NewWriter(out)
		defer w.Flush()
		g, err := graphio.LoadFile(m.in)
		if err != nil {
			return err
		}
		q, err := mule.NewCoreQuery(g, m.eta, m.withTenant(
			mule.WithLimit(m.limit),
			mule.WithBudget(m.budget),
		)...)
		if err != nil {
			return err
		}
		verts, cerr := q.Core(ctx, m.k)
		if cerr != nil {
			return cerr
		}
		switch {
		case m.countOnly:
			fmt.Fprintf(w, "%d\n", len(verts))
		default:
			for i, v := range verts {
				if m.limit > 0 && int64(i) >= m.limit {
					break
				}
				fmt.Fprintf(w, "%d\n", v)
			}
		}
		if !m.quiet {
			fmt.Fprintf(os.Stderr, "(%d,%g)-core: %d of %d vertices in %s\n",
				m.k, m.eta, len(verts), g.NumVertices(), time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	var degeneracy int
	return mineLoop(m, out, true, func(w *bufio.Writer, b batch) (tally, error) {
		q, err := mule.NewCoreQuery(b.g, m.eta, m.withTenant(
			mule.WithLimit(b.limit),
			mule.WithBudget(b.budget),
		)...)
		if err != nil {
			return tally{}, err
		}
		var visit mule.CoreVisitor
		if !m.countOnly {
			visit = func(vc mule.VertexCore) bool {
				fmt.Fprintf(w, "%d %d\n", b.toGlobal(vc.V), vc.Core)
				return true
			}
		}
		s, err := q.Run(ctx, visit)
		degeneracy = max(degeneracy, s.Degeneracy)
		return tally{s.Status, s.Emitted, s.Recomputes}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("η-core decomposition of %d vertices (η=%g, degeneracy %d, %s) in %s; %d recomputes\n",
			t.emitted, m.eta, degeneracy, t.status, took, t.work)
	})
}

// runDensest mines the most-probable densest-subgraph candidate family:
// "p d\tv1 v2 …" lines, best first. The probability threshold is a
// whole-family property, so the mode loads the full graph; -shards still
// parallelizes the peel per component without changing the output.
func runDensest(ctx context.Context, m modeFlags, out io.Writer) error {
	if m.shardBatch > 0 {
		return fmt.Errorf("-shard-batch would score each batch against its own density threshold; use -shards for in-memory parallel densest runs")
	}
	g, err := graphio.LoadFile(m.in)
	if err != nil {
		return err
	}
	q, err := mule.NewDensestQuery(g, m.withTenant(
		mule.WithLimit(m.limit),
		mule.WithBudget(m.budget),
	)...)
	if err != nil {
		return err
	}
	var s mule.DensestStats
	return mineLoop(m, out, false, func(w *bufio.Writer, _ batch) (tally, error) {
		var visit mule.DensestVisitor
		if !m.countOnly {
			visit = func(c mule.DenseSubgraph) bool {
				fmt.Fprintf(w, "%.9g\t%.9g\t", c.Probability, c.ExpectedDensity)
				printInts(w, c.Vertices)
				w.WriteByte('\n')
				return true
			}
		}
		var err error
		s, err = q.Run(ctx, visit)
		return tally{s.Status, s.Emitted, s.PeelSteps}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("%d densest-subgraph candidates (best density %g, %s) in %s; %d peel steps, %d scored\n",
			t.emitted, s.BestDensity, t.status, took, t.work, s.Scored)
	})
}

// runCluster partitions the graph around -centers k center vertices:
// "p c\tm1 m2 …" lines in ascending center order. The partition is a
// whole-graph property, so the mode loads the full graph.
func runCluster(ctx context.Context, m modeFlags, out io.Writer) error {
	if m.shardBatch > 0 {
		return fmt.Errorf("-shard-batch cannot place the %d centers globally; cluster runs load the full graph", m.centers)
	}
	g, err := graphio.LoadFile(m.in)
	if err != nil {
		return err
	}
	q, err := mule.NewClusterQuery(g, m.withTenant(
		mule.WithCenters(m.centers),
		mule.WithLimit(m.limit),
		mule.WithBudget(m.budget),
	)...)
	if err != nil {
		return err
	}
	var s mule.ClusterStats
	return mineLoop(m, out, false, func(w *bufio.Writer, _ batch) (tally, error) {
		var visit mule.ClusterVisitor
		if !m.countOnly {
			visit = func(c mule.ClusterSet) bool {
				fmt.Fprintf(w, "%.9g\t%d\t", c.Probability, c.Center)
				printInts(w, c.Members)
				w.WriteByte('\n')
				return true
			}
		}
		var err error
		s, err = q.Run(ctx, visit)
		return tally{s.Status, s.Emitted, s.Sweeps}, err
	}, func(t tally, took time.Duration) string {
		return fmt.Sprintf("%d clusters (centers=%d, rounds=%d, converged=%v, %s) in %s; %d reliability sweeps\n",
			t.emitted, m.centers, s.Rounds, s.Converged, t.status, took, t.work)
	})
}

// writeMemProfile dumps a heap profile after a final GC so kernel
// regressions (e.g. the arena losing its steady state) can be diagnosed
// straight from a mule run, without editing code. No-op for an empty path.
func writeMemProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize the steady-state picture, not transient garbage
	return pprof.WriteHeapProfile(f)
}

func printClique(w *bufio.Writer, c []int, p float64) {
	fmt.Fprintf(w, "%.9g\t", p)
	printInts(w, c)
	w.WriteByte('\n')
}

// printInts writes vs space-separated.
func printInts(w *bufio.Writer, vs []int) {
	for i, v := range vs {
		if i > 0 {
			w.WriteByte(' ')
		}
		fmt.Fprintf(w, "%d", v)
	}
}

func parseEngine(s string) (mule.ParallelMode, error) {
	switch strings.ToLower(s) {
	case "worksteal", "workstealing":
		return mule.ParallelWorkStealing, nil
	case "toplevel", "top-level":
		return mule.ParallelTopLevel, nil
	default:
		return 0, fmt.Errorf("unknown parallel engine %q", s)
	}
}

func parseIntersect(s string) (mule.IntersectMode, error) {
	switch strings.ToLower(s) {
	case "adaptive":
		return mule.IntersectAdaptive, nil
	case "sorted":
		return mule.IntersectSorted, nil
	case "bitset":
		return mule.IntersectBitset, nil
	default:
		return 0, fmt.Errorf("unknown intersect mode %q", s)
	}
}

func parseOrdering(s string) (mule.Ordering, error) {
	switch strings.ToLower(s) {
	case "natural":
		return mule.OrderNatural, nil
	case "degree":
		return mule.OrderDegree, nil
	case "degeneracy":
		return mule.OrderDegeneracy, nil
	case "random":
		return mule.OrderRandom, nil
	default:
		return 0, fmt.Errorf("unknown ordering %q", s)
	}
}
