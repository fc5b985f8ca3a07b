// Command mule mines dense substructures from an uncertain graph file.
//
// Usage:
//
//	mule -in graph.ug -alpha 0.5                 # print all α-maximal cliques
//	mule -in graph.ug -alpha 0.1 -minsize 4      # LARGE-MULE: only cliques ≥ 4
//	mule -in graph.ug -alpha 0.5 -count          # count only
//	mule -in graph.ug -alpha 0.5 -top 10         # 10 highest-probability cliques
//	mule -in graph.ugb -alpha 0.5 -workers 8     # parallel work-stealing search
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
// With -workers > 1 the clique search runs on the work-stealing engine;
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
	"github.com/uncertain-graphs/mule/internal/miners"
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

// statsOut receives every mode's stats line (tests swap it to read them).
var statsOut io.Writer = os.Stderr

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
		mine        = fs.String("mine", "cliques", "what to mine: "+miners.Names())
		alpha       = fs.Float64("alpha", 0.5, "probability threshold α in (0,1] (cliques, bicliques)")
		gamma       = fs.Float64("gamma", 0, "quasi-clique density threshold γ in [0.5,1] (-mine quasi)")
		eta         = fs.Float64("eta", 0, "truss/core confidence threshold η in (0,1] (-mine truss|core)")
		kParam      = fs.Int("k", 0, "with -mine truss: print the (k,η)-truss subgraph; with -mine core: print the (k,η)-core vertices; 0 prints the full decomposition")
		centers     = fs.Int("centers", 0, "cluster center count k in [1, n] (-mine cluster; required)")
		minL        = fs.Int("minl", 0, "bicliques: minimum left-side size")
		minR        = fs.Int("minr", 0, "bicliques: minimum right-side size")
		minSize     = fs.Int("minsize", 0, "enumerate only cliques (LARGE-MULE) or quasi-cliques with at least this many vertices")
		workers     = fs.Int("workers", 0, "parallel workers (0 = serial)")
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
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be non-negative, got %v", *timeout)
	}
	if *kParam < 0 {
		return fmt.Errorf("-k must be non-negative, got %d", *kParam)
	}
	if *top < 0 {
		return fmt.Errorf("-top must be non-negative, got %d", *top)
	}

	m := modeFlags{
		in: *in, limit: *limit, budget: *budget, countOnly: *countOnly, quiet: *quiet,
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
	name := strings.ToLower(*mine)
	if alias, ok := mineAliases[name]; ok {
		name = alias
	}
	kind := miners.Lookup(name)
	if kind == nil {
		return fmt.Errorf("unknown -mine mode %q (want %s)", *mine, miners.Names())
	}
	p := miners.Params{Alpha: *alpha, Gamma: *gamma, Eta: *eta, MinSize: *minSize,
		MinL: *minL, MinR: *minR, Centers: *centers, Workers: *workers}
	var opts []mule.Option
	var runErr error
	if name == "cliques" {
		opts, runErr = cliqueOptions(*ordering, *intersect, *granularity)
	}
	switch {
	case runErr != nil:
	case name == "cliques" && *top > 0:
		runErr = runTop(ctx, m, p, opts, *top, out)
	case (name == "truss" || name == "core") && *kParam > 0:
		runErr = runK(ctx, m, name, p.Eta, *kParam, out)
	default:
		runErr = mineLoop(ctx, m, kind, p, opts, out)
	}
	// The heap profile is written even for aborted runs, so kernel
	// regressions can be diagnosed from a truncated enumeration.
	if merr := writeMemProfile(*memprofile); merr != nil && runErr == nil {
		runErr = merr
	}
	return runErr
}

// mineAliases maps the other accepted -mine spellings to a kind's name.
var mineAliases = map[string]string{
	"clique": "cliques", "biclique": "bicliques", "quasi-cliques": "quasi", "quasicliques": "quasi",
	"trusses": "truss", "cores": "core", "clusters": "cluster", "clustering": "cluster",
}

// modeFlags carries the flags every -mine mode shares.
type modeFlags struct {
	in         string
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

// options returns the query options every -mine mode shares: the -limit
// and -budget allowance, then WithTenant, WithRetry, WithStallTimeout and
// the shard plan when their flags were given, so admission accounting,
// retry, the stall watchdog and sharding cover all seven query surfaces
// uniformly.
func (m modeFlags) options(limit, budget int64) []mule.Option {
	opts := []mule.Option{mule.WithLimit(limit), mule.WithBudget(budget)}
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

// cliqueOptions parses the clique-only engine flags.
func cliqueOptions(ordering, intersect string, granularity int) ([]mule.Option, error) {
	ord, err := parseOrdering(ordering)
	if err != nil {
		return nil, err
	}
	imode, err := parseIntersect(intersect)
	if err != nil {
		return nil, err
	}
	return []mule.Option{mule.WithStealGranularity(granularity),
		mule.WithOrdering(ord), mule.WithIntersect(imode)}, nil
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
func forEachBatch(m modeFlags, bipartite bool, fn func(in miners.Input, toGlobal func(int) int) error) error {
	identity := func(v int) int { return v }
	switch {
	case bipartite:
		b, err := graphio.LoadBipartiteFile(m.in)
		if err != nil {
			return err
		}
		return fn(miners.Input{Bipartite: b}, identity)
	case m.shardBatch <= 0:
		g, err := graphio.LoadFile(m.in)
		if err != nil {
			return err
		}
		return fn(miners.Input{Graph: g}, identity)
	}
	return graphio.ScanComponentBatches(m.in, m.shardBatch, func(batch *mule.Graph, newToOld []int) error {
		return fn(miners.Input{Graph: batch}, func(v int) int { return newToOld[v] })
	})
}

// batchBudget tracks -limit / -budget across out-of-core batches so the
// two caps mean the same thing batched as unbatched: each batch query gets
// the remaining allowance, a met limit stops the loop, and a spent budget
// keeps the next batch from starting.
type batchBudget struct {
	limit, budget int64 // original flags (0 = unlimited)
	remaining     int64 // results still allowed
	left          int64 // search work still allowed
}

// next reports whether another batch may start: ErrBudget once the work
// allowance is spent. The engines charge their budget in blocks, so a run
// may complete past its allowance; only the batches after it are refused.
func (b *batchBudget) next() error {
	if b.budget > 0 && b.left <= 0 {
		return fmt.Errorf("search budget exhausted between batches: %w", mule.ErrBudget)
	}
	return nil
}

// spend folds one batch run's consumption (delivered results, dominant work
// counter), returning errBatchesDone once the limit is met.
func (b *batchBudget) spend(emitted, work int64) error {
	if b.budget > 0 {
		b.left -= work
	}
	if b.limit > 0 {
		b.remaining -= emitted
		if b.remaining <= 0 {
			return errBatchesDone
		}
	}
	return nil
}

// mineLoop runs one -mine mode through its table entry: once per
// out-of-core batch, or once on the whole graph when -shard-batch is off,
// with -limit / -budget carried across batches. The -count line, the stats
// line, and the flush follow before any abort surfaces, so a canceled run
// still reports its partial output; a run whose input fails to load or
// whose query fails validation prints nothing.
func mineLoop(ctx context.Context, m modeFlags, k *miners.Kind, p miners.Params, opts []mule.Option, out io.Writer) error {
	if m.shardBatch > 0 && k.NoBatch != nil {
		return k.NoBatch(p)
	}
	start := time.Now()
	w := bufio.NewWriter(out)
	lines := w
	if m.countOnly {
		lines = nil
	}
	rep := k.Report(p)
	bud := batchBudget{limit: m.limit, budget: m.budget, remaining: m.limit, left: m.budget}
	var agg miners.Tally
	ran := false
	runErr := forEachBatch(m, k.Bipartite, func(in miners.Input, toGlobal func(int) int) error {
		if err := bud.next(); err != nil {
			return err
		}
		q, err := k.New(in, p, append(m.options(bud.remaining, bud.left), opts...)...)
		if err != nil {
			return err
		}
		ran = true
		t, err := q.Print(ctx, lines, toGlobal, rep)
		agg = miners.Tally{Status: t.Status, Emitted: agg.Emitted + t.Emitted, Work: agg.Work + t.Work}
		if err != nil {
			return err
		}
		return bud.spend(t.Emitted, t.Work)
	})
	if runErr != nil && !ran {
		return runErr
	}
	if errors.Is(runErr, errBatchesDone) {
		agg.Status, runErr = mule.StatusStopped, nil
	} else if errors.Is(runErr, mule.ErrBudget) {
		agg.Status = mule.StatusBudget
	}
	if m.countOnly {
		fmt.Fprintf(w, "%d\n", agg.Emitted)
	}
	if !m.quiet {
		fmt.Fprint(statsOut, rep.Line(agg, time.Since(start).Round(time.Millisecond)))
	}
	w.Flush()
	return runErr
}

// runTop prints the -top highest-probability α-maximal cliques.
func runTop(ctx context.Context, m modeFlags, p miners.Params, opts []mule.Option, top int, out io.Writer) error {
	if m.shardBatch > 0 {
		return fmt.Errorf("-shard-batch cannot rank across batches; drop -top or -shard-batch")
	}
	start := time.Now()
	w := bufio.NewWriter(out)
	defer w.Flush()
	g, err := graphio.LoadFile(m.in)
	if err != nil {
		return err
	}
	opts = append(append(m.options(m.limit, m.budget), opts...), mule.WithMinSize(p.MinSize), mule.WithWorkers(p.Workers))
	q, err := mule.NewQuery(g, p.Alpha, opts...)
	if err != nil {
		return err
	}
	scored, err := q.TopK(ctx, top, mule.ByProb)
	if err != nil {
		return err
	}
	for _, sc := range scored {
		fmt.Fprintf(w, "%.9g\t%s\n", sc.Prob, strings.Trim(fmt.Sprint(sc.Vertices), "[]"))
	}
	if !m.quiet {
		fmt.Fprintf(statsOut, "top-%d of α=%g maximal cliques in %s (n=%d m=%d)\n",
			top, p.Alpha, time.Since(start).Round(time.Millisecond), g.NumVertices(), g.NumEdges())
	}
	return nil
}

// runK prints the single answer of -k: the (k,η)-truss subgraph ("u v p"
// per surviving edge) or the (k,η)-core vertices.
func runK(ctx context.Context, m modeFlags, name string, eta float64, k int, out io.Writer) error {
	if m.shardBatch > 0 {
		return fmt.Errorf("-shard-batch is incompatible with -k (single-answer mode)")
	}
	start := time.Now()
	w := bufio.NewWriter(out)
	defer w.Flush()
	g, err := graphio.LoadFile(m.in)
	if err != nil {
		return err
	}
	// n answers; put writes the i-th as its output line.
	var n int
	var put func(i int)
	total, unit := g.NumEdges(), "edges"
	if name == "truss" {
		q, err := mule.NewTrussQuery(g, eta, m.options(m.limit, m.budget)...)
		if err != nil {
			return err
		}
		tr, err := q.Truss(ctx, k)
		if err != nil {
			return err
		}
		edges := tr.Edges()
		n, put = len(edges), func(i int) { fmt.Fprintf(w, "%d %d %.9g\n", edges[i].U, edges[i].V, edges[i].P) }
	} else {
		q, err := mule.NewCoreQuery(g, eta, m.options(m.limit, m.budget)...)
		if err != nil {
			return err
		}
		verts, err := q.Core(ctx, k)
		if err != nil {
			return err
		}
		n, put = len(verts), func(i int) { fmt.Fprintf(w, "%d\n", verts[i]) }
		total, unit = g.NumVertices(), "vertices"
	}
	if m.countOnly {
		fmt.Fprintf(w, "%d\n", n)
	} else {
		for i := 0; i < n && (m.limit <= 0 || int64(i) < m.limit); i++ {
			put(i)
		}
	}
	if !m.quiet {
		fmt.Fprintf(statsOut, "(%d,%g)-%s: %d of %d %s in %s\n",
			k, eta, name, n, total, unit, time.Since(start).Round(time.Millisecond))
	}
	return nil
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
