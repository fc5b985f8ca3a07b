package server

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	mule "github.com/uncertain-graphs/mule"
)

// maxWorkersParam bounds the per-query parallelism cap a client may request;
// the executor pool is sized at startup, so larger values buy nothing and
// only inflate per-run bookkeeping.
const maxWorkersParam = 256

// qparams is one query request, parsed and normalized. Two requests that
// mean the same question — whatever the textual spelling or parameter order
// of their URLs — parse to equal qparams and therefore equal cache keys;
// anything malformed, unknown, out of range, or inapplicable to the chosen
// miner is rejected at parse time with an error the handler maps to 400.
type qparams struct {
	miner   string  // cliques | bicliques | quasi | truss | core | densest | cluster
	alpha   float64 // cliques, bicliques
	gamma   float64 // quasi
	eta     float64 // truss, core
	minSize int     // cliques, quasi
	maxSize int     // quasi
	minL    int     // bicliques
	minR    int     // bicliques
	centers int     // cluster
	workers int     // cliques; results are worker-count-invariant

	limit   int64
	budget  int64
	timeout time.Duration
	tenant  string
	nocache bool

	shards     int  // component-sharded execution: WithShards value (0 = off)
	shardsAuto bool // shards=auto → WithAutoShard
}

// sharded reports whether the request asked for component-sharded execution.
func (p *qparams) sharded() bool { return p.shards > 0 || p.shardsAuto }

// paramScope names which keys each miner accepts beyond the common set.
var paramScope = map[string]map[string]bool{
	"cliques":   {"alpha": true, "minsize": true, "workers": true},
	"bicliques": {"alpha": true, "minl": true, "minr": true},
	"quasi":     {"gamma": true, "minsize": true, "maxsize": true},
	"truss":     {"eta": true},
	"core":      {"eta": true},
	"densest":   {},
	"cluster":   {"centers": true},
}

// commonParams are accepted by every miner.
var commonParams = map[string]bool{
	"miner": true, "limit": true, "budget": true, "timeout": true,
	"tenant": true, "nocache": true, "shards": true,
}

// parseQueryParams validates and normalizes a query-string into qparams.
// The contract is strict on purpose: repeated keys, unknown keys, and keys
// outside the chosen miner's scope are errors, so every accepted request has
// exactly one canonical form and the cache can never alias two different
// questions — or split one question across two keys.
func parseQueryParams(v url.Values) (*qparams, error) {
	single := func(key string) (string, bool, error) {
		vals, ok := v[key]
		if !ok {
			return "", false, nil
		}
		if len(vals) != 1 {
			return "", false, fmt.Errorf("parameter %q repeated %d times", key, len(vals))
		}
		return vals[0], true, nil
	}

	miner, ok, err := single("miner")
	if err != nil {
		return nil, err
	}
	if !ok || miner == "" {
		return nil, fmt.Errorf("missing required parameter %q (cliques|bicliques|quasi|truss|core|densest|cluster)", "miner")
	}
	scope, known := paramScope[miner]
	if !known {
		return nil, fmt.Errorf("unknown miner %q (want cliques|bicliques|quasi|truss|core|densest|cluster)", miner)
	}
	for key := range v {
		if !commonParams[key] && !scope[key] {
			return nil, fmt.Errorf("parameter %q does not apply to miner %q", key, miner)
		}
	}

	p := &qparams{miner: miner}
	parseFloat := func(key string, dst *float64) error {
		raw, ok, err := single(key)
		if err != nil || !ok {
			return err
		}
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return fmt.Errorf("parameter %q: %q is not a number", key, raw)
		}
		*dst = f
		return nil
	}
	parseInt := func(key string, dst *int, min, max int) error {
		raw, ok, err := single(key)
		if err != nil || !ok {
			return err
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			return fmt.Errorf("parameter %q: %q is not an integer", key, raw)
		}
		if n < min || n > max {
			return fmt.Errorf("parameter %q: %d outside [%d, %d]", key, n, min, max)
		}
		*dst = n
		return nil
	}
	parseInt64 := func(key string, dst *int64) error {
		raw, ok, err := single(key)
		if err != nil || !ok {
			return err
		}
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("parameter %q: %q is not a non-negative integer", key, raw)
		}
		*dst = n
		return nil
	}

	for _, step := range []error{
		parseFloat("alpha", &p.alpha),
		parseFloat("gamma", &p.gamma),
		parseFloat("eta", &p.eta),
		parseInt("minsize", &p.minSize, 0, 1<<30),
		parseInt("maxsize", &p.maxSize, 0, 1<<30),
		parseInt("minl", &p.minL, 0, 1<<30),
		parseInt("minr", &p.minR, 0, 1<<30),
		parseInt("centers", &p.centers, 0, 1<<30),
		parseInt("workers", &p.workers, 0, maxWorkersParam),
		parseInt64("limit", &p.limit),
		parseInt64("budget", &p.budget),
	} {
		if step != nil {
			return nil, step
		}
	}
	if raw, ok, err := single("timeout"); err != nil {
		return nil, err
	} else if ok {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("parameter %q: %q is not a non-negative duration", "timeout", raw)
		}
		p.timeout = d
	}
	if raw, ok, err := single("tenant"); err != nil {
		return nil, err
	} else if ok {
		if raw == "" {
			return nil, fmt.Errorf("parameter %q must not be empty", "tenant")
		}
		p.tenant = raw
	}
	// shards: a positive count, "auto" (GOMAXPROCS at run time), or 0 /
	// absent for unsharded execution.
	if raw, ok, err := single("shards"); err != nil {
		return nil, err
	} else if ok {
		if raw == "auto" {
			p.shardsAuto = true
		} else {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("parameter %q: %q is not a non-negative integer or %q", "shards", raw, "auto")
			}
			p.shards = n
		}
	}
	if raw, ok, err := single("nocache"); err != nil {
		return nil, err
	} else if ok {
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %q is not a boolean", "nocache", raw)
		}
		p.nocache = b
	}

	// Required per-miner threshold: requiring it here (rather than
	// defaulting) keeps the canonical form unique and mirrors the library,
	// where NewQuasiQuery without WithGamma is an eager error.
	switch miner {
	case "cliques", "bicliques":
		if _, ok := v["alpha"]; !ok {
			return nil, fmt.Errorf("miner %q requires parameter %q", miner, "alpha")
		}
	case "quasi":
		if _, ok := v["gamma"]; !ok {
			return nil, fmt.Errorf("miner %q requires parameter %q", miner, "gamma")
		}
	case "truss", "core":
		if _, ok := v["eta"]; !ok {
			return nil, fmt.Errorf("miner %q requires parameter %q", miner, "eta")
		}
	case "cluster":
		if _, ok := v["centers"]; !ok {
			return nil, fmt.Errorf("miner %q requires parameter %q", miner, "centers")
		}
	}
	return p, nil
}

// cacheKey builds the canonical result-cache key: graph name and epoch plus
// exactly the fields that determine the result set. Budget, timeout, tenant,
// and workers are deliberately excluded — only complete (or limit-truncated)
// runs are cached, and for those the result is invariant under all four
// (the engines guarantee worker-count-identical output). A nocache request
// returns "" and bypasses the cache entirely.
func (p *qparams) cacheKey(graph string, epoch uint64) string {
	if p.nocache {
		return ""
	}
	ff := func(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }
	var b strings.Builder
	// The graph name is user-controlled: length-prefix it so a crafted name
	// cannot collide with another key's field encoding.
	fmt.Fprintf(&b, "%d:%s|e=%d|m=%s", len(graph), graph, epoch, p.miner)
	switch p.miner {
	case "cliques":
		fmt.Fprintf(&b, "|a=%s|ms=%d", ff(p.alpha), p.minSize)
	case "bicliques":
		fmt.Fprintf(&b, "|a=%s|ml=%d|mr=%d", ff(p.alpha), p.minL, p.minR)
	case "quasi":
		fmt.Fprintf(&b, "|g=%s|ms=%d|xs=%d", ff(p.gamma), p.minSize, p.maxSize)
	case "truss", "core":
		fmt.Fprintf(&b, "|h=%s", ff(p.eta))
	case "cluster":
		fmt.Fprintf(&b, "|k=%d", p.centers)
		// "densest" has no per-miner parameters: the graph and epoch alone
		// determine the candidate family.
	}
	fmt.Fprintf(&b, "|l=%d", p.limit)
	// The result set is shard-invariant, so sharded and unsharded runs share
	// cache entries — except under a limit, where the truncated prefix
	// follows the delivery order: engine order unsharded, component order
	// sharded. The component order is the same for every shard setting, so
	// one flag (not the shard count) splits the key space.
	if p.sharded() && p.limit > 0 {
		b.WriteString("|s=1")
	}
	return b.String()
}

// commonOptions assembles the option set shared by every miner. prog, when
// non-nil and the request is sharded, receives per-component progress.
func (p *qparams) commonOptions(ex *mule.Executor, prog func(done, total int)) []mule.Option {
	opts := []mule.Option{mule.WithExecutor(ex)}
	if p.tenant != "" {
		opts = append(opts, mule.WithTenant(p.tenant))
	}
	if p.limit > 0 {
		opts = append(opts, mule.WithLimit(p.limit))
	}
	if p.budget > 0 {
		opts = append(opts, mule.WithBudget(p.budget))
	}
	if p.shardsAuto {
		opts = append(opts, mule.WithAutoShard())
	} else if p.shards > 0 {
		opts = append(opts, mule.WithShards(p.shards))
	}
	if prog != nil && p.sharded() {
		opts = append(opts, mule.WithShardProgress(prog))
	}
	return opts
}

// runOutcome is what a runner produces: the answer in canonical order,
// JSON-encoded, with its length, the terminal status, the miner's stats
// struct, and the run error, if any. On a budget abort the results hold the
// partial prefix delivered before the abort. encErr is set, and results
// nil, when the answer holds a value JSON cannot encode (a non-finite
// float).
type runOutcome struct {
	results []byte
	encErr  error
	count   int64
	status  mule.RunStatus
	stats   any
	err     error
}

// outcome encodes a runner's sorted answer with elem and completes its
// runOutcome.
func outcome[T any](out []T, elem func([]byte, T) ([]byte, error), status mule.RunStatus, stats any, err error) runOutcome {
	results, encErr := encodeList(out, elem)
	return runOutcome{results: results, encErr: encErr, count: int64(len(out)), status: status, stats: stats, err: err}
}

// runner executes one prepared query against one snapshot.
type runner func(ctx context.Context) runOutcome

// newRunner builds the prepared query for p against snap on ex, validating
// eagerly — a bad threshold, an out-of-scope option, or a miner/graph-kind
// mismatch surfaces here, before the cache is consulted or any work runs.
// prog, when non-nil, receives per-component progress on sharded requests.
func (p *qparams) newRunner(snap *Snapshot, ex *mule.Executor, prog func(done, total int)) (runner, error) {
	if p.miner == "bicliques" {
		if snap.Bipartite == nil {
			return nil, fmt.Errorf("miner %q needs a bipartite graph: %w", p.miner, mule.ErrConfig)
		}
	} else if snap.Graph == nil {
		return nil, fmt.Errorf("miner %q needs a regular graph, not bipartite: %w", p.miner, mule.ErrConfig)
	}

	opts := p.commonOptions(ex, prog)
	switch p.miner {
	case "cliques":
		if p.minSize > 0 {
			opts = append(opts, mule.WithMinSize(p.minSize))
		}
		if p.workers > 1 {
			opts = append(opts, mule.WithWorkers(p.workers))
		}
		q, err := mule.NewQuery(snap.Graph, p.alpha, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			out := []clique{}
			stats, err := q.Run(ctx, func(c []int, prob float64) bool {
				out = append(out, clique{vertices: append([]int(nil), c...), prob: prob})
				return true
			})
			sort.Slice(out, func(i, j int) bool { return lexLess(out[i].vertices, out[j].vertices) })
			return outcome(out, appendClique, stats.Status, stats, err)
		}, nil

	case "bicliques":
		if p.minL > 1 || p.minR > 1 {
			opts = append(opts, mule.WithSides(p.minL, p.minR))
		}
		q, err := mule.NewBicliqueQuery(snap.Bipartite, p.alpha, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			out := []biclique{}
			stats, err := q.Run(ctx, func(l, r []int, prob float64) bool {
				out = append(out, biclique{
					left:  append([]int(nil), l...),
					right: append([]int(nil), r...),
					prob:  prob,
				})
				return true
			})
			sort.Slice(out, func(i, j int) bool {
				if !slicesEqual(out[i].left, out[j].left) {
					return lexLess(out[i].left, out[j].left)
				}
				return lexLess(out[i].right, out[j].right)
			})
			return outcome(out, appendBiclique, stats.Status, stats, err)
		}, nil

	case "quasi":
		opts = append(opts, mule.WithGamma(p.gamma))
		if p.minSize > 0 {
			opts = append(opts, mule.WithMinSize(p.minSize))
		}
		if p.maxSize > 0 {
			opts = append(opts, mule.WithMaxSize(p.maxSize))
		}
		q, err := mule.NewQuasiQuery(snap.Graph, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			out := [][]int{}
			stats, err := q.Run(ctx, func(s []int) bool {
				out = append(out, append([]int(nil), s...))
				return true
			})
			return outcome(out, appendVertexSet, stats.Status, stats, err)
		}, nil

	case "truss":
		q, err := mule.NewTrussQuery(snap.Graph, p.eta, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			out := []mule.EdgeTruss{}
			stats, err := q.Run(ctx, func(e mule.EdgeTruss) bool {
				out = append(out, e)
				return true
			})
			sort.Slice(out, func(i, j int) bool {
				if out[i].U != out[j].U {
					return out[i].U < out[j].U
				}
				return out[i].V < out[j].V
			})
			return outcome(out, appendEdgeTruss, stats.Status, stats, err)
		}, nil

	case "core":
		q, err := mule.NewCoreQuery(snap.Graph, p.eta, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			out := []mule.VertexCore{}
			stats, err := q.Run(ctx, func(vc mule.VertexCore) bool {
				out = append(out, vc)
				return true
			})
			sort.Slice(out, func(i, j int) bool { return out[i].V < out[j].V })
			return outcome(out, appendVertexCore, stats.Status, stats, err)
		}, nil

	case "densest":
		q, err := mule.NewDensestQuery(snap.Graph, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			// The engine's best-first order is canonical; keep it, like quasi.
			out := []mule.DenseSubgraph{}
			stats, err := q.Run(ctx, func(c mule.DenseSubgraph) bool {
				c.Vertices = append([]int(nil), c.Vertices...)
				out = append(out, c)
				return true
			})
			return outcome(out, appendDenseSubgraph, stats.Status, stats, err)
		}, nil

	case "cluster":
		opts = append(opts, mule.WithCenters(p.centers))
		q, err := mule.NewClusterQuery(snap.Graph, opts...)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) runOutcome {
			// Ascending center order is canonical; keep it.
			out := []mule.ClusterSet{}
			stats, err := q.Run(ctx, func(c mule.ClusterSet) bool {
				c.Members = append([]int(nil), c.Members...)
				out = append(out, c)
				return true
			})
			return outcome(out, appendCluster, stats.Status, stats, err)
		}, nil
	}
	return nil, fmt.Errorf("unknown miner %q: %w", p.miner, mule.ErrConfig)
}

// lexLess orders int slices lexicographically.
func lexLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
