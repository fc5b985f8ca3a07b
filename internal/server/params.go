package server

import (
	"context"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"time"

	mule "github.com/uncertain-graphs/mule"
	"github.com/uncertain-graphs/mule/internal/miners"
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
	kind *miners.Kind
	miners.Params

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

// commonParams are accepted by every miner; each miner's own keys are its
// table entry's.
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

	name, ok, err := single("miner")
	if err != nil {
		return nil, err
	}
	if !ok || name == "" {
		return nil, fmt.Errorf("missing required parameter %q (%s)", "miner", miners.Names())
	}
	kind := miners.Lookup(name)
	if kind == nil {
		return nil, fmt.Errorf("unknown miner %q (want %s)", name, miners.Names())
	}
	for key := range v {
		if !commonParams[key] && !slices.Contains(kind.Keys, key) {
			return nil, fmt.Errorf("parameter %q does not apply to miner %q", key, name)
		}
	}

	p := &qparams{kind: kind}
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

	for _, key := range kind.Keys {
		f, n := p.Field(key)
		bound := 1 << 30
		if key == "workers" {
			bound = maxWorkersParam
		}
		var err error
		if f != nil {
			err = parseFloat(key, f)
		} else {
			err = parseInt(key, n, 0, bound)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, step := range []error{
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

	// The miner's first key is required: requiring it here (rather than
	// defaulting) keeps the canonical form unique and mirrors the library,
	// where NewQuasiQuery without WithGamma is an eager error.
	if len(kind.Keys) > 0 {
		if _, ok := v[kind.Keys[0]]; !ok {
			return nil, fmt.Errorf("miner %q requires parameter %q", name, kind.Keys[0])
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
	// The graph name is user-controlled: length-prefix it so a crafted name
	// cannot collide with another key's field encoding.
	b := fmt.Appendf(nil, "%d:%s|e=%d|m=%s", len(graph), graph, epoch, p.kind.Name)
	for _, key := range p.kind.Keys {
		if key == "workers" {
			continue
		}
		b = append(append(append(b, '|'), key...), '=')
		if f, n := p.Field(key); f != nil {
			b = strconv.AppendFloat(b, *f, 'g', 17, 64)
		} else {
			b = strconv.AppendInt(b, int64(*n), 10)
		}
	}
	b = fmt.Appendf(b, "|l=%d", p.limit)
	// The result set is shard-invariant, so sharded and unsharded runs share
	// cache entries — except under a limit, where the truncated prefix
	// follows the delivery order: engine order unsharded, component order
	// sharded. The component order is the same for every shard setting, so
	// one flag (not the shard count) splits the key space.
	if p.sharded() && p.limit > 0 {
		b = append(b, "|s=1"...)
	}
	return string(b)
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

// runner executes one prepared query against one snapshot. On a budget
// abort the answer holds the partial prefix delivered before the abort.
type runner func(ctx context.Context) miners.Answer

// newRunner builds the prepared query for p against snap on ex, validating
// eagerly — a bad threshold, an out-of-scope option, or a miner/graph-kind
// mismatch surfaces here, before the cache is consulted or any work runs.
// prog, when non-nil, receives per-component progress on sharded requests.
func (p *qparams) newRunner(snap *Snapshot, ex *mule.Executor, prog func(done, total int)) (runner, error) {
	if p.kind.Bipartite {
		if snap.Bipartite == nil {
			return nil, fmt.Errorf("miner %q needs a bipartite graph: %w", p.kind.Name, mule.ErrConfig)
		}
	} else if snap.Graph == nil {
		return nil, fmt.Errorf("miner %q needs a regular graph, not bipartite: %w", p.kind.Name, mule.ErrConfig)
	}
	q, err := p.kind.New(miners.Input{Graph: snap.Graph, Bipartite: snap.Bipartite}, p.Params, p.commonOptions(ex, prog)...)
	if err != nil {
		return nil, err
	}
	return q.Answer, nil
}
