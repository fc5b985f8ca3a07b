package mule

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"sync"

	"github.com/uncertain-graphs/mule/internal/core"
)

// Component-sharded mining. No clique, biclique, quasi-clique, truss edge,
// or core vertex spans two support components, so every prepared query can
// be executed as one independent run per component over a small relabeled
// CSR, with results mapped back to parent vertex IDs. Sharding changes the
// execution shape, never the answer: the collected (canonical-order) result
// set, Count, MaxTruss, and the folded work counters' totals are identical
// to an unsharded run. What does change is stream order — a sharded Run or
// Stream delivers results component by component (components numbered by
// smallest member, matching Graph.Components), each component internally in
// its engine's order — and therefore which prefix a WithLimit bound keeps.
// The sharded order is itself deterministic for every shard count, so
// WithShards(1), WithShards(8), and WithAutoShard agree byte for byte.

// shardsAuto marks WithAutoShard in the configured shard count; it is
// resolved to runtime.GOMAXPROCS(0) when a run starts.
const shardsAuto = -1

// WithShards executes the query one support component at a time, up to n
// components concurrently (n = 1 is fully sequential). Each component is
// extracted as a self-contained relabeled CSR, mined as its own engine run
// — with per-component panic containment, so a poisoned component fails the
// run without taking down the process — and its results are mapped back and
// delivered on the calling goroutine in component order. At most roughly n
// component subgraphs are materialized at once, so a multi-component graph
// mines in memory proportional to its largest component, not its total
// size. n must be at least 1; anything else is a wrapped ErrConfig.
//
// WithBudget composes: the budget bounds the total work across all
// components, which forces the components to run sequentially so each can
// be handed what remains. Single-answer methods that are not streams
// (Query.Maximum, TrussQuery.Truss, CoreQuery.Decompose, CoreQuery.Core)
// ignore sharding and run on the whole graph.
func WithShards(n int) Option {
	return Option{"WithShards", kindAll, func(o *queryOptions) {
		o.shards, o.shardsSet, o.shardsAuto = n, true, false
	}}
}

// WithAutoShard is WithShards with the concurrency chosen at run time as
// runtime.GOMAXPROCS(0).
func WithAutoShard() Option {
	return Option{"WithAutoShard", kindAll, func(o *queryOptions) {
		o.shards, o.shardsSet, o.shardsAuto = 0, true, true
	}}
}

// WithShardProgress registers a callback for sharded runs: fn(0, total) is
// invoked once when the run starts (total is the graph's component count)
// and fn(done, total) after each component's results have been delivered,
// always on the run's calling goroutine. It requires WithShards or
// WithAutoShard; passing it alone is a wrapped ErrConfig.
func WithShardProgress(fn func(done, total int)) Option {
	return Option{"WithShardProgress", kindAll, func(o *queryOptions) { o.shardProgress = fn }}
}

// shardPlan validates the sharding options, returning the configured shard
// concurrency: 0 when unsharded, shardsAuto for WithAutoShard, else the
// WithShards value.
func (o *queryOptions) shardPlan() (int, error) {
	if !o.shardsSet {
		if o.shardProgress != nil {
			return 0, fmt.Errorf("mule: WithShardProgress requires WithShards or WithAutoShard: %w", ErrConfig)
		}
		return 0, nil
	}
	if o.shardsAuto {
		return shardsAuto, nil
	}
	if o.shards < 1 {
		return 0, fmt.Errorf("mule: WithShards requires at least one shard, got %d: %w", o.shards, ErrConfig)
	}
	return o.shards, nil
}

// resolveShards turns a configured shard count into a concrete concurrency.
func resolveShards(n int) int {
	if n == shardsAuto {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// shardTask is one component's unit of work in a sharded run: mine the
// component and return its buffered results, already remapped to parent
// vertex IDs. IDs must be consecutive from 0 in yield order (the contract
// of ShardByComponent).
type shardTask[T any] struct {
	id  int
	run func(context.Context) ([]T, error)
}

// runShardTask executes one task with per-shard panic containment: a panic
// inside one component's engine run (or result remapping) becomes that
// task's error instead of unwinding the whole process.
func runShardTask[T any](ctx context.Context, t shardTask[T]) (out []T, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, panicToError(v)
		}
	}()
	return t.run(ctx)
}

// driveShards runs tasks with at most conc in flight, calling deliver with
// each task's results in task-ID order on the calling goroutine. deliver
// returning false stops the run (a nil error outcome); a task error cancels
// the remaining tasks and is returned — the lowest-ID error when several
// fail. Tasks are pulled from the iterator lazily, so at most about conc+1
// component subgraphs exist at any moment, and every goroutine is joined
// before the call returns on all paths, including a deliver panic.
func driveShards[T any](ctx context.Context, tasks iter.Seq[shardTask[T]], conc int, deliver func([]T) bool) error {
	if conc <= 1 {
		for t := range tasks {
			out, err := runShardTask(ctx, t)
			if err != nil {
				return err
			}
			if !deliver(out) {
				return nil
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	type result struct {
		id  int
		out []T
		err error
	}
	taskCh := make(chan shardTask[T])
	feederDone := make(chan struct{})
	go func() {
		// The feeder advances the shard iterator only when a worker is
		// ready, keeping the number of materialized component CSRs bounded.
		defer close(feederDone)
		defer close(taskCh)
		for t := range tasks {
			select {
			case taskCh <- t:
			case <-cctx.Done():
				return
			}
		}
	}()
	resCh := make(chan result)
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range taskCh {
				out, err := runShardTask(cctx, t)
				select {
				case resCh <- result{t.id, out, err}:
				case <-cctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()
	defer func() {
		// Join everything on every exit path (normal, error, deliver
		// panic): cancel unblocks the workers and feeder, draining resCh
		// waits out the workers, feederDone waits out the feeder.
		cancel()
		for range resCh {
		}
		<-feederDone
	}()

	// Reorder completions into task-ID order before delivery. IDs are
	// consecutive from 0, so a single cursor suffices.
	pending := make(map[int]result)
	next := 0
	var firstErr error
	stopped := false
	for r := range resCh {
		pending[r.id] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil || stopped {
				continue
			}
			if cur.err != nil {
				firstErr = cur.err
				cancel()
				continue
			}
			if !deliver(cur.out) {
				stopped = true
				cancel()
			}
		}
	}
	return firstErr
}

// runSharded executes a query component by component; see WithShards for
// the contract. visit is the limit-wrapped visitor (nil only counts). Stats
// are folded across the per-component engine runs. A kind without a finish
// step streams each component's results as it completes; a kind with one
// mines every component first (quasi-clique maximality and the densest score
// threshold need the whole family), finishes the merged family, then
// reports it, so the report loop behaves exactly like an unsharded run.
func (p *prepared[T, S]) runSharded(ctx context.Context, visit func(T) bool) (S, error) {
	conc := resolveShards(p.shards)
	if p.budget > 0 {
		conc = 1 // budget handoff needs each component's actual spend, in order
	}
	collectAll := p.finish != nil
	var (
		mu        sync.Mutex
		agg       S
		remaining = p.budget // written only on the sequential path
	)
	tasks := func(yield func(shardTask[T]) bool) {
		id := 0
		for run := range p.components {
			cid := id
			id++
			t := shardTask[T]{id: cid, run: func(runCtx context.Context) ([]T, error) {
				budget := int64(0)
				if p.budget > 0 {
					if remaining <= 0 {
						return nil, fmt.Errorf("mule: search budget exhausted before component %d: %w", cid, ErrBudget)
					}
					budget = remaining
				}
				var buf []T
				var buffer func(T) bool
				if visit != nil || collectAll {
					buffer = func(v T) bool {
						buf = append(buf, v)
						// No component needs to yield more results than the
						// global limit keeps; stop its engine there.
						return collectAll || p.limit <= 0 || int64(len(buf)) < p.limit
					}
				}
				s, err := run(runCtx, budget, buffer)
				mu.Lock()
				p.fold(&agg, s)
				mu.Unlock()
				if p.budget > 0 {
					remaining -= p.work(s)
				}
				return buf, err
			}}
			if !yield(t) {
				return
			}
		}
	}

	done, total := 0, 0
	if p.shardProg != nil {
		total = p.numComponents()
		p.shardProg(0, total)
	}
	var (
		all       []T
		delivered int64
		stopped   bool
	)
	err := driveShards(ctx, tasks, conc, func(out []T) bool {
		if collectAll {
			all = append(all, out...)
		} else {
			n, stop := report(out, visit)
			delivered += n
			if stop {
				stopped = true
				return false
			}
		}
		done++
		if p.shardProg != nil {
			p.shardProg(done, total)
		}
		return true
	})
	if collectAll && err == nil {
		if err = p.finish(ctx, all, &agg); err == nil {
			delivered, stopped = report(all, visit)
		}
	}
	switch {
	case err != nil:
		*p.status(&agg) = core.StatusOf(err)
	case stopped:
		*p.status(&agg) = StatusStopped
	default:
		*p.status(&agg) = StatusComplete
	}
	if visit != nil || collectAll {
		*p.emitted(&agg) = delivered
	}
	return agg, err
}
