package mule

import (
	"context"
	"fmt"
	"iter"
)

// The query chassis. Every prepared query kind — cliques, bicliques,
// quasi-cliques, trusses, cores, densest subgraphs, clusterings — answers
// through one contract: options validated at construction, admission before
// any work, the WithLimit bound, panic containment, component sharding, and
// the Run / Collect / Count / Stream surface. The contract is written here
// once, with the one sharded runner in shard.go; each kind describes its
// engine as a miner and its public type delegates to a prepared value.

// base is the kind-independent state of a prepared query.
type base struct {
	limit     int64
	budget    int64 // the engine config's WithBudget bound (0 = none)
	ten       tenancy
	shards    int // 0 = unsharded; see WithShards
	shardProg func(done, total int)
}

// prepare applies opts for one query kind and validates everything the
// chassis owns, in order: option scope, tenancy, shard plan, limit. The
// kind's constructor then validates its engine configuration.
func prepare(kind queryKind, opts []Option) (queryOptions, base, error) {
	o, err := applyOptions(kind, opts)
	if err != nil {
		return o, base{}, err
	}
	ten, err := o.validateTenancy()
	if err != nil {
		return o, base{}, err
	}
	shards, err := o.shardPlan()
	if err != nil {
		return o, base{}, err
	}
	if o.limit < 0 {
		return o, base{}, fmt.Errorf("mule: negative limit %d: %w", o.limit, ErrConfig)
	}
	return o, base{limit: o.limit, ten: ten, shards: shards, shardProg: o.shardProgress}, nil
}

// miner describes one query kind's engine to the chassis: T is its result
// type, S its Stats type.
type miner[T, S any] struct {
	// mine runs the engine on the whole graph, reporting each result to
	// visit (nil only counts) until visit returns false.
	mine func(ctx context.Context, visit func(T) bool) (S, error)
	// status and emitted address the Stats fields the chassis maintains.
	status  func(*S) *RunStatus
	emitted func(*S) *int64
	// clone copies a result the engine reuses after visit returns; nil when
	// results are already caller-owned.
	clone func(T) T
	// order sorts a Collect into canonical order; nil when the delivery
	// order already is canonical.
	order func([]T)
	// parallel reports that visit fires on engine worker goroutines, so a
	// Stream must hand results to the consumer through a channel.
	parallel bool

	// components yields one runner per support component, in component
	// order; nil runs a sharded query on the whole graph as one shard.
	components    iter.Seq[componentRun[T, S]]
	numComponents func() int
	// fold adds one component's stats into the run's; work is the budget's
	// unit in those stats.
	fold func(agg *S, s S)
	work func(S) int64
	// finish, when set, makes a sharded run mine every component before
	// reporting anything: it runs once over the merged family (sorting it,
	// and for densest queries scoring it) ahead of the report loop.
	finish func(ctx context.Context, all []T, agg *S) error
}

// componentRun mines one support component under budget (0 = unbounded),
// reporting results in parent vertex IDs to visit (nil only counts; never
// nil for a kind with a finish step).
type componentRun[T, S any] func(ctx context.Context, budget int64, visit func(T) bool) (S, error)

// eachComponent lifts a per-component runner over a graph's support
// components, in component order.
func eachComponent[Sh, T, S any](shards func() iter.Seq[Sh], run func(Sh) componentRun[T, S]) iter.Seq[componentRun[T, S]] {
	return func(yield func(componentRun[T, S]) bool) {
		for sh := range shards() {
			if !yield(run(sh)) {
				return
			}
		}
	}
}

// mapVisit feeds visit each result through f; a nil visit stays nil, so
// count-only runs never materialize results.
func mapVisit[T any](visit func(T) bool, f func(T) T) func(T) bool {
	if visit == nil {
		return nil
	}
	return func(v T) bool { return visit(f(v)) }
}

// toParent maps component vertex IDs to parent IDs in a fresh slice.
func toParent(vs, newToOld []int) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = newToOld[v]
	}
	return out
}

// prepared is one validated query: the shared state plus its kind's miner.
// It is immutable after construction, so runs may proceed concurrently.
type prepared[T, S any] struct {
	base
	miner[T, S]
}

// run executes one admitted run under the WithLimit bound, reporting
// whether the caller's visitor (rather than the limit) ended it. A panic
// anywhere below — engine, visitor, or shard driver — becomes a wrapped
// ErrPanic with StatusPanicked; a rejected admission is StatusFailed.
func (p *prepared[T, S]) run(ctx context.Context, visit func(T) bool) (stats S, userStopped bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			*p.status(&stats) = StatusPanicked
			err = panicToError(v)
		}
	}()
	release, err := p.ten.admit(ctx, p.budget)
	if err != nil {
		*p.status(&stats) = StatusFailed
		return stats, false, err
	}
	defer release()
	wrapped := limitVisitor(visit, p.limit, &userStopped)
	switch {
	case p.shards == 0:
		stats, err = p.mine(ctx, wrapped)
	case p.components == nil:
		// A whole-graph answer: the run is its own single shard.
		if p.shardProg != nil {
			p.shardProg(0, 1)
		}
		stats, err = p.mine(ctx, wrapped)
		if err == nil && p.shardProg != nil {
			p.shardProg(1, 1)
		}
	default:
		stats, err = p.runSharded(ctx, wrapped)
	}
	return stats, userStopped, err
}

// limitVisitor wraps visit with the WithLimit bound, reporting through
// userStopped whether visit itself (as opposed to the limit) ended the
// run. A nil visit with no limit stays nil so the engines skip the
// callback entirely.
func limitVisitor[T any](visit func(T) bool, limit int64, userStopped *bool) func(T) bool {
	if limit > 0 {
		remaining := limit
		return func(v T) bool {
			if visit != nil && !visit(v) {
				*userStopped = true
				return false
			}
			remaining--
			return remaining > 0
		}
	}
	if visit == nil {
		return nil
	}
	return func(v T) bool {
		if !visit(v) {
			*userStopped = true
			return false
		}
		return true
	}
}

// report delivers a fully mined answer: each result is counted before visit
// sees it (a result that reaches the visitor is emitted even if it stops the
// run, as in every engine), and visit returning false ends the loop.
func report[T any](all []T, visit func(T) bool) (delivered int64, stopped bool) {
	for _, v := range all {
		delivered++
		if visit != nil && !visit(v) {
			return delivered, true
		}
	}
	return delivered, false
}

// own returns v as a caller-owned result.
func (p *prepared[T, S]) own(v T) T {
	if p.clone != nil {
		return p.clone(v)
	}
	return v
}

// Run is the shared Run method: err == nil means the run completed or met
// its WithLimit bound; a visitor stop is a wrapped ErrStopped.
func (p *prepared[T, S]) Run(ctx context.Context, visit func(T) bool) (S, error) {
	stats, userStopped, err := p.run(ctx, visit)
	if err == nil && userStopped {
		err = fmt.Errorf("mule: %w", ErrStopped)
	}
	return stats, err
}

// Collect materializes the results in the kind's canonical order.
func (p *prepared[T, S]) Collect(ctx context.Context) ([]T, error) {
	var out []T
	if _, _, err := p.run(ctx, func(v T) bool {
		out = append(out, p.own(v))
		return true
	}); err != nil {
		return nil, err
	}
	if p.order != nil {
		p.order(out)
	}
	return out, nil
}

// Count returns the number of results, without materializing them.
func (p *prepared[T, S]) Count(ctx context.Context) (int64, error) {
	stats, err := p.Run(ctx, nil)
	return *p.emitted(&stats), err
}

// unlimited returns the query with its WithLimit bound lifted, for answers
// that are only correct over the full family (TopK, MaxTruss).
func (p *prepared[T, S]) unlimited() *prepared[T, S] {
	full := *p
	full.limit = 0
	return &full
}

// Stream is the shared range-over-func stream: each result is yielded with
// a nil error; an aborted run ends with one final (zero, err) pair; breaking
// the loop stops the run and leaks nothing.
func (p *prepared[T, S]) Stream(ctx context.Context) iter.Seq2[T, error] {
	if p.parallel {
		return p.streamParallel(ctx)
	}
	return func(yield func(T, error) bool) {
		consumerDone := false
		_, _, err := p.run(ctx, func(v T) bool {
			if !yield(p.own(v), nil) {
				consumerDone = true
				return false
			}
			return true
		})
		if err != nil && !consumerDone {
			var zero T
			yield(zero, err)
		}
	}
}

// streamParallel bridges a parallel run to the consumer through a channel:
// the engines' visitor fires on worker goroutines, and a range-over-func
// yield must only be called on the consumer's goroutine. Breaking the loop
// cancels the producer's context; the producer unwinds within one poll
// interval and the drain below guarantees it is never left blocked on a
// send, so nothing outlives the loop.
func (p *prepared[T, S]) streamParallel(ctx context.Context) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		results := make(chan T, 64)
		errc := make(chan error, 1)
		go func() {
			ctxStopped := false
			_, _, err := p.run(runCtx, func(v T) bool {
				select {
				case results <- p.own(v):
					return true
				case <-runCtx.Done():
					ctxStopped = true
					return false
				}
			})
			if err == nil && ctxStopped && ctx.Err() != nil {
				// The caller's context fired while the visitor was parked in
				// the select above, so the engines saw an ordinary visitor
				// stop before their next poll; report the true cause. Runs
				// that completed (or hit their WithLimit) before the context
				// fired keep their nil error.
				err = fmt.Errorf("mule: enumeration aborted: %w", ctx.Err())
			}
			close(results)
			errc <- err
		}()
		for v := range results {
			if !yield(v, nil) {
				cancel()
				for range results { // unblock the producer until it closes
				}
				<-errc
				return
			}
		}
		if err := <-errc; err != nil {
			var zero T
			yield(zero, err)
		}
	}
}

// admitted runs one single-answer call — not a stream, so neither WithLimit
// nor sharding applies — under the query's admission control and panic
// containment.
func (p *prepared[T, S]) admitted(ctx context.Context, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = panicToError(v)
		}
	}()
	release, err := p.ten.admit(ctx, p.budget)
	if err != nil {
		return err
	}
	defer release()
	return fn()
}
