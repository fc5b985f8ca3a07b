package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/uncertain-graphs/mule/internal/faultinject"
)

// Typed sentinel errors for the enumeration entry points. Callers match them
// with errors.Is; the concrete errors returned wrap these with the offending
// values. Context aborts are reported by wrapping context.Canceled or
// context.DeadlineExceeded directly, so errors.Is(err, context.Canceled)
// works without a package-specific sentinel.
var (
	// ErrNilGraph reports a nil *uncertain.Graph argument.
	ErrNilGraph = errors.New("nil graph")
	// ErrAlphaRange reports a probability threshold outside (0, 1].
	ErrAlphaRange = errors.New("alpha outside (0,1]")
	// ErrConfig reports an invalid Config field (negative sizes or counts,
	// unknown ordering or parallel mode).
	ErrConfig = errors.New("invalid config")
	// ErrStopped reports that the visitor ended the enumeration early by
	// returning false. The core entry points never return it — an early stop
	// is a successful run with Stats.Status == StatusStopped — but the query
	// layer above uses it to distinguish truncated streams.
	ErrStopped = errors.New("enumeration stopped by visitor")
	// ErrBudget reports that the run exhausted its Config.Budget of search
	// nodes before completing.
	ErrBudget = errors.New("search budget exhausted")

	// ErrGammaRange reports a quasi-clique density threshold γ outside the
	// range the mining algorithm supports ([0.5, 1]; the predicate and
	// verifier helpers accept (0, 1]).
	ErrGammaRange = errors.New("gamma out of range")
	// ErrEtaRange reports a truss/core confidence threshold η outside (0, 1].
	ErrEtaRange = errors.New("eta outside (0,1]")
	// ErrKRange reports a structural size parameter k below its floor (2 for
	// trusses, 0 for cores).
	ErrKRange = errors.New("k out of range")
	// ErrCentersRange reports a clustering center count outside [1, n] — the
	// number of clusters a partition of n vertices can have. Omitting
	// WithCenters entirely leaves the zero value, which is rejected too.
	ErrCentersRange = errors.New("centers out of range")

	// ErrPanic reports that a run was terminated by a recovered panic — in a
	// visitor callback, a worker frame, or a split — contained to that run.
	// The concrete error is a *PanicError wrapping this sentinel; match with
	// errors.Is(err, ErrPanic) and inspect via errors.As(err, &pe).
	ErrPanic = errors.New("panic during run")
	// ErrStalled reports that the stall watchdog aborted a run that made no
	// search progress for the configured StallTimeout — distinct from a
	// context deadline, which fires on wall-clock regardless of progress.
	ErrStalled = errors.New("run stalled: no progress within stall timeout")
)

// PanicError carries a recovered panic out of a run as an error: the panic
// value, the stack captured at the recovery point, and ErrPanic as its
// unwrap target. The run that panicked is the only one affected; the
// executor, its workers, and every other run keep going.
type PanicError struct {
	Value any    // the value passed to panic
	Stack []byte // debug.Stack() captured where the panic was recovered
}

// NewPanicError wraps a recovered panic value and stack.
func NewPanicError(value any, stack []byte) *PanicError {
	return &PanicError{Value: value, Stack: stack}
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap makes errors.Is(err, ErrPanic) match any contained panic.
func (e *PanicError) Unwrap() error { return ErrPanic }

// RunStatus is the terminal state of an enumeration run, recorded in
// Stats.Status.
type RunStatus int

const (
	// StatusComplete: the search space was exhausted; the output is the full
	// α-maximal clique set (subject to MinSize).
	StatusComplete RunStatus = iota
	// StatusStopped: the visitor returned false; the output is a prefix.
	StatusStopped
	// StatusCanceled: the context was canceled mid-run.
	StatusCanceled
	// StatusDeadline: the context deadline expired mid-run.
	StatusDeadline
	// StatusBudget: the Config.Budget node budget ran out mid-run.
	StatusBudget
	// StatusFailed: the operation was rejected by validation before any
	// search work ran. Queries validate at construction and never report
	// it; the maintainer's per-operation stats use it so an invalid update
	// is never mistaken for a completed one.
	StatusFailed
	// StatusPanicked: a panic (visitor callback, worker frame, or split) was
	// recovered and terminated the run; the error is a *PanicError wrapping
	// ErrPanic. Other runs on the shared executor are unaffected.
	StatusPanicked
	// StatusStalled: the stall watchdog aborted the run after no search
	// progress for the configured stall timeout (wrapping ErrStalled).
	StatusStalled
)

// String names the status for logs and error messages.
func (s RunStatus) String() string {
	switch s {
	case StatusComplete:
		return "complete"
	case StatusStopped:
		return "stopped"
	case StatusCanceled:
		return "canceled"
	case StatusDeadline:
		return "deadline"
	case StatusBudget:
		return "budget"
	case StatusFailed:
		return "failed"
	case StatusPanicked:
		return "panicked"
	case StatusStalled:
		return "stalled"
	default:
		return fmt.Sprintf("RunStatus(%d)", int(s))
	}
}

// abortCheckInterval is how many search-tree nodes an enumerator expands
// between context/budget polls. The poll itself is a channel-free ctx.Err()
// call plus one shared atomic add, so the amortized per-node cost is a
// single local counter decrement — no per-node atomics (the engines' hard
// latency bound is therefore one interval's worth of nodes, a few
// microseconds of work).
const abortCheckInterval = 1024

// RunControl is the per-run shared state that lets every engine observe
// cancellation, deadlines, node budgets, and visitor early-stop. One
// instance exists per run; the serial driver and every parallel worker hold
// a pointer to it. It is exported to the sibling miner packages (ubiclique,
// uquasi, utruss, ucore, dynamic) so the whole §6 extension surface shares
// one cancellation/budget discipline instead of reimplementing it per
// algorithm.
type RunControl struct {
	ctx    context.Context // nil when the context can never be canceled
	budget int64           // max search nodes; 0 = unlimited
	used   atomic.Int64    // nodes charged against the budget, in batches
	stop   atomic.Bool     // latched: unwind everything (abort or early stop)
	cause  atomic.Pointer[error]

	// stall is the armed watchdog window (0 = disarmed). Written once by
	// ArmStall before any engine starts — the engines observe it through the
	// happens-before edges of run submission, so it needs no atomic.
	stall time.Duration
	// beacon counts progress stamps: every poll and every emission bumps it.
	// The watchdog goroutine reads it on a coarse tick; an unchanged beacon
	// across a full stall window means the run made no search progress.
	beacon atomic.Int64
}

// NewRunControl builds the control block. A context that can never fire
// (Background, TODO, pure value contexts) is dropped so the poll reduces to
// a nil check.
func NewRunControl(ctx context.Context, budget int64) *RunControl {
	c := &RunControl{budget: budget}
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
	}
	return c
}

// Done exposes the control's cancellation channel for select-based waiters:
// the context's Done channel, or nil (blocks forever in a select) when the
// context can never fire. Budget exhaustion and visitor early-stop do not
// fire it — they unwind through the stop latch inside the engines.
func (c *RunControl) Done() <-chan struct{} {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Done()
}

// Abort latches err as the run's abort cause (first caller wins) and raises
// the stop flag.
func (c *RunControl) Abort(err error) {
	c.cause.CompareAndSwap(nil, &err)
	c.stop.Store(true)
}

// Err returns the latched abort cause, nil if the run was not aborted.
func (c *RunControl) Err() error {
	if p := c.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Poll checks the context and the node budget, charging nodes spent search
// nodes against the budget. It returns true when the run must unwind. The
// enumerators call it every abortCheckInterval nodes (cheap nodes are
// charged in interval batches; expensive units of work — a Poisson-binomial
// tail evaluation, an η-degree recompute — may be charged at finer grain).
func (c *RunControl) Poll(nodes int64) bool {
	faultinject.Fire(faultinject.SlowPoll)
	c.Progress()
	if c.stop.Load() {
		return true
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.Abort(err)
			return true
		}
	}
	if c.budget > 0 && c.used.Add(nodes) >= c.budget {
		c.Abort(ErrBudget)
		return true
	}
	return false
}

// Progress stamps the watchdog beacon. Poll stamps it on every interval;
// emission paths stamp it too, so a run crawling through a slow visitor
// between polls still reads as live. Disarmed runs skip the atomic.
func (c *RunControl) Progress() {
	if c.stall > 0 {
		c.beacon.Add(1)
	}
}

// ArmStall arms the stall watchdog: a run whose beacon does not advance for
// d is aborted with an error wrapping ErrStalled. The returned stop function
// kills the watchdog goroutine; callers defer it around the engine run.
// d <= 0 disarms (no goroutine, no atomics on the poll path).
//
// The watchdog only latches the abort — Go cannot preempt a stuck goroutine,
// so a visitor that never returns keeps its frame alive until it does; every
// cooperative path (polls, queued frames, parked helpers) unwinds promptly
// once the latch is set.
func (c *RunControl) ArmStall(d time.Duration) (stop func()) {
	if d <= 0 {
		return func() {}
	}
	c.stall = d
	quit := make(chan struct{})
	go func() {
		tick := d / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		last := c.beacon.Load()
		stamp := time.Now()
		for {
			select {
			case <-quit:
				return
			case now := <-t.C:
				cur := c.beacon.Load()
				if cur != last {
					last, stamp = cur, now
					continue
				}
				if now.Sub(stamp) >= d {
					c.Abort(fmt.Errorf("no progress for %v: %w", d, ErrStalled))
					return
				}
			}
		}
	}()
	return func() { close(quit) }
}

// Status translates the control's terminal state into a RunStatus: complete
// when nothing aborted and the visitor ran to the end, stopped on a visitor
// early-stop, and StatusOf the abort cause otherwise.
func (c *RunControl) Status(visitorStopped bool) RunStatus {
	err := c.Err()
	if err == nil && visitorStopped {
		return StatusStopped
	}
	return StatusOf(err)
}

// StatusOf maps a run's terminal error to the RunStatus it records: nil is
// complete, and an error is classified by the first sentinel it wraps of
// ErrPanic, ErrBudget, ErrStalled, context.DeadlineExceeded and
// context.Canceled, in that order. Any other error, such as a validation
// failure, is StatusFailed.
func StatusOf(err error) RunStatus {
	switch {
	case err == nil:
		return StatusComplete
	case errors.Is(err, ErrPanic):
		return StatusPanicked
	case errors.Is(err, ErrBudget):
		return StatusBudget
	case errors.Is(err, ErrStalled):
		return StatusStalled
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	default:
		return StatusFailed
	}
}

// finish translates the control's terminal state into the run's status and
// returned error. A visitor early-stop is a successful run (the legacy
// callback contract); aborts surface as wrapped sentinel errors.
func (c *RunControl) finish(stats *Stats, visitorStopped bool) error {
	stats.Status = c.Status(visitorStopped)
	err := c.Err()
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: enumeration aborted after %d search calls: %w", stats.Calls, err)
}
