package mule

import (
	"github.com/uncertain-graphs/mule/internal/core"
	"github.com/uncertain-graphs/mule/internal/exec"
	"github.com/uncertain-graphs/mule/internal/uncertain"
)

// Typed sentinel errors. Graph construction and every query surface —
// cliques, bicliques, quasi-cliques, trusses, cores, and the maintainer —
// wrap one of these (or context.Canceled / context.DeadlineExceeded for
// aborted runs) with the offending values; match with errors.Is:
//
//	if _, err := mule.NewQuery(g, 1.5); errors.Is(err, mule.ErrAlphaRange) { … }
var (
	// ErrNilGraph reports a nil *Graph passed to a query or enumeration.
	ErrNilGraph = core.ErrNilGraph
	// ErrAlphaRange reports a probability threshold α outside (0, 1].
	ErrAlphaRange = core.ErrAlphaRange
	// ErrConfig reports an invalid option value (negative sizes, worker
	// counts, limits or budgets; unknown orderings or engines).
	ErrConfig = core.ErrConfig
	// ErrStopped reports that a Visitor ended a Query.Run early by
	// returning false; the run's Stats remain valid for the delivered
	// prefix.
	ErrStopped = core.ErrStopped
	// ErrBudget reports that a run exhausted its WithBudget node budget
	// before completing.
	ErrBudget = core.ErrBudget
	// ErrGammaRange reports a quasi-clique density threshold γ outside the
	// range the miner supports: WithGamma must lie in [0.5, 1] (the
	// predicate helpers accept (0, 1]).
	ErrGammaRange = core.ErrGammaRange
	// ErrEtaRange reports a truss/core confidence threshold η outside
	// (0, 1].
	ErrEtaRange = core.ErrEtaRange
	// ErrKRange reports a structural size parameter k below its floor:
	// 2 for TrussQuery.Truss, 0 for CoreQuery.Core.
	ErrKRange = core.ErrKRange
	// ErrCentersRange reports a cluster query center count outside
	// [1, NumVertices] — including the zero value from omitting the required
	// WithCenters option.
	ErrCentersRange = core.ErrCentersRange
	// ErrAdmission reports a run rejected by an Executor's admission
	// control: the query's tenant is at its in-flight or aggregate-budget
	// cap (see Limits) and the wait queue is full or waiting is disabled.
	// Rejection happens before any search work runs; retry after other runs
	// of the tenant release their capacity (WithRetry automates that with
	// jittered exponential backoff).
	ErrAdmission = exec.ErrAdmission
	// ErrPanic reports a run terminated by a recovered panic — in a visitor
	// callback or inside an engine — contained to that run: other runs on
	// the shared executor are untouched. The concrete error is a
	// *PanicError carrying the panic value and stack.
	ErrPanic = core.ErrPanic
	// ErrStalled reports a run aborted by the WithStallTimeout watchdog
	// after making no search progress for the configured window — distinct
	// from a context deadline, which fires on wall clock regardless of
	// progress.
	ErrStalled = core.ErrStalled

	// ErrVertexRange reports an edge endpoint or vertex ID outside [0, n).
	ErrVertexRange = uncertain.ErrVertexRange
	// ErrSelfLoop reports an edge with identical endpoints.
	ErrSelfLoop = uncertain.ErrSelfLoop
	// ErrProbRange reports an edge probability outside (0, 1] (or NaN).
	ErrProbRange = uncertain.ErrProbRange
	// ErrDuplicateEdge reports an edge added twice to a Builder.
	ErrDuplicateEdge = uncertain.ErrDuplicateEdge
)

// PanicError is the concrete error behind ErrPanic: the recovered panic
// value plus the stack captured at the recovery point. Match the sentinel
// with errors.Is(err, ErrPanic) and extract the detail with errors.As:
//
//	var pe *mule.PanicError
//	if errors.As(err, &pe) { log.Printf("run panicked: %v\n%s", pe.Value, pe.Stack) }
type PanicError = core.PanicError

// RunStatus is the terminal state of an enumeration run, recorded in
// Stats.Status.
type RunStatus = core.RunStatus

// Terminal run states.
const (
	// StatusComplete: the search space was exhausted.
	StatusComplete = core.StatusComplete
	// StatusStopped: a visitor returned false or a WithLimit bound hit.
	StatusStopped = core.StatusStopped
	// StatusCanceled: the context was canceled mid-run.
	StatusCanceled = core.StatusCanceled
	// StatusDeadline: the context deadline expired mid-run.
	StatusDeadline = core.StatusDeadline
	// StatusBudget: the WithBudget node budget ran out mid-run.
	StatusBudget = core.StatusBudget
	// StatusFailed: a maintainer update was rejected by validation before
	// any work ran (queries validate at construction and never report it),
	// or a query's run was rejected by admission control.
	StatusFailed = core.StatusFailed
	// StatusPanicked: a recovered panic terminated the run (ErrPanic); the
	// shared executor and every other run are unaffected.
	StatusPanicked = core.StatusPanicked
	// StatusStalled: the WithStallTimeout watchdog aborted the run after no
	// search progress for the configured window (ErrStalled).
	StatusStalled = core.StatusStalled
)
